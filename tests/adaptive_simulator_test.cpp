// Phase-adaptive dispatcher tests: switch-as-checkpoint bit-identity
// against a manually spliced run, checkpoint/resume cut on and around a
// switch boundary, dwell-based thrash suppression, entry-engine selection,
// and per-engine telemetry attribution.

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_simulator.h"
#include "core/configuration.h"
#include "core/engine_monitor.h"
#include "core/observer.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "protocols/epidemic.h"
#include "telemetry/telemetry.h"

namespace popproto {
namespace {

class CollectingSink final : public CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        checkpoints.push_back(checkpoint);
    }
    std::vector<RunCheckpoint> checkpoints;
};

class SwitchRecorder final : public RunObserver {
public:
    void on_start(const RunStartInfo& info) override { starts.push_back(info.engine); }
    void on_engine_switch(const EngineSwitchInfo& info) override { switches.push_back(info); }
    void on_stop(const RunResult&, double) override { ++stops; }
    std::vector<ObservedEngine> starts;
    std::vector<EngineSwitchInfo> switches;
    int stops = 0;
};

void expect_same_run(const RunResult& actual, const RunResult& expected) {
    EXPECT_EQ(actual.stop_reason, expected.stop_reason);
    EXPECT_EQ(actual.interactions, expected.interactions);
    EXPECT_EQ(actual.effective_interactions, expected.effective_interactions);
    EXPECT_EQ(actual.last_output_change, expected.last_output_change);
    EXPECT_EQ(actual.final_configuration, expected.final_configuration);
    EXPECT_EQ(actual.consensus, expected.consensus);
}

// A single-seed epidemic large enough for the default thresholds to switch
// twice (sparse -> dense -> sparse) but small enough for sub-second tests.
constexpr std::uint64_t kPopulation = 1 << 14;

RunOptions adaptive_options(std::uint64_t seed) {
    RunOptions options;
    options.engine = SimulationEngine::kAdaptive;
    options.seed = seed;
    return options;
}

// The core tentpole guarantee: an adaptive run is bit-identical to manually
// pausing a static run at each recorded switch index, transferring the
// checkpoint to the other engine, and resuming — the switch IS a
// checkpoint round-trip.
TEST(AdaptiveSimulator, BitIdenticalToManualSplice) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    SwitchRecorder recorder;
    RunOptions options = adaptive_options(7);
    options.observer = &recorder;
    const RunResult adaptive = run_simulation(*protocol, initial, options);
    EXPECT_EQ(adaptive.engine, ObservedEngine::kAdaptive);
    EXPECT_EQ(adaptive.stop_reason, StopReason::kSilent);
    // Full epidemic: sparse tail on both ends of the dense transient.
    ASSERT_EQ(recorder.switches.size(), 2u);
    EXPECT_EQ(recorder.switches[0].from, ObservedEngine::kCountBatch);
    EXPECT_EQ(recorder.switches[0].to, ObservedEngine::kCollapsed);
    EXPECT_EQ(recorder.switches[1].from, ObservedEngine::kCollapsed);
    EXPECT_EQ(recorder.switches[1].to, ObservedEngine::kCountBatch);
    EXPECT_LT(recorder.switches[0].interactions, recorder.switches[1].interactions);
    EXPECT_EQ(recorder.switches[0].switch_index, 1u);
    EXPECT_EQ(recorder.switches[1].switch_index, 2u);

    // Manual splice: count-batch to the first switch index...
    CollectingSink sink;
    RunOptions manual;
    manual.seed = 7;
    manual.engine = SimulationEngine::kCountBatch;
    manual.pause_after = recorder.switches[0].interactions;
    manual.checkpoint_sink = &sink;
    const RunResult leg1 = run_simulation(*protocol, initial, manual);
    ASSERT_EQ(leg1.stop_reason, StopReason::kPaused);
    ASSERT_FALSE(sink.checkpoints.empty());
    RunCheckpoint cut = sink.checkpoints.back();
    ASSERT_EQ(cut.interactions, recorder.switches[0].interactions);

    // ...transfer to collapsed, run to the second switch index...
    transfer_checkpoint_engine(cut, ObservedEngine::kCollapsed);
    sink.checkpoints.clear();
    manual.engine = SimulationEngine::kCollapsedBatch;
    manual.resume_from = &cut;
    manual.pause_after = recorder.switches[1].interactions;
    const RunResult leg2 = run_simulation(*protocol, initial, manual);
    ASSERT_EQ(leg2.stop_reason, StopReason::kPaused);
    ASSERT_FALSE(sink.checkpoints.empty());
    RunCheckpoint cut2 = sink.checkpoints.back();
    ASSERT_EQ(cut2.interactions, recorder.switches[1].interactions);

    // ...transfer back to count-batch and finish.
    transfer_checkpoint_engine(cut2, ObservedEngine::kCountBatch);
    manual.engine = SimulationEngine::kCountBatch;
    manual.resume_from = &cut2;
    manual.pause_after = 0;
    manual.checkpoint_sink = nullptr;
    const RunResult tail = run_simulation(*protocol, initial, manual);
    expect_same_run(tail, adaptive);
}

// Pausing exactly ON a switch boundary is transparent: a switch index is a
// natural loop top (the super-step ending there is never clamped — see the
// splice argument in adaptive_simulator.h), so a pause checkpoint cut there
// resumes bit-identically onto the *un*-checkpointed baseline, firing the
// switch on the first resumed loop top.
TEST(AdaptiveSimulator, ResumesBitIdenticallyAcrossSwitches) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    SwitchRecorder recorder;
    RunOptions options = adaptive_options(11);
    options.observer = &recorder;
    const RunResult baseline = run_simulation(*protocol, initial, options);
    ASSERT_EQ(recorder.switches.size(), 2u);
    options.observer = nullptr;

    for (const EngineSwitchInfo& info : recorder.switches) {
        CollectingSink sink;
        RunOptions paused = options;
        paused.pause_after = info.interactions;
        paused.checkpoint_sink = &sink;
        const RunResult first = run_simulation(*protocol, initial, paused);
        ASSERT_EQ(first.stop_reason, StopReason::kPaused) << "cut at " << info.interactions;
        ASSERT_FALSE(sink.checkpoints.empty()) << "cut at " << info.interactions;
        // The pause checkpoint block runs before the monitor poll, so the
        // cut still carries the *pre*-switch engine.
        EXPECT_EQ(sink.checkpoints.back().engine, info.from);

        // Serialize through the text format, as a service restart would.
        const RunCheckpoint reloaded =
            checkpoint_from_string(checkpoint_to_string(sink.checkpoints.back()));
        EXPECT_TRUE(reloaded.adaptive);
        RunOptions resumed = options;
        resumed.resume_from = &reloaded;
        expect_same_run(run_simulation(*protocol, initial, resumed), baseline);
    }
}

// kAuto hands a checkpoint that carries an `adaptive` section back to the
// dispatcher, even below kAutoCollapsedThreshold, where kAuto would
// otherwise pick the count-batch engine by size.  The cut sits on the
// second switch index, so it lies after the first switch, carries the
// collapsed segment engine, and resumes onto the uninterrupted run.
TEST(AdaptiveSimulator, AutoResumesAdaptiveCheckpointBelowCollapsedThreshold) {
    static_assert(kPopulation < kAutoCollapsedThreshold);
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    SwitchRecorder recorder;
    RunOptions options = adaptive_options(17);
    options.observer = &recorder;
    const RunResult baseline = run_simulation(*protocol, initial, options);
    ASSERT_EQ(recorder.switches.size(), 2u);
    options.observer = nullptr;

    CollectingSink sink;
    RunOptions paused = options;
    paused.pause_after = recorder.switches[1].interactions;
    paused.checkpoint_sink = &sink;
    ASSERT_EQ(run_simulation(*protocol, initial, paused).stop_reason, StopReason::kPaused);
    ASSERT_FALSE(sink.checkpoints.empty());
    const RunCheckpoint& cut = sink.checkpoints.back();
    ASSERT_GT(cut.interactions, recorder.switches[0].interactions);
    ASSERT_TRUE(cut.adaptive);
    EXPECT_EQ(cut.engine, ObservedEngine::kCollapsed);

    RunOptions resumed;
    resumed.engine = SimulationEngine::kAuto;
    resumed.resume_from = &cut;
    const RunResult result = run_simulation(*protocol, initial, resumed);
    EXPECT_EQ(result.engine, ObservedEngine::kAdaptive);
    expect_same_run(result, baseline);
}

// Cuts that do NOT land on a switch boundary follow the collapsed engine's
// checkpoint contract (tests/collapsed_simulator_test.cpp): boundaries clamp
// super-steps, so resume bit-identity is against a baseline with the *same*
// boundary schedule.  A periodic schedule straddles both switches, giving
// cuts strictly before the first and strictly after the last; every one
// resumes (with the schedule kept) onto the checkpointed baseline.
//
// The baseline carries an observer, a checkpoint sink and a telemetry
// collector at once, and the dispatcher — not its segments — owns the run:
// one on_start (kAdaptive), one on_stop, only periodic checkpoints in the
// sink (the transfers stay inside the dispatcher), and every interaction
// attributed to one engine segment.
TEST(AdaptiveSimulator, PeriodicCheckpointsResumeThroughSwitches) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    // Probe run: sizes the checkpoint period, and switches without a sink.
    SwitchRecorder probe;
    RunOptions options = adaptive_options(3);
    options.observer = &probe;
    const std::uint64_t run_length =
        run_simulation(*protocol, initial, options).interactions;
    EXPECT_EQ(probe.switches.size(), 2u);
    options.observer = nullptr;

    CollectingSink sink;
    SwitchRecorder recorder;
    telemetry::RunTelemetryCollector collector;
    RunOptions observed = options;
    observed.checkpoint_every = run_length / 12 + 1;
    observed.checkpoint_sink = &sink;
    observed.observer = &recorder;
    observed.telemetry = &collector;
    const RunResult baseline = run_simulation(*protocol, initial, observed);
    ASSERT_EQ(baseline.stop_reason, StopReason::kSilent);
    ASSERT_GE(sink.checkpoints.size(), 8u);
    ASSERT_EQ(recorder.switches.size(), 2u);
    // The schedule straddles the switch window: at least one cut on each side.
    EXPECT_LT(sink.checkpoints.front().interactions, recorder.switches.front().interactions);
    EXPECT_GT(sink.checkpoints.back().interactions, recorder.switches.back().interactions);

    EXPECT_EQ(recorder.starts, std::vector<ObservedEngine>{ObservedEngine::kAdaptive});
    EXPECT_EQ(recorder.stops, 1);
    // Exactly the multiples of the period below the stop index, in order.
    EXPECT_EQ(sink.checkpoints.size(), (baseline.interactions - 1) / observed.checkpoint_every);
    for (std::size_t k = 0; k < sink.checkpoints.size(); ++k)
        EXPECT_EQ(sink.checkpoints[k].interactions, (k + 1) * observed.checkpoint_every);
    const telemetry::RunTelemetry& data = *baseline.telemetry;
    ASSERT_EQ(data.engine_segments.size(), 3u);
    std::uint64_t attributed = 0;
    for (const auto& segment : data.engine_segments) attributed += segment.interactions;
    EXPECT_EQ(attributed, baseline.interactions);
    EXPECT_EQ(data.engine_switches, 2u);
    observed.observer = nullptr;
    observed.telemetry = nullptr;

    for (const RunCheckpoint& checkpoint : sink.checkpoints) {
        EXPECT_TRUE(checkpoint.adaptive);
        CollectingSink resumed_sink;
        RunOptions resumed = observed;
        resumed.checkpoint_sink = &resumed_sink;
        resumed.resume_from = &checkpoint;
        expect_same_run(run_simulation(*protocol, initial, resumed), baseline);
    }
}

// Thrash regression: min_dwell pins the minimum distance between switches
// even under pathologically tight hysteresis.
TEST(AdaptiveSimulator, MinDwellSuppressesThrashing) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    // Tight hysteresis: enter barely above exit invites a switch at nearly
    // every poll while the signal hovers near the band.
    SwitchRecorder recorder;
    RunOptions options = adaptive_options(5);
    options.adaptive.enter_collapsed = 6.5;
    options.adaptive.exit_collapsed = 6.0;
    options.adaptive.min_dwell = 50000;
    options.observer = &recorder;
    const RunResult result = run_simulation(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);

    std::uint64_t previous = 0;
    for (const EngineSwitchInfo& info : recorder.switches) {
        if (previous != 0) {
            EXPECT_GE(info.interactions - previous, options.adaptive.min_dwell)
                << "switches thrash faster than min_dwell";
        }
        previous = info.interactions;
    }
}

// E[L] in the signal is the mean of the collapsed engine's pair survival
// law, sqrt(pi n / 8): exactly half of the single-agent birthday constant
// sqrt(pi n / 2) ~= 1.2533 sqrt(n).  Halving is exact in binary floating
// point, so the halved default thresholds keep every switch decision.
TEST(EngineSwitchMonitor, SignalIsHalfTheSingleAgentBirthdayBound) {
    Rng rng(2024);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t n = 2 + rng.below(std::uint64_t{1} << (1 + rng.below(31)));
        const std::uint64_t w = rng.below(n * (n - 1) + 1);
        const EngineSwitchMonitor monitor(n, ObservedEngine::kCountBatch, AdaptiveOptions{});
        const double nd = static_cast<double>(n);
        const double single_agent =
            (static_cast<double>(w) / (nd * (nd - 1.0))) * (1.2533141373155003 * std::sqrt(nd));
        EXPECT_EQ(monitor.signal(w), 0.5 * single_agent) << "n=" << n << " W=" << w;
    }
}

// Entry engine comes from the initial density, and telemetry attributes
// every interaction to exactly one per-engine segment.
TEST(AdaptiveSimulator, EntryEngineAndSegmentAttribution) {
    const auto protocol = make_epidemic_protocol();

    telemetry::RunTelemetryCollector sparse_collector;
    RunOptions options = adaptive_options(9);
    options.telemetry = &sparse_collector;
    const auto sparse =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});
    const RunResult sparse_run = run_simulation(*protocol, sparse, options);
    const telemetry::RunTelemetry& data = sparse_collector.telemetry();
    ASSERT_FALSE(data.engine_segments.empty());
    EXPECT_EQ(data.engine, "adaptive");
    EXPECT_EQ(data.engine_segments.front().engine, "count_batch");
    EXPECT_EQ(data.engine_switches, data.engine_segments.size() - 1);
    std::uint64_t attributed = 0;
    for (const auto& segment : data.engine_segments) attributed += segment.interactions;
    EXPECT_EQ(attributed, sparse_run.interactions);

    telemetry::RunTelemetryCollector dense_collector;
    options.telemetry = &dense_collector;
    const auto dense = CountConfiguration::from_input_counts(
        *protocol, {kPopulation / 2, kPopulation / 2});
    run_simulation(*protocol, dense, options);
    ASSERT_FALSE(dense_collector.telemetry().engine_segments.empty());
    EXPECT_EQ(dense_collector.telemetry().engine_segments.front().engine, "collapsed");
}

// A checkpoint taken by a *static* engine run can be adopted by the
// adaptive dispatcher mid-run (monitoring starts one period past the cut).
TEST(AdaptiveSimulator, AdoptsStaticCheckpoints) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    CollectingSink sink;
    RunOptions fixed;
    fixed.seed = 13;
    fixed.engine = SimulationEngine::kCountBatch;
    fixed.pause_after = 3000;
    fixed.checkpoint_sink = &sink;
    ASSERT_EQ(run_simulation(*protocol, initial, fixed).stop_reason, StopReason::kPaused);

    const RunCheckpoint cut = sink.checkpoints.back();
    EXPECT_FALSE(cut.adaptive);
    RunOptions adopt = adaptive_options(13);
    adopt.resume_from = &cut;
    const RunResult result = run_simulation(*protocol, initial, adopt);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.effective_interactions, kPopulation - 1);
    EXPECT_EQ(result.consensus, std::optional<bool>(true));
}

// transfer_checkpoint_engine validates its preconditions: only count-shaped
// serial checkpoints move between the two count engines.
TEST(AdaptiveSimulator, TransferRejectsForeignCheckpoints) {
    RunCheckpoint checkpoint;
    checkpoint.engine = ObservedEngine::kAgentArray;
    checkpoint.agent_states = {0, 1};
    EXPECT_THROW(transfer_checkpoint_engine(checkpoint, ObservedEngine::kCollapsed),
                 std::invalid_argument);

    checkpoint.engine = ObservedEngine::kCountBatch;
    checkpoint.agent_states.clear();
    checkpoint.counts = {1, 1};
    checkpoint.has_pending_skip = true;
    EXPECT_THROW(transfer_checkpoint_engine(checkpoint, ObservedEngine::kCollapsed),
                 std::invalid_argument);

    checkpoint.has_pending_skip = false;
    transfer_checkpoint_engine(checkpoint, ObservedEngine::kCollapsed);
    EXPECT_EQ(checkpoint.engine, ObservedEngine::kCollapsed);
}

}  // namespace
}  // namespace popproto
