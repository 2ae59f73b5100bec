// Phase-adaptive engine tests: bit-identity against a manually spliced run
// of the static engines, checkpoint/resume at switch indices and at random
// cuts, the pending-skip rule, v1 checkpoint compatibility, entry kind and
// per-kind telemetry attribution, and the crossover signal.

#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_simulator.h"
#include "core/batch_simulator.h"
#include "core/configuration.h"
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

// A single-seed epidemic large enough to cross the default crossover twice
// (sparse -> dense -> sparse) but small enough for sub-second tests.
constexpr std::uint64_t kPopulation = 1 << 14;

RunOptions adaptive_options(std::uint64_t seed) {
    RunOptions options;
    options.engine = SimulationEngine::kAdaptive;
    options.seed = seed;
    return options;
}

/// Runs `options` paused at `cut` and returns the pause checkpoint.
RunCheckpoint cut_at(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                     RunOptions options, std::uint64_t cut) {
    CollectingSink sink;
    options.pause_after = cut;
    options.checkpoint_sink = &sink;
    EXPECT_EQ(run_simulation(protocol, initial, options).stop_reason, StopReason::kPaused)
        << "cut at " << cut;
    EXPECT_FALSE(sink.checkpoints.empty()) << "cut at " << cut;
    return sink.checkpoints.empty() ? RunCheckpoint{} : sink.checkpoints.back();
}

// An adaptive run is bit-identical to the static engines run leg by leg:
// count-batch to the first switch index, collapsed to the second, then
// count-batch to the end, each leg resuming the previous leg's pause
// checkpoint re-tagged for the next engine.  Both step kinds keep their
// static engines' RNG use, and a switch index is a natural loop top (the
// collapsed leg's last super-step ends there unclamped).
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
    for (std::size_t k = 0; k < 2; ++k) {
        const EngineSwitchInfo& info = recorder.switches[k];
        EXPECT_EQ(info.switch_index, k + 1);
        EXPECT_EQ(info.enter_threshold, options.adaptive.crossover);
        EXPECT_EQ(info.exit_threshold, options.adaptive.crossover);
        if (info.to == ObservedEngine::kCollapsed) {
            EXPECT_GE(info.signal, options.adaptive.crossover);
        } else {
            EXPECT_LT(info.signal, options.adaptive.crossover);
        }
    }

    RunOptions manual;
    manual.seed = 7;
    manual.engine = SimulationEngine::kCountBatch;
    RunCheckpoint cut = cut_at(*protocol, initial, manual, recorder.switches[0].interactions);
    ASSERT_EQ(cut.interactions, recorder.switches[0].interactions);
    ASSERT_FALSE(cut.has_pending_skip);

    cut.engine = ObservedEngine::kCollapsed;
    manual.engine = SimulationEngine::kCollapsedBatch;
    manual.resume_from = &cut;
    RunCheckpoint cut2 = cut_at(*protocol, initial, manual, recorder.switches[1].interactions);
    ASSERT_EQ(cut2.interactions, recorder.switches[1].interactions);

    cut2.engine = ObservedEngine::kCountBatch;
    manual.engine = SimulationEngine::kCountBatch;
    manual.resume_from = &cut2;
    expect_same_run(run_simulation(*protocol, initial, manual), adaptive);
}

// The signal crosses the crossover once per regime change: epidemics switch
// exactly twice and stop at the exact silent onset, all n - 1 infections
// done.
TEST(AdaptiveSimulator, SwitchesOncePerRegimeChange) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SwitchRecorder recorder;
        RunOptions options = adaptive_options(seed);
        options.observer = &recorder;
        const RunResult result = run_simulation(*protocol, initial, options);
        EXPECT_EQ(result.stop_reason, StopReason::kSilent) << "seed " << seed;
        EXPECT_EQ(result.effective_interactions, kPopulation - 1) << "seed " << seed;
        EXPECT_EQ(result.last_output_change, result.interactions) << "seed " << seed;
        EXPECT_EQ(recorder.switches.size(), 2u) << "seed " << seed;
    }
}

// A cut exactly on a switch index resumes bit-identically onto the
// *un*-checkpointed baseline: the checkpoint is taken at the loop top
// before the step kind is chosen, and the resumed loop top chooses the
// same kind from the same configuration.
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
        const RunCheckpoint cut = cut_at(*protocol, initial, options, info.interactions);
        // Serialize through the text format, as a service restart would.
        const RunCheckpoint reloaded = checkpoint_from_string(checkpoint_to_string(cut));
        EXPECT_EQ(reloaded.engine, ObservedEngine::kAdaptive);
        RunOptions resumed = options;
        resumed.resume_from = &reloaded;
        expect_same_run(run_simulation(*protocol, initial, resumed), baseline);
    }
}

// kAuto resumes an adaptive checkpoint adaptively, even below
// kAutoCollapsedThreshold, where kAuto would otherwise pick the count-batch
// engine by size.
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

    const RunCheckpoint cut =
        cut_at(*protocol, initial, options, recorder.switches[1].interactions);
    ASSERT_GT(cut.interactions, recorder.switches[0].interactions);
    EXPECT_EQ(cut.engine, ObservedEngine::kAdaptive);

    RunOptions resumed;
    resumed.engine = SimulationEngine::kAuto;
    resumed.resume_from = &cut;
    const RunResult result = run_simulation(*protocol, initial, resumed);
    EXPECT_EQ(result.engine, ObservedEngine::kAdaptive);
    expect_same_run(result, baseline);
}

// Cuts off the switch indices follow the collapsed engine's checkpoint
// contract (tests/collapsed_simulator_test.cpp): boundaries clamp
// super-steps, so resume bit-identity is against a baseline with the
// *same* boundary schedule.  A periodic schedule straddles both switches;
// every cut resumes (with the schedule kept) onto the checkpointed baseline.
//
// The baseline carries an observer, a checkpoint sink and a telemetry
// collector at once: one on_start (kAdaptive), one on_stop, only periodic
// checkpoints in the sink, and every interaction attributed to one engine
// segment.
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
        EXPECT_EQ(checkpoint.engine, ObservedEngine::kAdaptive);
        CollectingSink resumed_sink;
        RunOptions resumed = observed;
        resumed.checkpoint_sink = &resumed_sink;
        resumed.resume_from = &checkpoint;
        expect_same_run(run_simulation(*protocol, initial, resumed), baseline);
    }
}

// Random cuts: about twenty seeded pseudo-random indices plus both switch
// indices.  Each cut c is the first boundary of a baseline checkpointed
// every c interactions, and resuming its checkpoint under the same
// schedule replays the baseline.  At least one cut lands inside a null
// skip, so the resumed loop top holds a pending skip.
TEST(AdaptiveSimulator, ResumesAtRandomCuts) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    SwitchRecorder recorder;
    RunOptions options = adaptive_options(29);
    options.observer = &recorder;
    const RunResult probe = run_simulation(*protocol, initial, options);
    ASSERT_EQ(recorder.switches.size(), 2u);
    options.observer = nullptr;

    std::set<std::uint64_t> cuts = {recorder.switches[0].interactions,
                                    recorder.switches[1].interactions};
    Rng picker(2024);
    while (cuts.size() < 22) cuts.insert(1 + picker.below(probe.interactions - 1));

    int inside_skip = 0;
    for (const std::uint64_t cut : cuts) {
        CollectingSink sink;
        RunOptions scheduled = options;
        scheduled.checkpoint_every = cut;
        scheduled.checkpoint_sink = &sink;
        const RunResult baseline = run_simulation(*protocol, initial, scheduled);
        ASSERT_FALSE(sink.checkpoints.empty()) << "cut at " << cut;
        const RunCheckpoint checkpoint =
            checkpoint_from_string(checkpoint_to_string(sink.checkpoints.front()));
        ASSERT_EQ(checkpoint.interactions, cut);
        if (checkpoint.has_pending_skip) ++inside_skip;
        RunOptions resumed = scheduled;
        resumed.resume_from = &checkpoint;
        SCOPED_TRACE("cut at " + std::to_string(cut));
        expect_same_run(run_simulation(*protocol, initial, resumed), baseline);
    }
    EXPECT_GE(inside_skip, 1);
}

// The adaptive engine adopts static checkpoints.  A count-batch cut inside a
// null skip at a density past the crossover finishes the skip with its
// count-batch step before the first super-step: it equals running the
// static engine to the skip's effective interaction, then adopting that.
TEST(AdaptiveSimulator, AdoptsStaticCheckpoints) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    // Up to its first switch an adaptive run is the count-batch run.
    SwitchRecorder recorder;
    RunOptions probe = adaptive_options(13);
    probe.observer = &recorder;
    run_simulation(*protocol, initial, probe);
    ASSERT_FALSE(recorder.switches.empty());

    RunOptions fixed;
    fixed.seed = 13;
    fixed.engine = SimulationEngine::kCountBatch;
    // Past the crossover the skips are short: find a cut inside one.
    RunCheckpoint cut;
    for (std::uint64_t index = recorder.switches[0].interactions + 1; !cut.has_pending_skip;
         ++index) {
        ASSERT_LT(index, recorder.switches[0].interactions + 1000);
        cut = cut_at(*protocol, initial, fixed, index);
    }
    ASSERT_EQ(cut.engine, ObservedEngine::kCountBatch);
    ASSERT_GE(engine_detail::crossover_signal(
                  kPopulation, 2 * cut.counts[0] * cut.counts[1]),
              AdaptiveOptions{}.crossover);

    RunOptions adopt = adaptive_options(13);
    adopt.resume_from = &cut;
    const RunResult result = run_simulation(*protocol, initial, adopt);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.effective_interactions, kPopulation - 1);

    fixed.resume_from = &cut;
    const RunCheckpoint after_skip =
        cut_at(*protocol, initial, fixed, cut.interactions + cut.pending_null_skips + 1);
    ASSERT_FALSE(after_skip.has_pending_skip);
    adopt.resume_from = &after_skip;
    expect_same_run(result, run_simulation(*protocol, initial, adopt));

    // A collapsed checkpoint is adopted too.
    fixed.engine = SimulationEngine::kCollapsedBatch;
    fixed.resume_from = nullptr;
    const RunCheckpoint collapsed_cut = cut_at(*protocol, initial, fixed, 100000);
    adopt.resume_from = &collapsed_cut;
    EXPECT_EQ(run_simulation(*protocol, initial, adopt).effective_interactions,
              kPopulation - 1);
}

// Checkpoints carry one engine tag: the adaptive engine rejects agent and
// parallel-collapsed checkpoints, and the static engines reject adaptive
// ones.
TEST(AdaptiveSimulator, RejectsForeignCheckpoints) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});
    const RunCheckpoint adaptive_cut = cut_at(*protocol, initial, adaptive_options(3), 5000);
    ASSERT_EQ(adaptive_cut.engine, ObservedEngine::kAdaptive);

    for (const ObservedEngine foreign :
         {ObservedEngine::kAgentArray, ObservedEngine::kParallelCollapsed}) {
        RunCheckpoint checkpoint = adaptive_cut;
        checkpoint.engine = foreign;
        RunOptions resume = adaptive_options(3);
        resume.resume_from = &checkpoint;
        EXPECT_THROW(run_simulation(*protocol, initial, resume), std::invalid_argument);
    }
    for (const SimulationEngine engine :
         {SimulationEngine::kCountBatch, SimulationEngine::kCollapsedBatch}) {
        RunOptions resume;
        resume.engine = engine;
        resume.resume_from = &adaptive_cut;
        EXPECT_THROW(run_simulation(*protocol, initial, resume), std::invalid_argument);
    }
}

// A checkpoint written by the former segment-chain dispatcher (format v1)
// names its segment engine and carries an `adaptive` monitor line.  It
// reads as an adaptive checkpoint and resumes under kAuto.  This one was
// cut inside a null skip of the count-batch segment at a density past the
// current crossover, so the resumed run finishes the skip first.
TEST(AdaptiveSimulator, ResumesV1SegmentChainCheckpoint) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});
    const RunCheckpoint v1 = checkpoint_from_string(
        "popproto-checkpoint v1\n"
        "engine count_batch\n"
        "population 16384\n"
        "num_states 2\n"
        "rng 12149174110390799201 12569641741968503886 3429449968787626314 "
        "6003556940349484897\n"
        "interactions 84000\n"
        "effective 1879\n"
        "last_output_change 83993\n"
        "next_silence_check 0\n"
        "changed_since_check 1\n"
        "pending_skip 1 17\n"
        "adaptive 0 0 84218\n"
        "counts 2 14504 1880\n"
        "end\n");
    EXPECT_EQ(v1.engine, ObservedEngine::kAdaptive);
    ASSERT_TRUE(v1.has_pending_skip);

    RunOptions resume;
    resume.engine = SimulationEngine::kAuto;
    resume.resume_from = &v1;
    const RunResult result = run_simulation(*protocol, initial, resume);
    EXPECT_EQ(result.engine, ObservedEngine::kAdaptive);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.effective_interactions, kPopulation - 1);

    // Finishing the skip by count-batch first, then resuming adaptively
    // from the effective interaction that ends it, is the same run.
    RunCheckpoint as_count_batch = v1;
    as_count_batch.engine = ObservedEngine::kCountBatch;
    RunOptions fixed;
    fixed.engine = SimulationEngine::kCountBatch;
    fixed.resume_from = &as_count_batch;
    const RunCheckpoint after_skip = cut_at(*protocol, initial, fixed, 84000 + 17 + 1);
    resume.resume_from = &after_skip;
    resume.engine = SimulationEngine::kAdaptive;
    expect_same_run(result, run_simulation(*protocol, initial, resume));
}

// The signal is the density times the super-step length T = ceil(1.5
// sqrt(n)): the expected number of effective interactions in one
// super-step.  crossover_pairs is the exact integer image of the
// crossover: the smallest W whose signal reaches it.
TEST(AdaptiveSignal, IsDensityTimesSuperStepLength) {
    Rng rng(2024);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t n = 2 + rng.below(std::uint64_t{1} << (1 + rng.below(31)));
        const std::uint64_t w = rng.below(n * (n - 1) + 1);
        const double nd = static_cast<double>(n);
        const double length = std::ceil(1.5 * std::sqrt(nd));
        EXPECT_EQ(engine_detail::crossover_signal(n, w),
                  (static_cast<double>(w) / (nd * (nd - 1.0))) * length)
            << "n=" << n << " W=" << w;

        const double crossover = engine_detail::crossover_signal(n, w);
        const std::uint64_t pairs = engine_detail::crossover_pairs(n, crossover);
        ASSERT_LE(pairs, w) << "n=" << n << " W=" << w;
        EXPECT_GE(engine_detail::crossover_signal(n, pairs), crossover);
        if (pairs != 0) {
            EXPECT_LT(engine_detail::crossover_signal(n, pairs - 1), crossover);
        }
    }
    EXPECT_EQ(engine_detail::crossover_pairs(1 << 16, 1e18), ~std::uint64_t{0});
    EXPECT_EQ(engine_detail::crossover_pairs(1 << 16, 0.0), 0u);
}

// The entry kind comes from the initial density, and telemetry attributes
// every interaction to exactly one per-kind segment.
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

}  // namespace
}  // namespace popproto
