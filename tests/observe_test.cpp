// Run-trace instrumentation: schedules, observers, and the
// observation-never-perturbs contract (core/observer.h, src/observe).

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_simulator.h"
#include "core/observer.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "graphs/graph_simulation.h"
#include "graphs/interaction_graph.h"
#include "observe/jsonl_writer.h"
#include "observe/metrics.h"
#include "observe/trace_recorder.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "randomized/trials.h"
#include "scenarios/scenario_spec.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::JsonChecker;
using testutil::run_count_batch;

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
}

// Count lines whose "event" field is `event` (relies on the writer always
// leading with {"event":"...").
std::uint64_t count_events(const std::vector<std::string>& lines, const std::string& event) {
    const std::string prefix = "{\"event\":\"" + event + "\"";
    std::uint64_t count = 0;
    for (const std::string& line : lines) {
        if (line.compare(0, prefix.size(), prefix) == 0) ++count;
    }
    return count;
}

bool results_equal(const RunResult& a, const RunResult& b) {
    return a.stop_reason == b.stop_reason && a.interactions == b.interactions &&
           a.effective_interactions == b.effective_interactions &&
           a.last_output_change == b.last_output_change && a.consensus == b.consensus &&
           a.final_configuration.counts() == b.final_configuration.counts();
}

// --- SnapshotSchedule ----------------------------------------------------

TEST(SnapshotSchedule, DisabledNeverFires) {
    const SnapshotSchedule schedule;
    EXPECT_FALSE(schedule.enabled());
    EXPECT_EQ(schedule.first_index(), SnapshotSchedule::kNever);
    EXPECT_EQ(schedule.next_after(0), SnapshotSchedule::kNever);
    EXPECT_EQ(schedule.next_after(1u << 20), SnapshotSchedule::kNever);
}

TEST(SnapshotSchedule, FixedPeriodArithmetic) {
    const SnapshotSchedule schedule = SnapshotSchedule::every(100);
    EXPECT_TRUE(schedule.enabled());
    EXPECT_EQ(schedule.first_index(), 100u);
    EXPECT_EQ(schedule.next_after(0), 100u);
    EXPECT_EQ(schedule.next_after(99), 100u);
    EXPECT_EQ(schedule.next_after(100), 200u);
    EXPECT_EQ(schedule.next_after(101), 200u);
    EXPECT_EQ(schedule.next_after(1000), 1100u);
    // Near-overflow indices saturate to kNever instead of wrapping.
    EXPECT_EQ(schedule.next_after(SnapshotSchedule::kNever - 1), SnapshotSchedule::kNever);
}

TEST(SnapshotSchedule, LogSpacedIsStrictlyIncreasing) {
    const SnapshotSchedule schedule = SnapshotSchedule::log_spaced(1.5, 4);
    EXPECT_EQ(schedule.first_index(), 4u);
    std::uint64_t index = 0;
    std::vector<std::uint64_t> scheduled;
    for (int i = 0; i < 30; ++i) {
        const std::uint64_t next = schedule.next_after(index);
        ASSERT_GT(next, index);
        scheduled.push_back(next);
        index = next;
    }
    // First few indices: 4, 6, 9, 14, 21, ... (v -> max(v+1, ceil(1.5 v))).
    EXPECT_EQ(scheduled[0], 4u);
    EXPECT_EQ(scheduled[1], 6u);
    EXPECT_EQ(scheduled[2], 9u);
    EXPECT_EQ(scheduled[3], 14u);
    // next_after is stateless: querying mid-range lands on the same grid.
    EXPECT_EQ(schedule.next_after(scheduled[5] - 1), scheduled[5]);
    EXPECT_EQ(schedule.next_after(scheduled[5]), scheduled[6]);
}

TEST(SnapshotSchedule, RejectsDegenerateParameters) {
    EXPECT_THROW(SnapshotSchedule::every(0), std::exception);
    EXPECT_THROW(SnapshotSchedule::log_spaced(1.0), std::exception);
    EXPECT_THROW(SnapshotSchedule::log_spaced(0.5), std::exception);
    EXPECT_THROW(SnapshotSchedule::log_spaced(2.0, 0), std::exception);
}

// --- Observation does not perturb any engine -----------------------------

RunOptions base_options(std::uint64_t budget, std::uint64_t seed) {
    RunOptions options;
    options.max_interactions = budget;
    options.seed = seed;
    return options;
}

TEST(Observe, ObservationDoesNotPerturbAgentArray) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
    const RunOptions plain = base_options(default_budget(64), 21);
    const RunResult unobserved = simulate(*protocol, initial, plain);

    TraceRecorder recorder;
    RunOptions observed = plain;
    observed.observer = &recorder;
    observed.snapshots = SnapshotSchedule::every(64);
    const RunResult result = simulate(*protocol, initial, observed);

    EXPECT_TRUE(results_equal(result, unobserved));
    EXPECT_TRUE(recorder.finished());
    EXPECT_TRUE(results_equal(*recorder.result(), unobserved));
}

TEST(Observe, ObservationDoesNotPerturbBatchEngine) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
    const RunOptions plain = base_options(default_budget(64), 22);
    const RunResult unobserved = run_count_batch(*protocol, initial, plain);

    TraceRecorder recorder;
    MetricsAccumulator metrics;
    TeeObserver observers({&recorder, &metrics});
    RunOptions observed = plain;
    observed.observer = &observers;
    observed.snapshots = SnapshotSchedule::log_spaced(1.3);
    const RunResult result = run_count_batch(*protocol, initial, observed);

    EXPECT_TRUE(results_equal(result, unobserved));
    // Null-run accounting: the observer saw exactly the skipped interactions.
    EXPECT_EQ(metrics.report().null_interactions_skipped,
              result.interactions - result.effective_interactions);
}

TEST(Observe, ObservationDoesNotPerturbWeightedEngine) {
    const auto protocol = make_epidemic_protocol();
    std::vector<Symbol> inputs(20, 0);
    inputs[0] = 1;
    const auto initial = AgentConfiguration::from_inputs(*protocol, inputs);
    std::vector<double> weights(20);
    for (std::size_t i = 0; i < weights.size(); ++i) weights[i] = 1.0 + 0.25 * (i % 4);

    const RunOptions plain = base_options(default_budget(20), 23);
    const RunResult unobserved = simulate_weighted(*protocol, initial, weights, plain);

    TraceRecorder recorder;
    RunOptions observed = plain;
    observed.observer = &recorder;
    observed.snapshots = SnapshotSchedule::every(50);
    const RunResult result = simulate_weighted(*protocol, initial, weights, observed);

    EXPECT_TRUE(results_equal(result, unobserved));
    EXPECT_EQ(recorder.engine(), ObservedEngine::kWeighted);
    EXPECT_EQ(recorder.population(), 20u);
}

TEST(Observe, ObservationDoesNotPerturbGraphEngine) {
    const auto protocol = make_epidemic_protocol();
    const InteractionGraph graph = InteractionGraph::ring(16);
    std::vector<Symbol> inputs(16, 0);
    inputs[3] = 1;
    RunOptions plain = base_options(default_budget(16), 24);
    plain.stop_after_stable_outputs = 2000;
    const GraphRunResult unobserved = simulate_on_graph(*protocol, graph, inputs, plain);

    TraceRecorder recorder;
    RunOptions observed = plain;
    observed.observer = &recorder;
    observed.snapshots = SnapshotSchedule::every(32);
    const GraphRunResult result = simulate_on_graph(*protocol, graph, inputs, observed);

    EXPECT_EQ(result.stop_reason, unobserved.stop_reason);
    EXPECT_EQ(result.interactions, unobserved.interactions);
    EXPECT_EQ(result.effective_interactions, unobserved.effective_interactions);
    EXPECT_EQ(result.last_output_change, unobserved.last_output_change);
    EXPECT_EQ(result.consensus, unobserved.consensus);
    EXPECT_EQ(result.final_configuration.states(), unobserved.final_configuration.states());

    EXPECT_EQ(recorder.engine(), ObservedEngine::kGraph);
    ASSERT_TRUE(recorder.finished());
    EXPECT_EQ(recorder.result()->interactions, result.interactions);
    EXPECT_EQ(recorder.result()->final_configuration.counts(),
              result.final_configuration.to_counts(protocol->num_states()).counts());
}

// --- TraceRecorder -------------------------------------------------------

// --- Kernel tallies --------------------------------------------------------

/// The per-event reference for RunResult::tallies: counts the observer
/// calls one at a time.  The telemetry collector's null-run counters are
/// copied from the tallies when the run finishes, so they are checked for
/// agreement only.
class EventCounter final : public RunObserver {
public:
    void on_snapshot(std::uint64_t, const CountConfiguration&) override { ++snapshots; }
    void on_output_change(std::uint64_t) override { ++output_changes; }

    std::uint64_t snapshots = 0;
    std::uint64_t output_changes = 0;
};

class KeepingSink final : public CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override { last = checkpoint; }
    RunCheckpoint last;
};

/// Runs `run` under `options` watched (a counter and a telemetry collector)
/// and unwatched, and checks both runs' tallies against the counter and the
/// collector; returns the unwatched result.
RunResult expect_tallies_match_reference(
    const std::function<RunResult(const RunOptions&)>& run, const RunOptions& options) {
    EventCounter counter;
    telemetry::RunTelemetryCollector collector;
    RunOptions watched = options;
    watched.observer = &counter;
    watched.telemetry = &collector;
    const RunResult reference = run(watched);
    const RunResult plain = run(options);

    const RunTallies& tallies = reference.tallies;
    const telemetry::RunTelemetry& probes = *reference.telemetry;
    EXPECT_EQ(tallies.output_changes, counter.output_changes);
    EXPECT_EQ(tallies.snapshots, counter.snapshots);
    EXPECT_EQ(tallies.null_runs, probes.geometric_skips);
    EXPECT_EQ(tallies.null_interactions, probes.null_interactions_skipped);
    for (std::size_t b = 0; b < tallies.null_run_length_log2.size(); ++b)
        EXPECT_EQ(tallies.null_run_length_log2[b], probes.null_skip_length_log2.buckets[b]) << b;
    EXPECT_TRUE(results_equal(plain, reference));
    EXPECT_TRUE(plain.tallies == tallies);
    return plain;
}

TEST(Observe, KernelTalliesMatchAPerEventReferenceOnEveryEngine) {
    const auto counting = make_counting_protocol(5);
    const auto epidemic = make_epidemic_protocol();
    const auto small = CountConfiguration::from_input_counts(*counting, {200, 12});
    const auto large = CountConfiguration::from_input_counts(*counting, {2000, 12});
    const auto dense = CountConfiguration::from_input_counts(*epidemic, {9999, 1});
    const auto models = CountConfiguration::from_input_counts(*epidemic, {511, 1});
    const std::vector<double> weights = [] {
        std::vector<double> w(212);
        for (std::size_t i = 0; i < w.size(); ++i) w[i] = 1.0 + static_cast<double>(i % 3);
        return w;
    }();
    const auto engine = [](SimulationEngine which, const TabulatedProtocol& protocol,
                           const CountConfiguration& initial) {
        return [which, &protocol, &initial](const RunOptions& options) {
            RunOptions pinned = options;
            pinned.engine = which;
            return run_simulation(protocol, initial, pinned);
        };
    };
    const struct {
        const char* name;
        std::function<RunResult(const RunOptions&)> run;
        bool null_runs_cover_the_nulls;  // every null interaction lies in a null run
        // Super-steps end on snapshots and checkpoints, so only the other
        // engines keep one trajectory across the setups below.
        bool super_steps;
    } engines[] = {
        {"agent_array", engine(SimulationEngine::kAgentArray, *counting, small), false, false},
        {"count_batch", engine(SimulationEngine::kCountBatch, *counting, large), true, false},
        {"collapsed", engine(SimulationEngine::kCollapsedBatch, *epidemic, dense), false, true},
        {"adaptive", engine(SimulationEngine::kAdaptive, *epidemic, dense), false, true},
        {"weighted",
         [&](const RunOptions& options) {
             return simulate_weighted(*counting, AgentConfiguration::from_counts(small), weights,
                                      options);
         },
         false, false},
        {"pair_model",
         [&](const RunOptions& options) {
             ScenarioSpec spec;
             spec.model = "adversarial";
             return run_scenario(*epidemic, models, spec, options);
         },
         false, false},
    };

    for (const auto& [name, run, null_runs_cover_the_nulls, super_steps] : engines) {
        SCOPED_TRACE(name);
        RunOptions plain;
        plain.seed = 17;
        const RunResult whole = expect_tallies_match_reference(run, plain);
        if (null_runs_cover_the_nulls) {
            EXPECT_GT(whole.tallies.null_runs, 0u);
            EXPECT_EQ(whole.tallies.null_interactions,
                      whole.interactions - whole.effective_interactions);
        } else if (!super_steps) {
            EXPECT_EQ(whole.tallies.null_runs, 0u);
        }
        EXPECT_GT(whole.tallies.output_changes, 0u);

        RunOptions snapshots = plain;
        snapshots.snapshots = SnapshotSchedule::every(97);
        EXPECT_GT(expect_tallies_match_reference(run, snapshots).tallies.snapshots, 0u);

        // Checkpoint cuts land inside null runs and split them.
        KeepingSink sink;
        RunOptions checkpointed = snapshots;
        checkpointed.checkpoint_every = 101;
        checkpointed.checkpoint_sink = &sink;
        const RunResult cut = expect_tallies_match_reference(run, checkpointed);
        if (!super_steps) {
            EXPECT_EQ(cut.tallies.null_interactions, whole.tallies.null_interactions);
            EXPECT_GE(cut.tallies.null_runs, whole.tallies.null_runs);
        }

        RunOptions window = plain;
        window.stop_after_stable_outputs = 500;
        expect_tallies_match_reference(run, window);

        // A pause inside a null run, then the resumed remainder: each
        // segment tallies its own events.
        RunOptions first = checkpointed;
        first.checkpoint_every = 0;
        first.pause_after = whole.interactions / 3 + 1;
        const RunResult head = expect_tallies_match_reference(run, first);
        ASSERT_EQ(head.stop_reason, StopReason::kPaused);
        const RunCheckpoint resume_point = sink.last;
        RunOptions rest = snapshots;
        rest.resume_from = &resume_point;
        const RunResult tail = expect_tallies_match_reference(run, rest);
        if (!super_steps) {
            EXPECT_TRUE(results_equal(tail, whole));
            EXPECT_EQ(head.tallies.null_interactions + tail.tallies.null_interactions,
                      whole.tallies.null_interactions);
        }
    }
}

TEST(Observe, GraphEngineTalliesMatchAPerEventReference) {
    // GraphRunResult carries no tallies; a MetricsAccumulator reads them
    // from the kernel's RunResult in on_stop.
    const auto protocol = make_counting_protocol(3);
    const InteractionGraph graph = InteractionGraph::ring(64);
    std::vector<Symbol> inputs(64, 0);
    for (std::size_t i = 0; i < 64; i += 8) inputs[i] = 1;
    EventCounter counter;
    MetricsAccumulator metrics;
    TeeObserver observers({&counter, &metrics});
    RunOptions options;
    options.seed = 3;
    options.max_interactions = 50000;
    options.observer = &observers;
    options.snapshots = SnapshotSchedule::every(1000);
    simulate_on_graph(*protocol, graph, inputs, options);
    EXPECT_EQ(metrics.report().output_changes, counter.output_changes);
    EXPECT_EQ(metrics.report().snapshots, counter.snapshots);
    EXPECT_EQ(counter.snapshots, 50u);
    EXPECT_EQ(metrics.report().null_runs, 0u);
}

TEST(Observe, TraceRecorderCapturesEpidemicTrajectory) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {63, 1});

    TraceRecorder recorder;
    RunOptions options = base_options(default_budget(64), 5);
    options.observer = &recorder;
    options.snapshots = SnapshotSchedule::every(25);
    const RunResult result = simulate(*protocol, initial, options);

    ASSERT_TRUE(recorder.started());
    ASSERT_TRUE(recorder.finished());
    EXPECT_EQ(recorder.engine(), ObservedEngine::kAgentArray);
    EXPECT_EQ(recorder.population(), 64u);
    EXPECT_EQ(recorder.seed(), 5u);
    EXPECT_EQ(recorder.initial_counts(), initial.counts());
    EXPECT_GE(recorder.wall_seconds(), 0.0);

    // Snapshots land exactly on the schedule, strictly before the stop index.
    ASSERT_FALSE(recorder.snapshots().empty());
    std::uint64_t expected_index = 25;
    for (const TraceSnapshot& snapshot : recorder.snapshots()) {
        EXPECT_EQ(snapshot.interaction_index, expected_index);
        expected_index += 25;
        // Conservation: every snapshot is a configuration of all 64 agents.
        std::uint64_t total = 0;
        for (const std::uint64_t count : snapshot.counts) total += count;
        EXPECT_EQ(total, 64u);
    }
    EXPECT_LE(recorder.snapshots().back().interaction_index, result.interactions);

    // Epidemics are monotone: infected counts never decrease along the run.
    std::uint64_t previous_infected = initial.count(1);
    for (const TraceSnapshot& snapshot : recorder.snapshots()) {
        EXPECT_GE(snapshot.counts[1], previous_infected);
        previous_infected = snapshot.counts[1];
    }

    // Output changes: one per infection, the last one at the recorded
    // convergence time.  That infection makes the configuration silent, so
    // the run stops right there.
    ASSERT_FALSE(recorder.output_changes().empty());
    EXPECT_EQ(recorder.output_changes().size(), 63u);
    EXPECT_EQ(recorder.output_changes().back(), result.last_output_change);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.interactions, result.last_output_change);
}

TEST(Observe, TraceRecorderClearsBetweenRuns) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {15, 1});

    TraceRecorder recorder;
    MetricsAccumulator metrics;
    TeeObserver observers({&recorder, &metrics});
    RunOptions options = base_options(default_budget(16), 9);
    options.observer = &observers;
    options.snapshots = SnapshotSchedule::every(10);
    simulate(*protocol, initial, options);
    const std::size_t first_snapshots = recorder.snapshots().size();

    // on_start clears implicitly: a second run does not accumulate.
    options.seed = 10;
    run_count_batch(*protocol, initial, options);
    EXPECT_EQ(recorder.engine(), ObservedEngine::kCountBatch);
    EXPECT_EQ(recorder.seed(), 10u);
    EXPECT_TRUE(recorder.finished());
    EXPECT_LT(recorder.snapshots().size(), first_snapshots + 100);

    recorder.clear();
    metrics.reset();
    EXPECT_FALSE(recorder.started());
    EXPECT_FALSE(recorder.finished());
    EXPECT_TRUE(recorder.snapshots().empty());
    EXPECT_TRUE(recorder.output_changes().empty());
    EXPECT_EQ(metrics.report().null_interactions_skipped, 0u);
}

// --- Batch engine: snapshots inside geometric null jumps -----------------

TEST(Observe, BatchSnapshotsInsideNullRunsKeepCountsConstant) {
    // A dense schedule on a null-heavy epidemic run: most scheduled indices
    // fall inside geometric null jumps and must be emitted anyway — stamped
    // with their exact index, with the counts the jump left unchanged.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {31, 1});

    TraceRecorder recorder;
    RunOptions options = base_options(50'000, 77);
    options.observer = &recorder;
    options.snapshots = SnapshotSchedule::every(7);
    const RunResult result = run_count_batch(*protocol, initial, options);

    // The epidemic completes long before 50k interactions; W == 0 then
    // stops the run exactly at the last effective interaction.
    ASSERT_EQ(result.stop_reason, StopReason::kSilent);
    ASSERT_GT(result.interactions, result.effective_interactions)
        << "test needs null runs to be meaningful";

    // Every scheduled index <= the stop index appears, exactly once, in
    // order — including the ones inside null jumps.
    ASSERT_EQ(recorder.snapshots().size(), result.interactions / 7);
    std::uint64_t expected_index = 7;
    std::uint64_t previous_infected = 1;
    for (const TraceSnapshot& snapshot : recorder.snapshots()) {
        EXPECT_EQ(snapshot.interaction_index, expected_index);
        expected_index += 7;
        // Monotone infection plus conservation: null-run snapshots repeat
        // the configuration, effective ones advance it by one infection.
        EXPECT_GE(snapshot.counts[1], previous_infected);
        EXPECT_EQ(snapshot.counts[0] + snapshot.counts[1], 32u);
        previous_infected = snapshot.counts[1];
    }
}

TEST(Observe, BatchBudgetStopEmitsSnapshotsThroughBudget) {
    // A budget far past silence: scheduled indices between the last
    // effective interaction and the budget fall inside the final (cut) null
    // run and must still be emitted when the run is budget-limited.
    const auto protocol = make_counting_protocol(3);
    auto initial = CountConfiguration::from_input_counts(*protocol, {6, 2});

    TraceRecorder recorder;
    RunOptions options = base_options(4'096, 3);
    options.observer = &recorder;
    options.snapshots = SnapshotSchedule::every(512);
    const RunResult result = run_count_batch(*protocol, initial, options);

    if (result.stop_reason == StopReason::kSilent) {
        // Silence stops the run exactly at the last effective interaction;
        // snapshots past it are not emitted (the run is over).
        for (const TraceSnapshot& snapshot : recorder.snapshots()) {
            EXPECT_LE(snapshot.interaction_index, result.interactions);
        }
    } else {
        // Budget stop: every scheduled index <= budget appears.
        EXPECT_EQ(result.interactions, 4'096u);
        ASSERT_EQ(recorder.snapshots().size(), 8u);
        EXPECT_EQ(recorder.snapshots().back().interaction_index, 4'096u);
    }
}

// --- MetricsCollector ----------------------------------------------------

TEST(Observe, MetricsCollectorAggregatesAcrossThreadedTrials) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {20, 4});

    MetricsCollector metrics;
    TrialOptions options;
    options.base.max_interactions = default_budget(24);
    options.base.seed = 500;
    options.base.engine = SimulationEngine::kCountBatch;
    options.base.observer = &metrics;
    options.base.snapshots = SnapshotSchedule::every(200);
    options.trials = 24;
    options.threads = 4;
    options.keep_records = true;
    const TrialSummary summary = measure_trials(*protocol, initial, options);

    const MetricsReport report = metrics.report();
    EXPECT_EQ(report.runs_started, 24u);
    EXPECT_EQ(report.runs_finished, 24u);
    EXPECT_EQ(report.stops_silent, summary.silent);
    EXPECT_EQ(report.stops_stable_outputs, summary.stable_outputs);
    EXPECT_EQ(report.stops_budget, summary.budget);
    EXPECT_EQ(report.stops_silent + report.stops_stable_outputs + report.stops_budget, 24u);

    // Totals cross-check against the independently retained records.
    std::uint64_t interactions = 0;
    std::uint64_t effective = 0;
    for (const TrialRecord& record : summary.records) {
        interactions += record.interactions;
        effective += record.effective_interactions;
    }
    EXPECT_EQ(report.interactions, interactions);
    EXPECT_EQ(report.effective_interactions, effective);

    // Null-run accounting (batch engine): skipped == total - effective, and
    // the histogram holds one entry per reported run.
    EXPECT_EQ(report.null_interactions_skipped, interactions - effective);
    std::uint64_t histogram_total = 0;
    for (const std::uint64_t bucket : report.null_run_length_log2) histogram_total += bucket;
    EXPECT_EQ(histogram_total, report.null_runs);

    EXPECT_GT(report.snapshots, 0u);
    EXPECT_GE(report.wall_seconds_total, report.wall_seconds_max);
    EXPECT_LE(report.wall_seconds_min, report.wall_seconds_max);

    const std::string text = report.to_string();
    EXPECT_NE(text.find("runs"), std::string::npos);

    metrics.reset();
    EXPECT_EQ(metrics.report().runs_started, 0u);
}

TEST(Observe, MetricsReportExportsValidJson) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {30, 2});

    MetricsCollector metrics;
    RunOptions options = base_options(default_budget(32), 21);
    options.observer = &metrics;
    options.snapshots = SnapshotSchedule::every(64);
    run_count_batch(*protocol, initial, options);

    const MetricsReport report = metrics.report();
    const std::string json = report.to_json();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    // Single line (embeds cleanly in JSONL streams), with the headline
    // counters and the sparse histogram object present.
    EXPECT_EQ(json.find('\n'), std::string::npos);
    // The schema version leads every export so downstream consumers can
    // dispatch before parsing the rest.
    EXPECT_EQ(json.rfind("{\"schema_version\":" + std::to_string(MetricsReport::kSchemaVersion),
                         0),
              0u);
    EXPECT_NE(json.find("\"runs_finished\":1"), std::string::npos);
    EXPECT_NE(json.find("\"interactions\":" + std::to_string(report.interactions)),
              std::string::npos);
    EXPECT_NE(json.find("\"null_run_length_log2\":{"), std::string::npos);

    // An empty report is still valid JSON (all-zero counters, no buckets).
    metrics.reset();
    const std::string empty = metrics.report().to_json();
    JsonChecker empty_checker(empty);
    EXPECT_TRUE(empty_checker.valid()) << empty;
    EXPECT_NE(empty.find("\"null_run_length_log2\":{}"), std::string::npos);
}

TEST(Observe, MergedReportsEqualOneCollectorOverBothRuns) {
    // Each run feeds the shared collector and its own accumulator through a
    // tee, so both see identical events and wall times: the merge of the
    // two per-run reports must then equal the shared report on every
    // field, wall-clock ones included.
    const auto counting = make_counting_protocol(3);
    const auto epidemic = make_epidemic_protocol();
    MetricsCollector shared;
    MetricsAccumulator first, second;

    RunOptions batch = base_options(default_budget(400), 31);
    batch.engine = SimulationEngine::kCountBatch;
    batch.snapshots = SnapshotSchedule::every(500);
    TeeObserver first_tee({&shared, &first});
    batch.observer = &first_tee;
    run_simulation(*counting, CountConfiguration::from_input_counts(*counting, {396, 4}), batch);

    RunOptions agent = base_options(default_budget(64), 32);
    agent.engine = SimulationEngine::kAgentArray;
    TeeObserver second_tee({&shared, &second});
    agent.observer = &second_tee;
    run_simulation(*epidemic, CountConfiguration::from_input_counts(*epidemic, {63, 1}), agent);

    ASSERT_GT(first.report().null_runs, 0u);
    ASSERT_GT(first.report().snapshots, 0u);
    ASSERT_GT(second.report().output_changes, 0u);

    MetricsReport merged = first.report();
    merged.merge(second.report());
    EXPECT_EQ(merged, shared.report()) << merged.to_json() << "\n" << shared.report().to_json();

    // Merge order does not matter, and an empty report is the identity on
    // either side (its zero wall-clock extremes do not count as a run).
    MetricsReport reversed = second.report();
    reversed.merge(first.report());
    EXPECT_EQ(reversed, merged);
    MetricsReport from_empty;
    from_empty.merge(merged);
    EXPECT_EQ(from_empty, merged);
    MetricsReport into = merged;
    into.merge(MetricsReport());
    EXPECT_EQ(into, merged);
}

// --- JsonlTraceWriter and TeeObserver ------------------------------------

TEST(Observe, JsonlWriterEmitsValidJsonl) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {31, 1});

    std::ostringstream out;
    JsonlTraceWriter writer(out);
    TraceRecorder recorder;
    TeeObserver tee({&writer, &recorder});

    RunOptions options = base_options(default_budget(32), 11);
    options.observer = &tee;
    options.snapshots = SnapshotSchedule::log_spaced(1.4, 8);
    const RunResult result = run_count_batch(*protocol, initial, options);

    const std::vector<std::string> lines = split_lines(out.str());
    ASSERT_GE(lines.size(), 3u);
    for (const std::string& line : lines) {
        JsonChecker checker(line);
        EXPECT_TRUE(checker.valid()) << "invalid JSON line: " << line;
    }

    // Event bookkeeping against the tee'd recorder: same run, same counts.
    EXPECT_EQ(count_events(lines, "start"), 1u);
    EXPECT_EQ(count_events(lines, "stop"), 1u);
    EXPECT_EQ(count_events(lines, "snapshot"), recorder.snapshots().size());
    EXPECT_EQ(count_events(lines, "output_change"), recorder.output_changes().size());

    // Spot-check content: the start line names the engine, the stop line
    // the reason.
    EXPECT_NE(lines.front().find("\"engine\":\"count_batch\""), std::string::npos);
    EXPECT_NE(lines.back().find(result.stop_reason == StopReason::kSilent ? "\"silent\""
                                                                          : "\"budget\""),
              std::string::npos);
}

TEST(Observe, JsonlWriterHandlesMinimalStartInfo) {
    std::ostringstream out;
    {
        JsonlTraceWriter writer(out);
        RunStartInfo info;
        info.engine = ObservedEngine::kAgentArray;
        info.population = 2;
        info.num_states = 2;
        writer.on_start(info);
    }
    const std::vector<std::string> lines = split_lines(out.str());
    ASSERT_EQ(lines.size(), 1u);
    JsonChecker checker(lines.front());
    EXPECT_TRUE(checker.valid());
}

TEST(Observe, TeeObserverRejectsNullEntries) {
    EXPECT_THROW(TeeObserver({nullptr}), std::exception);
}

}  // namespace
}  // namespace popproto
