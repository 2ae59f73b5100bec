// The repeated-trial measurement harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "observe/trace_recorder.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "randomized/trials.h"

namespace popproto {
namespace {

TEST(Trials, CountsCorrectConsensusRuns) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 5});
    TrialOptions options;
    options.base.max_interactions = default_budget(15);
    options.base.seed = 100;
    options.trials = 25;
    options.expected_consensus = kOutputTrue;
    const TrialSummary summary = measure_trials(*protocol, initial, options);
    EXPECT_EQ(summary.trials, 25u);
    EXPECT_EQ(summary.correct, 25u);
    EXPECT_EQ(summary.silent, 25u);
    EXPECT_NEAR(summary.correct_rate(), 1.0, 1e-12);
}

TEST(Trials, OrderStatisticsAreConsistent) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {30, 1});
    TrialOptions options;
    options.base.max_interactions = default_budget(31);
    options.base.seed = 7;
    options.trials = 40;
    const TrialSummary summary = measure_trials(*protocol, initial, options);
    EXPECT_LE(summary.min_convergence, summary.median_convergence);
    EXPECT_LE(summary.median_convergence, summary.max_convergence);
    EXPECT_GE(summary.mean_convergence, static_cast<double>(summary.min_convergence));
    EXPECT_LE(summary.mean_convergence, static_cast<double>(summary.max_convergence));
    EXPECT_GT(summary.stddev_convergence, 0.0);
    // Epidemic completion: the mean lands near the closed form.
    EXPECT_NEAR(summary.mean_convergence, epidemic_expected_interactions(31, 1),
                0.35 * epidemic_expected_interactions(31, 1));
}

TEST(Trials, WrongExpectationYieldsZeroCorrect) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 5});
    TrialOptions options;
    options.base.max_interactions = default_budget(15);
    options.trials = 5;
    options.expected_consensus = kOutputFalse;  // truth is "true"
    const TrialSummary summary = measure_trials(*protocol, initial, options);
    EXPECT_EQ(summary.correct, 0u);
}

TEST(Trials, SeedsAdvancePerTrial) {
    // Distinct seeds produce convergence-time dispersion.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {20, 1});
    TrialOptions options;
    options.base.max_interactions = default_budget(21);
    options.base.seed = 1;
    options.trials = 10;
    const TrialSummary summary = measure_trials(*protocol, initial, options);
    EXPECT_NE(summary.min_convergence, summary.max_convergence);
}

TEST(Trials, ParallelSummariesBitIdenticalAcrossThreadCounts) {
    // Trial t always runs with seed base.seed + t and aggregation happens
    // in trial order, so the thread count must not change a single bit of
    // the summary.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {30, 1});
    TrialOptions options;
    options.base.max_interactions = default_budget(31);
    options.base.seed = 19;
    options.trials = 16;

    options.threads = 1;
    const TrialSummary sequential = measure_trials(*protocol, initial, options);
    for (unsigned threads : {4u, 8u}) {
        options.threads = threads;
        const TrialSummary parallel = measure_trials(*protocol, initial, options);
        EXPECT_EQ(parallel.trials, sequential.trials) << threads;
        EXPECT_EQ(parallel.correct, sequential.correct) << threads;
        EXPECT_EQ(parallel.silent, sequential.silent) << threads;
        EXPECT_EQ(parallel.mean_convergence, sequential.mean_convergence) << threads;
        EXPECT_EQ(parallel.stddev_convergence, sequential.stddev_convergence) << threads;
        EXPECT_EQ(parallel.min_convergence, sequential.min_convergence) << threads;
        EXPECT_EQ(parallel.median_convergence, sequential.median_convergence) << threads;
        EXPECT_EQ(parallel.max_convergence, sequential.max_convergence) << threads;
    }
}

TEST(Trials, BatchEngineMeasuresTheSameProtocol) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 5});
    TrialOptions options;
    options.base.max_interactions = default_budget(15);
    options.base.seed = 100;
    options.base.engine = SimulationEngine::kCountBatch;
    options.trials = 25;
    options.threads = 4;
    options.expected_consensus = kOutputTrue;
    const TrialSummary summary = measure_trials(*protocol, initial, options);
    EXPECT_EQ(summary.trials, 25u);
    EXPECT_EQ(summary.correct, 25u);
    EXPECT_EQ(summary.silent, 25u);
}

TEST(Trials, StopReasonCountsPartitionTrials) {
    // A starvation budget: every run must be reported as budget-limited, so
    // budget exhaustion can never hide inside a summary.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {30, 1});
    TrialOptions options;
    options.base.max_interactions = 10;  // far below the ~120 expected completion
    options.base.seed = 3;
    options.trials = 12;
    const TrialSummary summary = measure_trials(*protocol, initial, options);
    EXPECT_EQ(summary.budget, 12u);
    EXPECT_EQ(summary.silent, 0u);
    EXPECT_EQ(summary.stable_outputs, 0u);
    EXPECT_EQ(summary.silent + summary.stable_outputs + summary.budget, summary.trials);
}

/// An epidemic whose infected agents never rest: S = 0 (output 0) and two
/// infected phases A = 1, B = 2 (output 1).  Either phase infects S, and two
/// agents in the same phase flip to the other, so once every agent is
/// infected the outputs are settled, yet with three or more agents two share
/// a phase and the configuration never falls silent.
std::unique_ptr<TabulatedProtocol> make_restless_epidemic_protocol() {
    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 2;
    tables.initial = {0, 1};
    tables.output = {0, 1, 1};
    for (State p = 0; p < 3; ++p)
        for (State q = 0; q < 3; ++q) tables.delta.push_back({p, q});
    const auto set = [&](State p, State q, State next) { tables.delta[p * 3 + q] = {next, next}; };
    for (const State phase : {State{1}, State{2}}) {
        set(phase, 0, phase);
        set(0, phase, phase);
    }
    set(1, 1, 2);
    set(2, 2, 1);
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

TEST(Trials, StableOutputStopsAreCountedSeparately) {
    // Outputs settle once every agent is infected, but the configuration
    // never falls silent, so every run stops on the small stability window
    // as kStableOutputs — and must not be conflated with sound silent stops.
    const auto protocol = make_restless_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {30, 1});
    TrialOptions options;
    options.base.max_interactions = default_budget(31);
    options.base.stop_after_stable_outputs = 40;
    options.base.seed = 8;
    options.trials = 10;
    const TrialSummary summary = measure_trials(*protocol, initial, options);
    EXPECT_EQ(summary.stable_outputs, 10u);
    EXPECT_EQ(summary.silent, 0u);
    EXPECT_EQ(summary.budget, 0u);
}

TEST(Trials, MedianIsLowerMedianForEvenTrialCounts) {
    // Regression test: with an even trial count the median must be the
    // *lower* of the two middle order statistics, sorted[(n - 1) / 2] — the
    // harness previously reported the upper one.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {20, 1});
    TrialOptions options;
    options.base.max_interactions = default_budget(21);
    options.base.seed = 77;
    options.trials = 4;
    options.keep_records = true;
    const TrialSummary summary = measure_trials(*protocol, initial, options);

    ASSERT_EQ(summary.records.size(), 4u);
    std::vector<std::uint64_t> sorted;
    for (const TrialRecord& record : summary.records) sorted.push_back(record.last_output_change);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(summary.median_convergence, sorted[1]);  // lower middle of 4
    EXPECT_EQ(summary.min_convergence, sorted.front());
    EXPECT_EQ(summary.max_convergence, sorted.back());
}

TEST(Trials, RecordsAreRetainedInTrialOrder) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 5});
    TrialOptions options;
    options.base.max_interactions = default_budget(15);
    options.base.seed = 100;
    options.trials = 6;
    options.keep_records = true;

    options.threads = 1;
    const TrialSummary sequential = measure_trials(*protocol, initial, options);
    options.threads = 3;
    const TrialSummary parallel = measure_trials(*protocol, initial, options);

    ASSERT_EQ(sequential.records.size(), 6u);
    ASSERT_EQ(parallel.records.size(), 6u);
    for (std::size_t t = 0; t < 6; ++t) {
        // records[t] is trial t (seed base.seed + t) at any thread count.
        EXPECT_EQ(parallel.records[t].stop_reason, sequential.records[t].stop_reason) << t;
        EXPECT_EQ(parallel.records[t].consensus, sequential.records[t].consensus) << t;
        EXPECT_EQ(parallel.records[t].last_output_change,
                  sequential.records[t].last_output_change)
            << t;
        EXPECT_EQ(parallel.records[t].interactions, sequential.records[t].interactions) << t;
        EXPECT_EQ(parallel.records[t].effective_interactions,
                  sequential.records[t].effective_interactions)
            << t;
    }

    // Records are off by default.
    options.keep_records = false;
    EXPECT_TRUE(measure_trials(*protocol, initial, options).records.empty());
}

TEST(Trials, ObserverFactoryDeliversPerTrialObservers) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {60, 4});
    TrialOptions options;
    options.base.max_interactions = default_budget(64);
    options.base.seed = 40;
    options.base.snapshots = SnapshotSchedule::every(128);
    options.trials = 6;
    options.keep_records = true;

    std::vector<TraceRecorder> recorders(options.trials);
    options.observer_factory = [&](std::uint64_t trial) { return &recorders[trial]; };

    options.threads = 3;
    const TrialSummary summary = measure_trials(*protocol, initial, options);

    ASSERT_EQ(summary.records.size(), 6u);
    for (std::size_t t = 0; t < recorders.size(); ++t) {
        // Recorder t saw exactly trial t's run: matching interaction count
        // and the shared initial configuration.
        ASSERT_TRUE(recorders[t].finished()) << t;
        EXPECT_EQ(recorders[t].result()->interactions, summary.records[t].interactions) << t;
        EXPECT_EQ(recorders[t].initial_counts(), initial.counts()) << t;
    }

    // The factory takes precedence over base.observer, which stays unused.
    TraceRecorder ignored;
    options.base.observer = &ignored;
    std::vector<TraceRecorder> fresh(options.trials);
    options.observer_factory = [&](std::uint64_t trial) { return &fresh[trial]; };
    measure_trials(*protocol, initial, options);
    EXPECT_FALSE(ignored.finished());
    EXPECT_TRUE(fresh.front().finished());
}

TEST(Trials, Validation) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {2, 2});
    TrialOptions options;
    options.base.max_interactions = 1000;
    options.trials = 0;
    EXPECT_THROW(measure_trials(*protocol, initial, options), std::invalid_argument);
}

}  // namespace
}  // namespace popproto
