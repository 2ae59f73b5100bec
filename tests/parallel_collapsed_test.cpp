// Intra-run parallelism: the sharded collapsed engine and its thread pool
// (core/collapsed_simulator.cpp, core/thread_pool.h).
//
// Three contracts are under test:
//
//  * Distribution identity.  For every shard count K the sharded engine
//    must sample final configurations from exactly the law of the uniform
//    ordered-pair chain; the exact-DP + chi-square harness of
//    collapsed_simulator_test is re-run here with K in {2, 3} under
//    several observation setups (boundary clamps and sharded batches must
//    compose).
//  * Determinism.  Fixed (seed, K) is bit-identical across repetitions and
//    checkpoint cuts — including the serialized shard streams surviving a
//    text round-trip — while a thread request on a sequential engine, a
//    cross-engine resume, or a shard-count mismatch is rejected loudly.
//  * Composition.  run_simulation pins the collapsed engine for threads >
//    1; measure_trials honours an explicit per-run thread count in every
//    trial so summaries stay bit-identical across trial fan-outs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_simulator.h"
#include "core/observer.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "core/thread_pool.h"
#include "observe/trace_recorder.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "randomized/trials.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::chi_square_gof;
using testutil::ChiSquareResult;
using testutil::run_collapsed;
using testutil::run_count_batch;

using CountVector = std::vector<std::uint64_t>;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ExecutesEveryTaskExactlyOnce) {
    for (const std::size_t size : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        ThreadPool pool(size);
        EXPECT_EQ(pool.size(), size);
        for (const std::size_t tasks : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                        std::size_t{100}}) {
            std::vector<std::atomic<int>> hits(tasks);
            for (auto& hit : hits) hit = 0;
            pool.run(tasks, [&](std::size_t task) { ++hits[task]; });
            for (std::size_t task = 0; task < tasks; ++task)
                EXPECT_EQ(hits[task], 1) << "size=" << size << " tasks=" << tasks
                                         << " task=" << task;
        }
    }
}

TEST(ThreadPool, ReusableAcrossManyRounds) {
    // The fork-merge barrier is reused thousands of times per run; hammer
    // the round machinery (stale-round protection included) with quick
    // successive rounds.
    ThreadPool pool(4);
    std::atomic<std::uint64_t> total{0};
    for (int round = 0; round < 500; ++round)
        pool.run(4, [&](std::size_t task) { total += task + 1; });
    EXPECT_EQ(total, 500u * (1 + 2 + 3 + 4));
}

TEST(ThreadPool, RunsEveryTaskAndRethrowsFirstExceptionAfterTheBarrier) {
    for (const std::size_t size : {std::size_t{1}, std::size_t{3}}) {
        ThreadPool pool(size);
        std::vector<std::atomic<int>> hits(8);
        for (auto& hit : hits) hit = 0;
        const auto faulty = [&](std::size_t task) {
            ++hits[task];
            if (task % 2 == 1) throw std::runtime_error("task failed");
        };
        EXPECT_THROW(pool.run(8, faulty), std::runtime_error);
        // The barrier completes the round: no task is abandoned.
        for (std::size_t task = 0; task < 8; ++task) EXPECT_EQ(hits[task], 1);
        // The pool survives a failed round.
        std::atomic<int> ok{0};
        pool.run(3, [&](std::size_t) { ++ok; });
        EXPECT_EQ(ok, 3);
    }
}

TEST(ThreadPool, RejectsZeroSize) {
    EXPECT_THROW(ThreadPool pool(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Distribution identity of the sharded engine

class CollectingSink final : public CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        checkpoints.push_back(checkpoint);
    }
    std::vector<RunCheckpoint> checkpoints;
};

enum class ObservationSetup { kUnobserved, kSnapshotEveryOne, kSnapshotEveryTwo, kCheckpointed };

const char* setup_label(ObservationSetup setup) {
    switch (setup) {
        case ObservationSetup::kUnobserved: return "unobserved";
        case ObservationSetup::kSnapshotEveryOne: return "snapshot_every_1";
        case ObservationSetup::kSnapshotEveryTwo: return "snapshot_every_2";
        case ObservationSetup::kCheckpointed: return "checkpoint_every_2";
    }
    return "?";
}

void expect_matches_exact_law(const TabulatedProtocol& protocol, const CountVector& initial_counts,
                              std::uint64_t steps, unsigned threads, ObservationSetup setup) {
    SCOPED_TRACE(std::string(setup_label(setup)) + " threads=" + std::to_string(threads));
    const auto exact = testutil::exact_chain_distribution(protocol, initial_counts, steps);
    const auto initial = CountConfiguration::from_state_counts(initial_counts);

    constexpr std::uint64_t kRuns = 4000;
    std::map<CountVector, std::uint64_t> tally;
    for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
        RunOptions options;
        options.max_interactions = steps;
        options.seed = seed;
        options.threads = threads;
        TraceRecorder recorder;
        CollectingSink sink;
        switch (setup) {
            case ObservationSetup::kUnobserved: break;
            case ObservationSetup::kSnapshotEveryOne:
                options.observer = &recorder;
                options.snapshots = SnapshotSchedule::every(1);
                break;
            case ObservationSetup::kSnapshotEveryTwo:
                options.observer = &recorder;
                options.snapshots = SnapshotSchedule::every(2);
                break;
            case ObservationSetup::kCheckpointed:
                options.checkpoint_every = 2;
                options.checkpoint_sink = &sink;
                break;
        }
        const RunResult result = run_collapsed(protocol, initial, options);
        EXPECT_EQ(result.engine, ObservedEngine::kParallelCollapsed);
        ++tally[result.final_configuration.counts()];
    }

    std::vector<std::uint64_t> observed;
    std::vector<double> expected;
    for (const auto& [config, prob] : exact) {
        const auto it = tally.find(config);
        observed.push_back(it == tally.end() ? 0 : it->second);
        expected.push_back(prob);
        if (it != tally.end()) tally.erase(it);
    }
    EXPECT_TRUE(tally.empty()) << tally.size() << " configurations outside the exact support";

    const ChiSquareResult gof = chi_square_gof(observed, expected, kRuns);
    EXPECT_TRUE(gof.pass) << gof.summary();
}

TEST(ParallelCollapsedExactLaw, EpidemicMatchesEnumeratedDistribution) {
    // n = 5 with K shards of a handful of deferred pairs each: shard loads
    // D_k are mostly 0 or 1, so the pool-split cascade and the per-shard
    // matching run at the boundary of their supports, after events that
    // realized most pairs one by one.
    const auto protocol = make_epidemic_protocol();
    const CountVector initial = {4, 1};
    for (const unsigned threads : {2u, 3u}) {
        for (const ObservationSetup setup :
             {ObservationSetup::kUnobserved, ObservationSetup::kSnapshotEveryOne,
              ObservationSetup::kCheckpointed}) {
            expect_matches_exact_law(*protocol, initial, /*steps=*/6, threads, setup);
        }
    }
}

TEST(ParallelCollapsedExactLaw, MajorityMatchesEnumeratedDistribution) {
    // Multi-state threshold atom: shard cascades over more than two states.
    const auto protocol = make_threshold_protocol({1, -1}, 0);
    const auto config = CountConfiguration::from_input_counts(*protocol, {2, 3});
    expect_matches_exact_law(*protocol, config.counts(), /*steps=*/5, /*threads=*/2,
                             ObservationSetup::kUnobserved);
    expect_matches_exact_law(*protocol, config.counts(), /*steps=*/5, /*threads=*/3,
                             ObservationSetup::kCheckpointed);
}

// The serial engine's every-event-class cases (collapsed_simulator_test.cpp)
// with the bulk realization sharded: the shards carve what the events left
// of P.
TEST(ParallelCollapsedExactLaw, PairMarkingAtSixAndEightAgents) {
    const auto protocol = testutil::make_pair_marking_protocol();
    for (const unsigned threads : {2u, 3u}) {
        for (const ObservationSetup setup :
             {ObservationSetup::kUnobserved, ObservationSetup::kSnapshotEveryOne,
              ObservationSetup::kSnapshotEveryTwo, ObservationSetup::kCheckpointed}) {
            expect_matches_exact_law(*protocol, {6, 0, 0, 0}, /*steps=*/4, threads, setup);
            expect_matches_exact_law(*protocol, {8, 0, 0, 0}, /*steps=*/5, threads, setup);
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism and checkpoint/resume

void expect_same_run(const RunResult& actual, const RunResult& expected) {
    EXPECT_EQ(actual.stop_reason, expected.stop_reason);
    EXPECT_EQ(actual.interactions, expected.interactions);
    EXPECT_EQ(actual.effective_interactions, expected.effective_interactions);
    EXPECT_EQ(actual.last_output_change, expected.last_output_change);
    EXPECT_EQ(actual.final_configuration, expected.final_configuration);
    EXPECT_EQ(actual.consensus, expected.consensus);
    EXPECT_EQ(actual.engine, expected.engine);
}

TEST(ParallelCollapsed, FixedSeedAndThreadCountIsReproducible) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {900, 24});
    RunOptions options;
    options.seed = 17;
    options.threads = 3;
    const RunResult first = run_collapsed(*protocol, initial, options);
    const RunResult second = run_collapsed(*protocol, initial, options);
    EXPECT_EQ(first.engine, ObservedEngine::kParallelCollapsed);
    expect_same_run(second, first);
    // The epidemic invariant holds through sharded batches: every effective
    // interaction infects exactly one susceptible.
    EXPECT_EQ(first.stop_reason, StopReason::kSilent);
    EXPECT_EQ(first.effective_interactions, 900u);
}

TEST(ParallelCollapsed, ThreadsOneIsTheSerialEngine) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {200, 8});
    RunOptions options;
    options.seed = 23;
    const RunResult baseline = run_collapsed(*protocol, initial, options);
    options.threads = 1;
    const RunResult explicit_one = run_collapsed(*protocol, initial, options);
    EXPECT_EQ(explicit_one.engine, ObservedEngine::kCollapsed);
    expect_same_run(explicit_one, baseline);
}

TEST(ParallelCollapsedCheckpointResume, BitIdenticalAgainstCheckpointedBaseline) {
    // Same harness as the serial engine's checkpoint test: the baseline must
    // itself be checkpointed (boundaries clamp super-steps), and every cut —
    // through a text round-trip, shard streams included — must replay the
    // identical suffix.
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
    RunOptions options;
    options.seed = 11;
    options.max_interactions = 600;
    options.threads = 3;

    CollectingSink sink;
    options.checkpoint_every = 7;
    options.checkpoint_sink = &sink;
    const RunResult baseline = run_collapsed(*protocol, initial, options);
    EXPECT_EQ(baseline.engine, ObservedEngine::kParallelCollapsed);
    ASSERT_FALSE(sink.checkpoints.empty());

    for (const RunCheckpoint& checkpoint : sink.checkpoints) {
        EXPECT_EQ(checkpoint.engine, ObservedEngine::kParallelCollapsed);
        ASSERT_EQ(checkpoint.shard_rngs.size(), 3u);
        // The text grammar round-trips the shard streams exactly.
        const RunCheckpoint reloaded = checkpoint_from_string(checkpoint_to_string(checkpoint));
        EXPECT_EQ(reloaded, checkpoint);

        CollectingSink resumed_sink;
        RunOptions resumed = options;
        resumed.checkpoint_sink = &resumed_sink;
        resumed.resume_from = &reloaded;
        expect_same_run(run_collapsed(*protocol, initial, resumed), baseline);

        std::vector<RunCheckpoint> expected_suffix;
        for (const RunCheckpoint& later : sink.checkpoints)
            if (later.interactions > checkpoint.interactions) expected_suffix.push_back(later);
        EXPECT_EQ(resumed_sink.checkpoints, expected_suffix)
            << "resumed from cut at " << checkpoint.interactions;
    }
}

TEST(ParallelCollapsedCheckpointResume, RejectsMismatchedShardCounts) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {40, 6});
    RunOptions options;
    options.seed = 3;
    options.max_interactions = 200;
    options.threads = 3;
    CollectingSink sink;
    options.checkpoint_every = 20;
    options.checkpoint_sink = &sink;
    run_collapsed(*protocol, initial, options);
    ASSERT_FALSE(sink.checkpoints.empty());
    const RunCheckpoint parallel_checkpoint = sink.checkpoints.front();

    // Same engine, wrong K.
    RunOptions resume;
    resume.resume_from = &parallel_checkpoint;
    resume.threads = 2;
    EXPECT_THROW(run_collapsed(*protocol, initial, resume), std::invalid_argument);
    // A parallel checkpoint cannot resume on the serial engine...
    resume.threads = 1;
    EXPECT_THROW(run_collapsed(*protocol, initial, resume), std::invalid_argument);

    // ...and a serial checkpoint cannot resume on the parallel engine.
    sink.checkpoints.clear();
    options.threads = 1;
    run_collapsed(*protocol, initial, options);
    ASSERT_FALSE(sink.checkpoints.empty());
    EXPECT_TRUE(sink.checkpoints.front().shard_rngs.empty());
    resume.resume_from = &sink.checkpoints.front();
    resume.threads = 3;
    EXPECT_THROW(run_collapsed(*protocol, initial, resume), std::invalid_argument);
}

TEST(ParallelCollapsedCheckpointResume, StopBeforeTheFirstSuperStepPausesAndResumes) {
    // A stop flag raised before the run starts (a daemon suspend or drain
    // landing in a session's first quantum) checkpoints at the first loop
    // top, before any shard stream is carved.  The run must pause there,
    // and the checkpoint must resume into the uninterrupted run.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {900, 24});
    RunOptions options;
    options.seed = 19;
    options.threads = 2;
    const RunResult uninterrupted = run_collapsed(*protocol, initial, options);
    ASSERT_EQ(uninterrupted.engine, ObservedEngine::kParallelCollapsed);

    std::atomic<bool> stop{true};
    CollectingSink sink;
    RunOptions stopped = options;
    stopped.stop_flag = &stop;
    stopped.checkpoint_sink = &sink;
    const RunResult paused = run_collapsed(*protocol, initial, stopped);
    EXPECT_EQ(paused.stop_reason, StopReason::kPaused);
    EXPECT_EQ(paused.interactions, 0u);
    ASSERT_EQ(sink.checkpoints.size(), 1u);
    EXPECT_EQ(sink.checkpoints.front().engine, ObservedEngine::kParallelCollapsed);
    EXPECT_TRUE(sink.checkpoints.front().shard_rngs.empty());

    std::stringstream file;
    write_checkpoint(file, sink.checkpoints.front());
    const RunCheckpoint reloaded = read_checkpoint(file);
    EXPECT_EQ(reloaded, sink.checkpoints.front());
    RunOptions resumed = options;
    resumed.resume_from = &reloaded;
    expect_same_run(run_collapsed(*protocol, initial, resumed), uninterrupted);
}

// ---------------------------------------------------------------------------
// Thread-count plumbing across entry points

TEST(ThreadOptions, SequentialEnginesRejectThreadRequests) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {20, 2});
    RunOptions options;
    options.seed = 4;
    options.max_interactions = 50;
    options.threads = 2;
    EXPECT_THROW(simulate(*protocol, initial, options), std::invalid_argument);
    EXPECT_THROW(run_count_batch(*protocol, initial, options), std::invalid_argument);
    // threads == 0 (auto) is accepted by sequential engines — it resolves
    // to a serial run rather than an error.
    options.threads = 0;
    EXPECT_NO_THROW(simulate(*protocol, initial, options));
    EXPECT_NO_THROW(run_count_batch(*protocol, initial, options));
}

TEST(ThreadOptions, RunSimulationPinsCollapsedForThreadRequests) {
    // Far below every auto-selection threshold, threads > 1 must still
    // land on the (sharded) collapsed engine instead of tripping the
    // sequential engines' thread check.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {60, 4});
    RunOptions options;
    options.seed = 3;
    options.max_interactions = 100;
    options.threads = 3;
    EXPECT_EQ(run_simulation(*protocol, initial, options).engine,
              ObservedEngine::kParallelCollapsed);
}

TEST(ThreadOptions, EngineNameRoundTrips) {
    EXPECT_STREQ(observed_engine_name(ObservedEngine::kParallelCollapsed), "parallel_collapsed");
    ObservedEngine parsed = ObservedEngine::kAgentArray;
    ASSERT_TRUE(observed_engine_from_name("parallel_collapsed", parsed));
    EXPECT_EQ(parsed, ObservedEngine::kParallelCollapsed);
}

TEST(ThreadOptions, TrialsHonourExplicitIntraRunThreadsAtEveryFanOut) {
    // An explicit base.threads is applied verbatim in every trial, so the
    // summary (and each record, engine included) is bit-identical across
    // trial thread counts — the oversubscription clamp only touches
    // base.threads == 0.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {120, 4});
    TrialOptions options;
    options.trials = 8;
    options.keep_records = true;
    options.base.seed = 100;
    options.base.max_interactions = 4000;
    options.base.threads = 2;

    options.threads = 1;
    const TrialSummary serial_fan = measure_trials(*protocol, initial, options);
    options.threads = 3;
    const TrialSummary parallel_fan = measure_trials(*protocol, initial, options);

    ASSERT_EQ(serial_fan.records.size(), 8u);
    for (const TrialRecord& record : serial_fan.records)
        EXPECT_EQ(record.engine, ObservedEngine::kParallelCollapsed);
    EXPECT_EQ(serial_fan.correct, parallel_fan.correct);
    EXPECT_EQ(serial_fan.silent, parallel_fan.silent);
    EXPECT_EQ(serial_fan.mean_convergence, parallel_fan.mean_convergence);
    EXPECT_EQ(serial_fan.stddev_convergence, parallel_fan.stddev_convergence);
    ASSERT_EQ(parallel_fan.records.size(), 8u);
    for (std::size_t trial = 0; trial < 8; ++trial) {
        EXPECT_EQ(serial_fan.records[trial].last_output_change,
                  parallel_fan.records[trial].last_output_change);
        EXPECT_EQ(serial_fan.records[trial].interactions,
                  parallel_fan.records[trial].interactions);
    }
}

}  // namespace
}  // namespace popproto
