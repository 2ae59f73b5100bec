// Engine parity under observation.
//
// The agent-array, count-batch, and collapsed engines intentionally consume
// different RNG streams (batch_simulator.h: "a fixed seed yields a
// different, equally valid trajectory"), so a same-seed run cannot produce
// pathwise-identical count vectors across engines.  This file verifies the
// strongest parity that *is* true, which together pins down the observation
// contract:
//
//  1. Snapshot *indices* are identical across engines for budget-pinned
//     runs: the schedule is deterministic and trajectory-independent, and
//     every engine emits every scheduled index up to the stop index — the
//     batch engine by clamping its geometric null jumps at snapshot
//     boundaries, the collapsed engine by clamping its super-steps there.
//  2. Per-engine snapshot *count vectors* are exact: the snapshot at index
//     k equals the final configuration of the same-seed run truncated at
//     max_interactions = k (the truncated run replays an identical RNG
//     prefix).  For the batch engine this directly validates the clamping
//     logic — most tested indices fall inside null jumps.  For the
//     collapsed engine the truncated run must keep the identical snapshot
//     schedule: super-step boundaries shape the stream itself, so only a
//     replay with the same boundary sequence is bit-identical
//     (collapsed_simulator.h — equivalence across *different* observation
//     setups is distributional, which is what test 3 checks).
//  3. Across engines the trajectories agree *distributionally*: the mean
//     epidemic infection level at a fixed snapshot index matches across all
//     three engines over many seeds.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_simulator.h"
#include "core/observer.h"
#include "core/simulator.h"
#include "observe/trace_recorder.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"

namespace popproto {
namespace {

struct ParityCase {
    std::string name;
    std::unique_ptr<TabulatedProtocol> protocol;
    CountConfiguration initial;
    std::uint64_t budget;  // chosen so runs stay budget-limited (no stop rule fires first)
};

std::vector<ParityCase> parity_cases() {
    std::vector<ParityCase> cases;
    {
        auto protocol = make_counting_protocol(5);
        auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
        cases.push_back({"counting", std::move(protocol), std::move(initial), 500});
    }
    {
        // Majority-style threshold atom: [ x_0 - x_1 < 0 ].
        auto protocol = make_threshold_protocol({1, -1}, 0);
        auto initial = CountConfiguration::from_input_counts(*protocol, {20, 30});
        cases.push_back({"majority", std::move(protocol), std::move(initial), 700});
    }
    {
        auto protocol = make_epidemic_protocol();
        auto initial = CountConfiguration::from_input_counts(*protocol, {63, 1});
        cases.push_back({"epidemic", std::move(protocol), std::move(initial), 120});
    }
    return cases;
}

constexpr SimulationEngine kParityEngines[] = {SimulationEngine::kAgentArray,
                                               SimulationEngine::kCountBatch,
                                               SimulationEngine::kCollapsedBatch};

const char* engine_label(SimulationEngine engine) {
    switch (engine) {
        case SimulationEngine::kAgentArray: return "agent_array";
        case SimulationEngine::kCountBatch: return "count_batch";
        case SimulationEngine::kCollapsedBatch: return "collapsed";
        case SimulationEngine::kAdaptive: return "adaptive";
        case SimulationEngine::kAuto: return "auto";
    }
    return "?";
}

RunResult run_engine(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                     SimulationEngine engine, RunOptions options) {
    options.engine = engine;
    return run_simulation(protocol, initial, options);
}

std::vector<std::uint64_t> snapshot_indices(const TraceRecorder& recorder) {
    std::vector<std::uint64_t> indices;
    indices.reserve(recorder.snapshots().size());
    for (const TraceSnapshot& snapshot : recorder.snapshots())
        indices.push_back(snapshot.interaction_index);
    return indices;
}

/// All scheduled indices <= limit, straight from the schedule definition.
std::vector<std::uint64_t> expected_indices(const SnapshotSchedule& schedule,
                                            std::uint64_t limit) {
    std::vector<std::uint64_t> indices;
    for (std::uint64_t index = schedule.first_index(); index <= limit;
         index = schedule.next_after(index)) {
        indices.push_back(index);
    }
    return indices;
}

TEST(EngineParity, SnapshotIndicesAgreeAcrossEngines) {
    const std::vector<SnapshotSchedule> schedules = {SnapshotSchedule::every(97),
                                                     SnapshotSchedule::log_spaced(1.6, 5)};
    for (const ParityCase& test_case : parity_cases()) {
        for (std::size_t s = 0; s < schedules.size(); ++s) {
            SCOPED_TRACE(test_case.name + ", schedule " + std::to_string(s));

            RunOptions options;
            options.max_interactions = test_case.budget;
            options.seed = 42;
            options.snapshots = schedules[s];

            const std::vector<std::uint64_t> expected =
                expected_indices(schedules[s], test_case.budget);
            for (const SimulationEngine engine : kParityEngines) {
                SCOPED_TRACE(engine_label(engine));
                TraceRecorder trace;
                options.observer = &trace;
                const RunResult result =
                    run_engine(*test_case.protocol, test_case.initial, engine, options);

                // Budget-pinned by construction: every engine ran the full
                // budget, so every engine saw the complete scheduled prefix.
                ASSERT_EQ(result.stop_reason, StopReason::kBudget);
                ASSERT_EQ(result.interactions, test_case.budget);
                EXPECT_EQ(snapshot_indices(trace), expected);

                // Snapshots of every engine describe the same population.
                for (const TraceSnapshot& snapshot : trace.snapshots()) {
                    std::uint64_t total = 0;
                    for (const std::uint64_t count : snapshot.counts) total += count;
                    EXPECT_EQ(total, test_case.initial.population_size());
                }
            }
        }
    }
}

TEST(EngineParity, SnapshotsEqualTruncatedRunFinalConfigurations) {
    // The snapshot at index k must equal the final configuration of the
    // same-seed run truncated at max_interactions = k: the truncated run
    // consumes an identical RNG prefix, so any mismatch means observation
    // perturbed the run or a snapshot was stamped at the wrong index.  For
    // the batch engine most k fall inside geometric null jumps, so this is
    // the sharpest test of the jump-clamping logic.
    //
    // The collapsed engine's prefix identity is conditional: super-step
    // clamping shapes the RNG stream, so the truncated run must keep the
    // identical snapshot schedule (every scheduled index <= k is a clamp
    // boundary in both runs, and k itself clamps the crossing super-step —
    // as the budget in the truncated run, as a snapshot in the observed
    // one).  Dropping the schedule, as the per-interaction engines may,
    // would change the boundary sequence and yield a different (equally
    // valid) trajectory.
    for (const ParityCase& test_case : parity_cases()) {
        for (const SimulationEngine engine : kParityEngines) {
            SCOPED_TRACE(test_case.name + ", " + engine_label(engine));

            RunOptions options;
            options.max_interactions = test_case.budget;
            options.seed = 271828;
            options.snapshots = SnapshotSchedule::log_spaced(1.5, 8);

            TraceRecorder recorder;
            options.observer = &recorder;
            run_engine(*test_case.protocol, test_case.initial, engine, options);
            ASSERT_FALSE(recorder.snapshots().empty());

            for (const TraceSnapshot& snapshot : recorder.snapshots()) {
                RunOptions truncated = options;
                TraceRecorder replay_trace;
                if (engine == SimulationEngine::kCollapsedBatch) {
                    truncated.observer = &replay_trace;  // keep the schedule
                } else {
                    truncated.observer = nullptr;
                    truncated.snapshots = SnapshotSchedule();
                }
                truncated.max_interactions = snapshot.interaction_index;
                const RunResult replay =
                    run_engine(*test_case.protocol, test_case.initial, engine, truncated);
                ASSERT_EQ(replay.interactions, snapshot.interaction_index);
                EXPECT_EQ(replay.final_configuration.counts(), snapshot.counts)
                    << "snapshot at index " << snapshot.interaction_index
                    << " does not match the truncated replay";
            }
        }
    }
}

TEST(EngineParity, EpidemicTrajectoriesAgreeDistributionally) {
    // Same-seed pathwise equality across engines is impossible (different
    // RNG streams); what must hold is that the *distribution* of the
    // trajectory agrees.  Compare the mean infected count at a fixed
    // snapshot index over many seeds.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {99, 1});
    constexpr std::uint64_t kSnapshotIndex = 300;
    constexpr int kSeeds = 40;

    const auto mean_infected_at_snapshot = [&](SimulationEngine engine) {
        double total = 0.0;
        for (int seed = 1; seed <= kSeeds; ++seed) {
            TraceRecorder recorder;
            RunOptions options;
            options.max_interactions = kSnapshotIndex;
            options.seed = static_cast<std::uint64_t>(seed);
            options.observer = &recorder;
            options.snapshots = SnapshotSchedule::every(kSnapshotIndex);
            const RunResult result = run_engine(*protocol, initial, engine, options);
            if (!recorder.snapshots().empty()) {
                // Budget == snapshot index: one snapshot, at the budget.
                EXPECT_EQ(recorder.snapshots().front().interaction_index, kSnapshotIndex);
                total += static_cast<double>(recorder.snapshots().front().counts[1]);
            } else {
                // The batch engine detects silence exactly and may stop
                // before the snapshot; a silent configuration is frozen, so
                // its counts are the configuration at the snapshot index too.
                EXPECT_EQ(result.stop_reason, StopReason::kSilent);
                total += static_cast<double>(result.final_configuration.counts()[1]);
            }
        }
        return total / kSeeds;
    };

    const double agent_mean = mean_infected_at_snapshot(SimulationEngine::kAgentArray);
    EXPECT_GT(agent_mean, 1.0);
    for (const SimulationEngine engine :
         {SimulationEngine::kCountBatch, SimulationEngine::kCollapsedBatch}) {
        const double engine_mean = mean_infected_at_snapshot(engine);
        EXPECT_GT(engine_mean, 1.0);
        EXPECT_NEAR(agent_mean, engine_mean, 0.15 * agent_mean)
            << "agent_array mean " << agent_mean << " vs " << engine_label(engine)
            << " mean " << engine_mean;
    }
}

}  // namespace
}  // namespace popproto
