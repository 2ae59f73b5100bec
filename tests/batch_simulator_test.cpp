// The count-based batch simulation engine: agreement with the agent-array
// reference simulator, exact silence detection, null-interaction skipping,
// and the stop rules.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_count_batch;

/// A protocol that reaches output consensus quickly but keeps churning its
/// state multiset forever at a low rate, for exercising the
/// stop_after_stable_outputs rule (including the batch engine's jump over
/// the stability window).  States: I (inert), P / P2 (a two-state
/// oscillator driven by meetings with the single Q agent), Q, and Z (the
/// only state with output "false"; meeting an inert agent converts it).
std::unique_ptr<TabulatedProtocol> make_churn_protocol() {
    const State kI = 0, kP = 1, kP2 = 2, kQ = 3, kZ = 4;
    TabulatedProtocol::Tables tables;
    tables.initial = {kI, kP, kQ, kZ};
    tables.output = {1, 1, 1, 1, 0};
    tables.num_output_symbols = 2;
    tables.delta.resize(25);
    for (State p = 0; p < 5; ++p)
        for (State q = 0; q < 5; ++q) tables.delta[p * 5 + q] = {p, q};
    tables.delta[kZ * 5 + kI] = {kI, kI};
    tables.delta[kI * 5 + kZ] = {kI, kI};
    tables.delta[kP * 5 + kQ] = {kP2, kQ};
    tables.delta[kP2 * 5 + kQ] = {kP, kQ};
    tables.delta[kQ * 5 + kP] = {kQ, kP2};
    tables.delta[kQ * 5 + kP2] = {kQ, kP};
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

TEST(BatchSimulator, AgreesWithReferenceOnCounting) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {55, 9});
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        RunOptions options;
        options.max_interactions = default_budget(64);
        options.seed = seed;
        const RunResult reference = simulate(*protocol, initial, options);
        const RunResult batch = run_count_batch(*protocol, initial, options);
        EXPECT_EQ(reference.stop_reason, StopReason::kSilent) << seed;
        EXPECT_EQ(batch.stop_reason, StopReason::kSilent) << seed;
        ASSERT_TRUE(reference.consensus && batch.consensus) << seed;
        EXPECT_EQ(*batch.consensus, *reference.consensus) << seed;
        EXPECT_EQ(*batch.consensus, kOutputTrue) << seed;
    }
}

TEST(BatchSimulator, AgreesWithReferenceOnMajority) {
    const auto protocol = make_threshold_protocol({1, -1}, 0);  // x0 < x1
    for (const auto& [zeros, ones] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{{20, 30}, {30, 20}}) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {zeros, ones});
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            RunOptions options;
            options.max_interactions = default_budget(50, 256.0);
            options.seed = seed;
            const RunResult reference = simulate(*protocol, initial, options);
            const RunResult batch = run_count_batch(*protocol, initial, options);
            ASSERT_TRUE(reference.consensus && batch.consensus) << zeros << "," << seed;
            EXPECT_EQ(*batch.consensus, *reference.consensus) << zeros << "," << seed;
            EXPECT_EQ(*batch.consensus, zeros < ones ? kOutputTrue : kOutputFalse);
        }
    }
}

TEST(BatchSimulator, AgreesWithReferenceOnEpidemic) {
    // The epidemic has a unique silent configuration (everyone infected),
    // so the engines must agree on the exact final counts as well.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {30, 1});
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        RunOptions options;
        options.max_interactions = default_budget(31);
        options.seed = seed;
        const RunResult reference = simulate(*protocol, initial, options);
        const RunResult batch = run_count_batch(*protocol, initial, options);
        EXPECT_EQ(reference.stop_reason, StopReason::kSilent) << seed;
        EXPECT_EQ(batch.stop_reason, StopReason::kSilent) << seed;
        EXPECT_EQ(batch.final_configuration, reference.final_configuration) << seed;
    }
}

TEST(BatchSimulator, ConvergenceTimeMatchesEpidemicClosedForm) {
    // Distribution equivalence beyond the verdict: the mean completion time
    // of the epidemic under the batch engine lands on the same closed form
    // the agent-array engine is validated against in trials_test.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {30, 1});
    const double expected = epidemic_expected_interactions(31, 1);
    double total = 0.0;
    const int trials = 40;
    for (int trial = 0; trial < trials; ++trial) {
        RunOptions options;
        options.max_interactions = default_budget(31);
        options.seed = 1000 + trial;
        const RunResult result = run_count_batch(*protocol, initial, options);
        EXPECT_EQ(result.stop_reason, StopReason::kSilent);
        total += static_cast<double>(result.last_output_change);
    }
    EXPECT_NEAR(total / trials, expected, 0.35 * expected);
}

TEST(BatchSimulator, AlreadySilentConfigurationStopsImmediately) {
    const auto protocol = make_counting_protocol(5);
    CountConfiguration initial(protocol->num_states());
    initial.add(0, 10);  // ten agents in q_0: (q_0, q_0) -> (q_0, q_0)
    RunOptions options;
    options.max_interactions = 1000;
    const RunResult batch = run_count_batch(*protocol, initial, options);
    EXPECT_EQ(batch.stop_reason, StopReason::kSilent);
    EXPECT_EQ(batch.interactions, 0u);
    EXPECT_EQ(batch.effective_interactions, 0u);
}

TEST(BatchSimulator, NullSkipMakesSparseEffectivePairsCheap) {
    // Two token holders among 1000 agents: the reference engine needs
    // ~n^2/2 draws just to make them meet; the batch engine jumps the null
    // runs, so the reported interactions vastly exceed the effective ones.
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {998, 2});
    RunOptions options;
    options.max_interactions = default_budget(1000);
    options.seed = 3;
    const RunResult batch = run_count_batch(*protocol, initial, options);
    EXPECT_EQ(batch.stop_reason, StopReason::kSilent);
    ASSERT_TRUE(batch.consensus.has_value());
    EXPECT_EQ(*batch.consensus, kOutputTrue);
    // Exactly one merge plus the alert epidemic: ~n effective interactions,
    // but the merge alone waits ~n^2/2 interactions in expectation.
    EXPECT_LT(batch.effective_interactions, 5000u);
    EXPECT_GT(batch.interactions, 20u * batch.effective_interactions);
}

TEST(BatchSimulator, BudgetStopsAtExactInteractionCount) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {30, 1});
    RunOptions options;
    options.max_interactions = 25;  // far below the ~160 needed to finish
    options.seed = 9;
    const RunResult batch = run_count_batch(*protocol, initial, options);
    EXPECT_EQ(batch.stop_reason, StopReason::kBudget);
    EXPECT_EQ(batch.interactions, 25u);
}

TEST(BatchSimulator, StableOutputStopMatchesReferenceSemantics) {
    // Both engines must stop exactly `window` interactions after the last
    // output change; for the batch engine the window is crossed inside a
    // geometric null jump (the churn pair has probability ~2/n^2).
    const auto protocol = make_churn_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {61, 1, 1, 1});
    const std::uint64_t window = 4096;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        RunOptions options;
        options.max_interactions = default_budget(64, 256.0);
        options.stop_after_stable_outputs = window;
        options.seed = seed;
        const RunResult reference = simulate(*protocol, initial, options);
        const RunResult batch = run_count_batch(*protocol, initial, options);
        EXPECT_EQ(reference.stop_reason, StopReason::kStableOutputs) << seed;
        EXPECT_EQ(batch.stop_reason, StopReason::kStableOutputs) << seed;
        EXPECT_EQ(reference.interactions, reference.last_output_change + window) << seed;
        EXPECT_EQ(batch.interactions, batch.last_output_change + window) << seed;
        ASSERT_TRUE(reference.consensus && batch.consensus) << seed;
        EXPECT_EQ(*batch.consensus, *reference.consensus) << seed;
    }
}

TEST(BatchSimulator, DeterministicGivenSeed) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {40, 8});
    RunOptions options;
    options.max_interactions = default_budget(48);
    options.seed = 77;
    const RunResult a = run_count_batch(*protocol, initial, options);
    const RunResult b = run_count_batch(*protocol, initial, options);
    EXPECT_EQ(a.interactions, b.interactions);
    EXPECT_EQ(a.effective_interactions, b.effective_interactions);
    EXPECT_EQ(a.last_output_change, b.last_output_change);
    EXPECT_EQ(a.final_configuration, b.final_configuration);
}

TEST(BatchSimulator, RunSimulationDispatchesOnEngine) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 5});
    RunOptions options;
    options.max_interactions = default_budget(15);
    options.seed = 4;
    options.engine = SimulationEngine::kCountBatch;
    const RunResult batch = run_simulation(*protocol, initial, options);
    EXPECT_EQ(batch.engine, ObservedEngine::kCountBatch);
    options.engine = SimulationEngine::kAgentArray;
    const RunResult reference = run_simulation(*protocol, initial, options);
    // Same seed, same engine => identical to the direct agent-array entry.
    const RunResult direct_reference = simulate(*protocol, initial, options);
    EXPECT_EQ(reference.engine, ObservedEngine::kAgentArray);
    EXPECT_EQ(reference.interactions, direct_reference.interactions);
    EXPECT_EQ(reference.final_configuration, direct_reference.final_configuration);
    // `simulate` refuses a RunOptions that names another engine instead of
    // silently running the agent array.
    options.engine = SimulationEngine::kCountBatch;
    EXPECT_THROW(simulate(*protocol, initial, options), std::invalid_argument);
    options.engine = SimulationEngine::kAuto;
    EXPECT_NO_THROW(simulate(*protocol, initial, options));
}

TEST(BatchSimulator, Validation) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 5});
    RunOptions options;
    // max_interactions == 0 resolves to default_budget(n) instead of being
    // rejected; the counting protocol falls silent well inside that budget.
    options.max_interactions = 0;
    EXPECT_EQ(run_count_batch(*protocol, initial, options).stop_reason, StopReason::kSilent);
    options.max_interactions = 100;
    CountConfiguration lonely(protocol->num_states());
    lonely.add(0, 1);
    EXPECT_THROW(run_count_batch(*protocol, lonely, options), std::invalid_argument);
    const auto other = make_counting_protocol(7);
    const auto mismatched = CountConfiguration::from_input_counts(*other, {4, 4});
    EXPECT_THROW(run_count_batch(*protocol, mismatched, options), std::invalid_argument);
}

}  // namespace
}  // namespace popproto
