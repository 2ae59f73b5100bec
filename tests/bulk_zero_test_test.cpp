// The bulk fast path for empty-counter zero tests: verdicts identical,
// interaction accounting statistically consistent with the exact path.

#include <gtest/gtest.h>

#include <cmath>

#include "machines/examples.h"
#include "randomized/population_machine.h"

namespace popproto {
namespace {

PopulationMachineOptions base_options(std::uint32_t k, std::uint64_t seed) {
    PopulationMachineOptions options;
    options.timer_parameter = k;
    options.share_capacity = 4;
    options.max_interactions = ~std::uint64_t{0} / 4;
    options.seed = seed;
    return options;
}

TEST(BulkZeroTest, VerdictsAndCountersMatchExactPath) {
    const CounterProgram program = make_multiply_program(3);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        PopulationMachineOptions exact = base_options(3, seed);
        exact.bulk_zero_test_threshold = ~std::uint64_t{0};  // never bulk
        PopulationMachineOptions bulk = base_options(3, seed);
        bulk.bulk_zero_test_threshold = 0;  // always bulk on empty counters

        const auto exact_run = run_population_counter_machine(program, {4, 0}, 20, exact);
        const auto bulk_run = run_population_counter_machine(program, {4, 0}, 20, bulk);
        ASSERT_TRUE(exact_run.halted);
        ASSERT_TRUE(bulk_run.halted);
        EXPECT_EQ(exact_run.exit_code, bulk_run.exit_code);
        // Zero-test errors only occur on nonzero counters, which both paths
        // simulate identically in structure (though along different random
        // streams); with k = 3 neither should err here.
        if (exact_run.zero_test_errors == 0 && bulk_run.zero_test_errors == 0) {
            EXPECT_EQ(exact_run.counters, bulk_run.counters);
        }
    }
}

TEST(BulkZeroTest, InteractionCountsAreStatisticallyConsistent) {
    // The countdown program ends with exactly one empty-counter zero test;
    // the bulk and exact paths must agree on its expected cost.
    const CounterProgram program = make_countdown_program();
    const std::uint64_t n = 14;
    const std::uint32_t k = 3;
    const int trials = 300;

    double exact_total = 0.0;
    double bulk_total = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
        PopulationMachineOptions exact = base_options(k, 1000 + trial);
        exact.bulk_zero_test_threshold = ~std::uint64_t{0};
        PopulationMachineOptions bulk = base_options(k, 1000 + trial);
        bulk.bulk_zero_test_threshold = 0;
        exact_total += static_cast<double>(
            run_population_counter_machine(program, {3}, n, exact).interactions);
        bulk_total += static_cast<double>(
            run_population_counter_machine(program, {3}, n, bulk).interactions);
    }
    const double exact_mean = exact_total / trials;
    const double bulk_mean = bulk_total / trials;
    EXPECT_NEAR(bulk_mean / exact_mean, 1.0, 0.15);
}

TEST(BulkZeroTest, MakesHighTimerParametersAffordable) {
    // k = 6 on n = 64: an empty-counter verdict costs ~63^6 = 6e10
    // interactions, hopeless to replay but instant in bulk.
    const CounterProgram program = make_countdown_program();
    PopulationMachineOptions options = base_options(6, 9);
    const auto result = run_population_counter_machine(program, {10}, 64, options);
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(result.counters[0], 0u);
    // The final wait dominates: on the order of n/2 * 63^6 ~ 2e12
    // interactions in expectation.  A single geometric draw is exponential,
    // so only assert the order of magnitude from below.
    EXPECT_GT(result.interactions, 10'000'000'000ull);
}

TEST(BulkZeroTest, NonEmptyCountersNeverTakeTheBulkPath) {
    // Countdown with bulk threshold 0: the 5 nonzero verdicts must still be
    // simulated exactly (only the final empty verdict is bulked), so with a
    // reliable k = 4 the run drains the counter and counts all 6 tests.
    const CounterProgram program = make_countdown_program();
    PopulationMachineOptions bulk = base_options(4, 4);
    bulk.bulk_zero_test_threshold = 0;
    const auto result = run_population_counter_machine(program, {5}, 12, bulk);
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(result.zero_test_errors, 0u);
    EXPECT_EQ(result.counters[0], 0u);
    EXPECT_EQ(result.zero_tests, 6u);
}

}  // namespace
}  // namespace popproto
