// The leader-driven population counter machine (Theorems 9 and 10).

#include <gtest/gtest.h>

#include "machines/examples.h"
#include "machines/minsky.h"
#include "randomized/population_machine.h"

namespace popproto {
namespace {

PopulationMachineOptions options_for(std::uint64_t population, std::uint32_t k,
                                     std::uint64_t seed) {
    PopulationMachineOptions options;
    options.timer_parameter = k;
    options.share_capacity = 4;
    options.max_interactions = 200ull * population * population * (k + 1) * 100;
    options.seed = seed;
    return options;
}

TEST(PopulationMachine, CountdownHalts) {
    const CounterProgram program = make_countdown_program();
    const auto result =
        run_population_counter_machine(program, {9}, 16, options_for(16, 3, 1));
    EXPECT_TRUE(result.halted);
    EXPECT_FALSE(result.stuck);
    EXPECT_EQ(result.counters[0], 0u);
    EXPECT_GT(result.interactions, 0u);
    EXPECT_GE(result.interactions, result.leader_encounters);
}

TEST(PopulationMachine, MultiplyMatchesDeterministicWhenNoErrors) {
    const CounterProgram program = make_multiply_program(3);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto result =
            run_population_counter_machine(program, {6, 0}, 24, options_for(24, 4, seed));
        ASSERT_TRUE(result.halted) << seed;
        if (result.zero_test_errors == 0) {
            EXPECT_EQ(result.counters[0], 18u) << seed;
            EXPECT_EQ(result.counters[1], 0u) << seed;
        }
    }
}

TEST(PopulationMachine, HighTimerParameterIsReliable) {
    // With k = 4 on a 30-agent population, the Theta(n^-k / m) error rate is
    // negligible; all runs should compute 5 * 4 = 20.  (The two terminal
    // zero verdicts each wait about (n-1)^4 leader encounters, so give the
    // run an explicit generous budget.)
    const CounterProgram program = make_multiply_program(5);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        PopulationMachineOptions options = options_for(30, 4, seed);
        options.max_interactions = 2'000'000'000ull;
        const auto result = run_population_counter_machine(program, {4, 0}, 30, options);
        ASSERT_TRUE(result.halted) << seed;
        EXPECT_EQ(result.zero_test_errors, 0u) << seed;
        EXPECT_EQ(result.counters[0], 20u) << seed;
    }
}

TEST(PopulationMachine, LowTimerParameterErrsNoticeably) {
    // k = 1 makes the zero test a coin-flip-grade heuristic: across many
    // runs we must observe at least one premature zero verdict.
    const CounterProgram program = make_multiply_program(2);
    std::uint64_t total_errors = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const auto result =
            run_population_counter_machine(program, {8, 0}, 12, options_for(12, 1, seed));
        total_errors += result.zero_test_errors;
    }
    EXPECT_GT(total_errors, 0u);
}

TEST(PopulationMachine, ZeroTestsAreCounted) {
    const CounterProgram program = make_countdown_program();
    const auto result =
        run_population_counter_machine(program, {5, }, 16, options_for(16, 3, 3));
    // Countdown performs one zero test per loop iteration plus the final one.
    EXPECT_GE(result.zero_tests, 6u);
}

TEST(PopulationMachine, CapacityValidation) {
    const CounterProgram program = make_countdown_program();
    PopulationMachineOptions options = options_for(5, 2, 1);
    options.share_capacity = 1;
    // Population 5 => 3 carriers of capacity 1; counter value 9 cannot fit.
    EXPECT_THROW(run_population_counter_machine(program, {9}, 5, options),
                 std::invalid_argument);
}

TEST(PopulationMachine, PureJumpLoopIsDetected) {
    CounterProgram spin;
    spin.num_counters = 1;
    spin.instructions = {{CounterInstruction::Op::kJump, 0, 0}};
    const auto result = run_population_counter_machine(spin, {0}, 8, options_for(8, 2, 1));
    EXPECT_FALSE(result.halted);
    EXPECT_TRUE(result.stuck);
}

TEST(PopulationMachine, BudgetExhaustionReportsStuck) {
    const CounterProgram program = make_multiply_program(3);
    PopulationMachineOptions options = options_for(16, 3, 1);
    options.max_interactions = 5;
    const auto result = run_population_counter_machine(program, {6, 0}, 16, options);
    EXPECT_FALSE(result.halted);
    EXPECT_TRUE(result.stuck);
}

TEST(PopulationMachine, LeaderElectionPrologueRunsAndReports) {
    const CounterProgram program = make_countdown_program();
    PopulationMachineOptions options = options_for(32, 4, 7);
    options.leader_election_prologue = true;
    const auto result = run_population_counter_machine(program, {6}, 32, options);
    EXPECT_TRUE(result.halted);
    EXPECT_GT(result.election_interactions, 0u);
    // The unrest phase costs Theta(n^2); sanity band around (n-1)^2.
    EXPECT_GT(result.election_interactions, 100u);
    EXPECT_LT(result.election_interactions, 40000u);
}

TEST(PopulationMachine, PrologueInitializationUsuallyCompletes) {
    const CounterProgram program = make_countdown_program();
    int incomplete = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        PopulationMachineOptions options = options_for(24, 4, seed);
        options.leader_election_prologue = true;
        const auto result = run_population_counter_machine(program, {4}, 24, options);
        if (result.initialization_incomplete) ++incomplete;
    }
    // With k = 4 the coupon-collector phase almost always finishes first.
    EXPECT_LE(incomplete, 4);
}

TEST(PopulationMachine, SeededRunsMatchPinnedResults) {
    // Every leaderless stretch is one Rng::geometric_skips draw, so these
    // pins hold its values fixed for a fixed seed: p = (n - 1)^-k of a timer
    // streak, 2 / n, the prologue's election, the bulk zero test's
    // 199^-5 ~ 2^-38 and, past the fast path's range, 999^-6 ~ 2^-60, whose
    // waits reach the 10^18 cap (that run exhausts its budget).
    struct Pinned {
        const char* name;
        CounterProgram program;
        std::vector<std::uint64_t> initial;
        std::uint64_t population;
        std::uint32_t k;
        std::uint64_t seed;
        bool prologue;
        bool halted;
        std::vector<std::uint64_t> counters;
        std::uint64_t interactions;
        std::uint64_t leader_encounters;
        std::uint64_t zero_tests;
        std::uint64_t zero_test_errors;
        std::uint64_t election_interactions;
    };
    const Pinned pinned[] = {
        {"countdown", make_countdown_program(), {9}, 16, 3, 1, false, true, {0}, 45087, 5563,
         10, 0, 0},
        {"multiply", make_multiply_program(3), {6, 0}, 24, 4, 2, false, true, {18, 0}, 6234923,
         519991, 26, 0, 0},
        {"low timer", make_multiply_program(2), {8, 0}, 12, 1, 5, false, true, {9, 2}, 364, 65,
         9, 2, 0},
        {"prologue", make_countdown_program(), {6}, 32, 4, 7, true, true, {0}, 38608604,
         2412053, 7, 0, 1042},
        {"bulk zero test", make_countdown_program(), {3}, 200, 5, 11, false, true, {0},
         7256476651516, 72564416538, 4, 0, 0},
        {"capped waits", make_countdown_program(), {2}, 1000, 6, 13, false, false, {0},
         1302846864758061763, 302846864757098820, 3, 0, 0},
    };
    for (const Pinned& run : pinned) {
        SCOPED_TRACE(run.name);
        PopulationMachineOptions options;
        options.timer_parameter = run.k;
        options.share_capacity = 4;
        options.max_interactions = 1'000'000'000'000'000;
        options.seed = run.seed;
        options.leader_election_prologue = run.prologue;
        const auto result =
            run_population_counter_machine(run.program, run.initial, run.population, options);
        EXPECT_EQ(result.halted, run.halted);
        EXPECT_EQ(result.stuck, !run.halted);
        EXPECT_EQ(result.exit_code, 0u);
        EXPECT_EQ(result.counters, run.counters);
        EXPECT_EQ(result.interactions, run.interactions);
        EXPECT_EQ(result.leader_encounters, run.leader_encounters);
        EXPECT_EQ(result.zero_tests, run.zero_tests);
        EXPECT_EQ(result.zero_test_errors, run.zero_test_errors);
        EXPECT_EQ(result.election_interactions, run.election_interactions);
        EXPECT_FALSE(result.initialization_incomplete);
    }
}

TEST(PopulationMachine, EndToEndMinskyParity) {
    // Theorem 10 end to end: simulate the parity TM via its Minsky program on
    // a population, with a high timer parameter for reliability.
    const TuringMachine machine = make_unary_mod_turing_machine(2);
    const MinskyProgram compiled = compile_turing_machine(machine);
    for (std::uint32_t x : {3u, 4u}) {
        const std::vector<std::uint32_t> input(x, 1);
        PopulationMachineOptions options;
        options.timer_parameter = 4;
        options.share_capacity = 8;
        options.max_interactions = 50'000'000'000ull;
        options.seed = 100 + x;
        const auto result = run_population_counter_machine(
            compiled.program, compiled.initial_counters(input), 25, options);
        ASSERT_TRUE(result.halted) << x;
        EXPECT_EQ(result.exit_code == MinskyProgram::kAcceptExitCode, x % 2 == 0) << x;
    }
}

}  // namespace
}  // namespace popproto
