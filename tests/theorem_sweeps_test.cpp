// Parameterized theorem-level sweeps: each suite re-asserts one paper claim
// over a grid of populations/parameters, complementing the targeted tests.

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/stable_computation.h"
#include "graphs/graph_analysis.h"
#include "graphs/graph_simulation.h"
#include "presburger/compiler.h"
#include "protocols/counting.h"
#include "randomized/population_machine.h"
#include "machines/examples.h"
#include "test_util.h"

namespace popproto {
namespace {

// ---- Theorem 5 over a formula grid: every compiled atom pair stably
// computes on every input of every population up to 4.
struct FormulaCase {
    const char* name;
    Formula formula;
};

class TheoremFiveSweep : public ::testing::TestWithParam<int> {};

Formula formula_for(int index) {
    switch (index) {
        case 0:
            return Formula::threshold({1, -2}, 2);
        case 1:
            return Formula::congruence({2, 1}, 1, 3);
        case 2:
            return Formula::conjunction(Formula::threshold({1, 0}, 3),
                                        Formula::congruence({0, 1}, 0, 2));
        case 3:
            return Formula::negation(Formula::disjunction(
                Formula::at_least({1, 1}, 4), Formula::congruence({1, -1}, 0, 2)));
        default:
            return Formula::equals({1, -1}, 1);
    }
}

TEST_P(TheoremFiveSweep, CompiledProtocolIsExactlyTheFormula) {
    const Formula formula = formula_for(GetParam());
    const auto protocol = compile_formula(formula, 2);
    for (std::uint64_t n = 1; n <= 4; ++n) {
        testutil::for_each_composition(n, 2, [&](const std::vector<std::uint64_t>& counts) {
            const auto initial = CountConfiguration::from_input_counts(*protocol, counts);
            const bool expected = formula.evaluate(testutil::to_signed(counts));
            EXPECT_TRUE(stably_computes_bool(*protocol, initial, expected, 1u << 22))
                << formula.to_string() << " @ (" << counts[0] << "," << counts[1] << ")";
        });
    }
}

INSTANTIATE_TEST_SUITE_P(Formulas, TheoremFiveSweep, ::testing::Range(0, 5));

// ---- Theorem 7 over a topology grid: the lifted count-to-2 protocol is
// exactly verified on every 4-agent weakly-connected shape.
class TheoremSevenSweep : public ::testing::TestWithParam<int> {};

InteractionGraph topology_for(int index) {
    switch (index) {
        case 0:
            return InteractionGraph::line(4);
        case 1:
            return InteractionGraph::ring(4);
        case 2:
            return InteractionGraph::star(4);
        case 3:
            return InteractionGraph::grid(2, 2);
        default:
            return InteractionGraph::random_connected(4, 2, 17);
    }
}

TEST_P(TheoremSevenSweep, LiftedProtocolExactOnEveryTopology) {
    const InteractionGraph graph = topology_for(GetParam());
    ASSERT_TRUE(graph.is_weakly_connected());
    const auto base = make_counting_protocol(2);
    const auto lifted = make_graph_simulation_protocol(*base);
    for (std::uint64_t ones = 0; ones <= 4; ++ones) {
        std::vector<Symbol> inputs(4, kInputZero);
        for (std::uint64_t i = 0; i < ones; ++i) inputs[i] = kInputOne;
        EXPECT_TRUE(graph_stably_computes_bool(*lifted, graph, inputs, ones >= 2))
            << "topology " << GetParam() << " ones=" << ones;
    }
}

INSTANTIATE_TEST_SUITE_P(Topologies, TheoremSevenSweep, ::testing::Range(0, 5));

// ---- Theorem 9 over an (n, k) grid: the population machine halts and, in
// error-free runs, agrees with the deterministic counter machine.
using MachineCase = std::tuple<std::uint64_t, std::uint32_t>;

class TheoremNineSweep : public ::testing::TestWithParam<MachineCase> {};

TEST_P(TheoremNineSweep, HaltsAndAgreesWhenErrorFree) {
    const auto [population, k] = GetParam();
    const CounterProgram program = make_multiply_program(2);
    const CounterExecution reference = run_counter_machine(program, {5, 0}, 100000);
    ASSERT_TRUE(reference.halted);

    int error_free = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        PopulationMachineOptions options;
        options.timer_parameter = k;
        options.share_capacity = 4;
        options.max_interactions = 4'000'000'000ull;
        options.seed = seed;
        const PopulationMachineResult result =
            run_population_counter_machine(program, {5, 0}, population, options);
        ASSERT_TRUE(result.halted) << "n=" << population << " k=" << k << " seed=" << seed;
        if (result.zero_test_errors == 0) {
            ++error_free;
            EXPECT_EQ(result.counters, reference.counters)
                << "n=" << population << " k=" << k << " seed=" << seed;
        }
    }
    if (k >= 3) {
        EXPECT_GE(error_free, 5) << "n=" << population << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Grid, TheoremNineSweep,
                         ::testing::Combine(::testing::Values(12ull, 20ull, 32ull),
                                            ::testing::Values(2u, 3u, 4u)));

}  // namespace
}  // namespace popproto
