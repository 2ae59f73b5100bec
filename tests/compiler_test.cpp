// The Theorem 5 / Corollary 3 compiler: compiled protocols must stably
// compute their formulas on every input of every small population, including
// Boolean combinations (Lemma 3) and the integer input convention.

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

#include "analysis/stable_computation.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"
#include "test_util.h"

namespace popproto {
namespace {

void expect_compiled_correct(const Formula& formula, std::uint64_t max_population,
                             std::size_t num_symbols = 0) {
    const auto protocol = compile_formula(formula, num_symbols);
    for (std::uint64_t n = 1; n <= max_population; ++n) {
        testutil::for_each_composition(
            n, protocol->num_input_symbols(), [&](const std::vector<std::uint64_t>& counts) {
                const auto initial = CountConfiguration::from_input_counts(*protocol, counts);
                const bool expected = formula.evaluate(testutil::to_signed(counts));
                EXPECT_TRUE(stably_computes_bool(*protocol, initial, expected))
                    << formula.to_string() << " n=" << n;
            });
    }
}

TEST(Compiler, SingleThresholdAtom) {
    expect_compiled_correct(Formula::threshold({1, -1}, 0), 6);  // minority
}

TEST(Compiler, SingleCongruenceAtom) {
    expect_compiled_correct(Formula::congruence({1}, 1, 3), 7);
}

TEST(Compiler, ConjunctionOfAtoms) {
    // x0 odd AND x0 < 4.
    expect_compiled_correct(
        Formula::conjunction(Formula::congruence({1}, 1, 2), Formula::threshold({1}, 4)), 6);
}

TEST(Compiler, DisjunctionOfAtoms) {
    expect_compiled_correct(
        Formula::disjunction(Formula::congruence({1}, 0, 2), Formula::at_least({1}, 5)), 6);
}

TEST(Compiler, NegationOfAtom) {
    expect_compiled_correct(Formula::negation(Formula::threshold({1}, 3)), 6);
}

TEST(Compiler, EqualityViaTwoThresholds) {
    // x0 == x1, as in the proof of Theorem 5 (AND of two inequalities).
    expect_compiled_correct(Formula::equals({1, -1}, 0), 6);
}

TEST(Compiler, NestedFormula) {
    // (x0 > x1) OR NOT (x0 + x1 = 0 mod 2): three atoms, mixed connectives.
    const Formula formula = Formula::disjunction(
        Formula::threshold({-1, 1}, 0),
        Formula::negation(Formula::congruence({1, 1}, 0, 2)));
    expect_compiled_correct(formula, 5);
}

TEST(Compiler, FivePercentFeverPredicate) {
    // Sect. 4.2 example: 20 x1 >= x0 + x1, i.e. 19 x1 - x0 >= 0.
    const Formula fever = Formula::at_least({-1, 19}, 0);
    expect_compiled_correct(fever, 6);
}

TEST(Compiler, PaddedInputAlphabet) {
    // A one-variable formula over a three-symbol alphabet: extra symbols are
    // counted but never change the verdict.
    const Formula formula = Formula::at_least({1}, 2);
    const auto protocol = compile_formula(formula, 3);
    EXPECT_EQ(protocol->num_input_symbols(), 3u);
    for (std::uint64_t n = 1; n <= 5; ++n) {
        testutil::for_each_composition(n, 3, [&](const std::vector<std::uint64_t>& counts) {
            const auto initial = CountConfiguration::from_input_counts(*protocol, counts);
            const bool expected = counts[0] >= 2;
            EXPECT_TRUE(stably_computes_bool(*protocol, initial, expected));
        });
    }
}

TEST(Compiler, RejectsTooFewSymbols) {
    EXPECT_THROW(compile_formula(Formula::threshold({1, 1}, 0), 1), std::invalid_argument);
}

TEST(Compiler, IntegerConventionPaperExample) {
    // Sect. 4.3 example: Phi(y1, y2) = (y1 - 2 y2 = 0 mod 3) over token
    // alphabet {(0,0), (1,0), (-1,0), (0,1), (0,-1)}.
    const Formula phi = Formula::congruence({1, -2}, 0, 3);
    const std::vector<std::vector<std::int64_t>> tokens = {
        {0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    const auto protocol = compile_integer_convention(phi, tokens);
    ASSERT_EQ(protocol->num_input_symbols(), tokens.size());

    for (std::uint64_t n = 1; n <= 4; ++n) {
        testutil::for_each_composition(
            n, tokens.size(), [&](const std::vector<std::uint64_t>& counts) {
                std::int64_t y1 = 0;
                std::int64_t y2 = 0;
                for (std::size_t v = 0; v < tokens.size(); ++v) {
                    y1 += tokens[v][0] * static_cast<std::int64_t>(counts[v]);
                    y2 += tokens[v][1] * static_cast<std::int64_t>(counts[v]);
                }
                const auto initial = CountConfiguration::from_input_counts(*protocol, counts);
                EXPECT_TRUE(stably_computes_bool(*protocol, initial, phi.evaluate({y1, y2})))
                    << "y1=" << y1 << " y2=" << y2;
            });
    }
}

// An atom too large for a state table is refused under compile_formula's
// name, and the refusal names the atom.
TEST(Compiler, RefusesOversizedAtomsUnderItsName) {
    const auto refusal = [](const std::string& text) {
        try {
            compile_formula(parse_formula(text));
        } catch (const std::invalid_argument& error) {
            return std::string(error.what());
        }
        return std::string("compiled");
    };
    EXPECT_EQ(refusal("1000000000*x0 < 5"),
              "compile_formula: atom (1000000000 x0 < 5): coefficients or constant too large "
              "for a state table");
    EXPECT_EQ(refusal("x0 < 3 | x1 = 1 mod 2000000000"),
              "compile_formula: atom (x1 = 1 mod 2000000000): modulus too large for a state "
              "table");
}

TEST(Compiler, LargePopulationSimulation) {
    // Majority on 300 agents under random scheduling: the compiled protocol
    // reaches the correct consensus well within the Theta(n^2 log n) budget.
    const Formula minority = Formula::threshold({1, -1}, 0);  // x0 < x1
    const auto protocol = compile_formula(minority);
    for (const auto& [zeros, ones] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {151, 149}, {149, 151}, {10, 290}}) {
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {zeros, ones});
        RunOptions options;
        options.max_interactions = default_budget(zeros + ones);
        options.seed = zeros;
        const RunResult result = simulate(*protocol, initial, options);
        ASSERT_TRUE(result.consensus.has_value()) << zeros << " vs " << ones;
        EXPECT_EQ(*result.consensus, zeros < ones ? kOutputTrue : kOutputFalse);
    }
}

TEST(Compiler, TableIsTheProductRestrictedToItsReachableStates) {
    // The closure of the input states under delta; the full Lemma 3
    // products have 156, 400, 720 and 6,272 states.
    EXPECT_EQ(compile_formula(parse_formula("x0 - 19*x1 < 1"))->num_states(), 79u);
    EXPECT_EQ(compile_formula(parse_formula("x0 = x1"))->num_states(), 12u);
    EXPECT_EQ(compile_formula(parse_formula("x0 = 1 mod 3 | x0 >= 7"))->num_states(), 36u);
    EXPECT_EQ(compile_formula(parse_formula("x0 >= 3 & x1 >= 3 & x0 + x1 = 0 mod 2"))
                  ->num_states(),
              78u);

    // The closure keeps the full product's state order, and every engine
    // scans states in index order, so seeded runs repeat the ones recorded
    // on the full tables (156 and 4,368 states) at n = 256.  The collapsed
    // and adaptive rows were re-recorded when super-steps grew to
    // T = 1.5 sqrt(n) interactions; the fever rows read the same on the
    // 156-state table (make_threshold_protocol({1, -19}, 1)).
    constexpr const char* kFever = "x0 - 19*x1 < 1";
    constexpr const char* kFeverAndX0AtLeast3 = "20 x1 >= x0 + x1 & x0 >= 3";
    struct Recorded {
        const char* formula;
        SimulationEngine engine;
        std::uint64_t seed;
        std::array<std::uint64_t, 3> interactions_effective_last_output_change;
    };
    const Recorded recorded[] = {
        {kFever, SimulationEngine::kAgentArray, 1, {209985, 2212, 209985}},
        {kFever, SimulationEngine::kAgentArray, 2, {188026, 2639, 188026}},
        {kFever, SimulationEngine::kCountBatch, 1, {224003, 1475, 224003}},
        {kFever, SimulationEngine::kCountBatch, 2, {225454, 1226, 225454}},
        {kFever, SimulationEngine::kCollapsedBatch, 1, {285552, 1459, 285552}},
        {kFever, SimulationEngine::kCollapsedBatch, 2, {306768, 1392, 306768}},
        {kFever, SimulationEngine::kAdaptive, 1, {382869, 1992, 382869}},
        {kFever, SimulationEngine::kAdaptive, 2, {112934, 876, 112934}},
        {kFeverAndX0AtLeast3, SimulationEngine::kAgentArray, 1, {209985, 2313, 209985}},
        {kFeverAndX0AtLeast3, SimulationEngine::kAgentArray, 2, {188026, 2735, 188026}},
        {kFeverAndX0AtLeast3, SimulationEngine::kCountBatch, 1, {128784, 1346, 128784}},
        {kFeverAndX0AtLeast3, SimulationEngine::kCountBatch, 2, {204894, 1451, 204894}},
        {kFeverAndX0AtLeast3, SimulationEngine::kCollapsedBatch, 1, {200688, 1825, 200688}},
        {kFeverAndX0AtLeast3, SimulationEngine::kCollapsedBatch, 2, {266424, 1373, 266424}},
        {kFeverAndX0AtLeast3, SimulationEngine::kAdaptive, 1, {144472, 1408, 144472}},
        {kFeverAndX0AtLeast3, SimulationEngine::kAdaptive, 2, {160324, 1320, 160324}},
    };
    for (const Recorded& run : recorded) {
        const auto protocol = compile_formula(parse_formula(run.formula));
        const auto initial = CountConfiguration::from_input_counts(*protocol, {244, 12});
        RunOptions options;
        options.engine = run.engine;
        options.seed = run.seed;
        options.adaptive.crossover = 1.0;  // adaptive runs take both kinds of step
        const RunResult result = run_simulation(*protocol, initial, options);
        EXPECT_EQ((std::array{result.interactions, result.effective_interactions,
                              result.last_output_change}),
                  run.interactions_effective_last_output_change)
            << run.formula << " engine " << static_cast<int>(run.engine) << " seed " << run.seed;
        EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    }
}

}  // namespace
}  // namespace popproto
