// Cross-module integration: each test exercises a full pipeline spanning
// several libraries, the way a downstream user would compose them.

#include <gtest/gtest.h>

#include "analysis/markov.h"
#include "analysis/stable_computation.h"
#include "core/protocol_io.h"
#include "core/simulator.h"
#include "graphs/graph_simulation.h"
#include "graphs/interaction_graph.h"
#include "machines/examples.h"
#include "machines/minsky.h"
#include "presburger/atom_protocols.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"
#include "protocols/division.h"
#include "randomized/population_machine.h"
#include "scenarios/scenario_spec.h"
#include "test_util.h"

namespace popproto {
namespace {

TEST(Integration, ParseCompileVerifySimulateSerializeRoundTrip) {
    // Text formula -> compiler -> exact verification -> random simulation ->
    // serialization -> reload -> exact verification again.
    const Formula formula = parse_formula("x0 = 1 mod 3 | x0 >= 7");
    const auto protocol = compile_formula(formula, 1);

    for (std::uint64_t n = 1; n <= 9; ++n) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {n});
        const bool expected = formula.evaluate({static_cast<std::int64_t>(n)});
        EXPECT_TRUE(stably_computes_bool(*protocol, initial, expected)) << n;
    }

    const auto initial = CountConfiguration::from_input_counts(*protocol, {100});
    RunOptions options;
    options.max_interactions = default_budget(100, 128.0);
    options.seed = 2;
    const RunResult run = simulate(*protocol, initial, options);
    ASSERT_TRUE(run.consensus.has_value());
    EXPECT_EQ(*run.consensus, formula.evaluate({100}) ? kOutputTrue : kOutputFalse);

    const auto reloaded = deserialize_protocol(serialize_protocol(*protocol));
    for (std::uint64_t n = 1; n <= 6; ++n) {
        const auto config = CountConfiguration::from_input_counts(*reloaded, {n});
        EXPECT_TRUE(stably_computes_bool(*reloaded, config,
                                         formula.evaluate({static_cast<std::int64_t>(n)})))
            << n;
    }
}

TEST(Integration, TuringToPopulationWithElectionPrologue) {
    // TM -> Minsky counter program -> leader-driven population with the full
    // Sect. 6.1 prologue, majority-voted across seeds for reliability.
    const TuringMachine machine = make_unary_mod_turing_machine(3);
    const MinskyProgram compiled = compile_turing_machine(machine);
    for (std::uint32_t x : {3u, 4u}) {
        const std::vector<std::uint32_t> input(x, 1);
        const TuringExecution direct = run_turing_machine(machine, input, 100000);

        int accept_votes = 0;
        int votes = 0;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            PopulationMachineOptions options;
            options.timer_parameter = 4;
            options.share_capacity = 8;
            options.max_interactions = 60'000'000'000ull;
            options.leader_election_prologue = true;
            options.seed = 10 * x + seed;
            const PopulationMachineResult result = run_population_counter_machine(
                compiled.program, compiled.initial_counters(input), 25, options);
            if (!result.halted) continue;
            ++votes;
            if (result.exit_code == MinskyProgram::kAcceptExitCode) ++accept_votes;
        }
        ASSERT_GT(votes, 0) << x;
        EXPECT_EQ(accept_votes * 2 > votes, direct.accepted) << x;
    }
}

TEST(Integration, CompiledPredicateLiftedToARandomGraph) {
    // Presburger compiler -> Theorem 7 lift -> random weakly-connected
    // deployment -> correct consensus.
    const Formula parity = parse_formula("x1 = 0 mod 2");
    const auto base = compile_formula(parity, 2);
    const auto lifted = make_graph_simulation_protocol(*base);
    const InteractionGraph graph = InteractionGraph::random_connected(14, 6, 3);

    for (std::uint64_t ones : {5ull, 6ull}) {
        std::vector<Symbol> inputs(14, 0);
        for (std::uint64_t i = 0; i < ones; ++i) inputs[i] = 1;
        RunOptions options;
        options.max_interactions = 60'000'000;
        options.stop_after_stable_outputs = 400'000;
        options.seed = 70 + ones;
        const GraphRunResult result = simulate_on_graph(*lifted, graph, inputs, options);
        ASSERT_TRUE(result.consensus.has_value()) << ones;
        EXPECT_EQ(*result.consensus, ones % 2 == 0 ? kOutputTrue : kOutputFalse) << ones;
    }
}

TEST(Integration, DivisionUnderRoundRobinDecodesViaConvention) {
    // Function protocol + deterministic scheduler + Sect. 3.4 decoding.
    const std::uint32_t divisor = 4;
    const auto protocol = make_divmod_protocol(divisor);
    const IntegerOutputConvention convention = divmod_output_convention(divisor);

    const auto initial = CountConfiguration::from_input_counts(*protocol, {6, 9});
    ScenarioSpec spec;
    spec.model = "round_robin";
    RunOptions options;
    options.max_interactions = default_budget(15);
    const RunResult result = run_scenario(*protocol, initial, spec, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    const auto decoded =
        convention.decode(result.final_configuration.output_counts(*protocol));
    EXPECT_EQ(decoded, (std::vector<std::int64_t>{9 % divisor, 9 / divisor}));
}

TEST(Integration, WeightedSamplingOfCompiledFormula) {
    const Formula fever = parse_formula("20 x1 >= x0 + x1");
    const auto protocol = compile_formula(fever);
    std::vector<Symbol> inputs(95, 0);
    inputs.insert(inputs.end(), 5, 1);
    const auto agents = AgentConfiguration::from_inputs(*protocol, inputs);
    std::vector<double> weights(100);
    for (std::size_t i = 0; i < 100; ++i) weights[i] = 1.0 + (i % 5);

    RunOptions options;
    options.max_interactions = default_budget(100, 512.0);
    options.seed = 19;
    const RunResult result = simulate_weighted(*protocol, agents, weights, options);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);  // 5 of 100 is exactly 5%
}

TEST(Integration, AbsorptionProbabilityOfAStableProtocolIsOne) {
    // The Theorem 11 machinery applied to a compiled predicate: a stably
    // computing protocol reaches its correct consensus class w.p. exactly 1.
    const auto protocol = compile_formula(parse_formula("x0 < x1"));
    const auto initial = CountConfiguration::from_input_counts(*protocol, {2, 3});
    const double p = absorption_probability(
        *protocol, initial, [&](const CountConfiguration& config) {
            const auto consensus = config.consensus_output(*protocol);
            return consensus.has_value() && *consensus == kOutputTrue;
        });
    EXPECT_NEAR(p, 1.0, 1e-9);
}

TEST(Integration, ExpectedLeaderMergeTimeIsUniversalAcrossLeaderProtocols) {
    // The (n-1)^2 claim holds inside the Lemma 5 remainder protocol too:
    // its leader field follows exactly the pairwise-elimination dynamics.
    const std::int64_t modulus = 3;
    const auto protocol = make_remainder_protocol({1}, 0, modulus);
    const auto leader_count = [&](const CountConfiguration& config) {
        std::uint64_t leaders = 0;
        for (State q = 0; q < config.num_states(); ++q)
            if (q / modulus >= 2) leaders += config.count(q);  // (leader,b,u) layout
        return leaders;
    };
    for (std::uint64_t n : {3ull, 5ull}) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {n});
        const double expected = expected_hitting_time(
            *protocol, initial,
            [&](const CountConfiguration& c) { return leader_count(c) == 1; });
        EXPECT_NEAR(expected, static_cast<double>((n - 1) * (n - 1)), 1e-6) << n;
    }
}

}  // namespace
}  // namespace popproto
