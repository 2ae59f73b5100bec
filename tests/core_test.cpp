// Unit tests for the core model: RNG, tabulated protocols, configurations,
// the random simulator, and the debug printers.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/configuration.h"
#include "core/debug.h"
#include "core/interner.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"
#include "protocols/counting.h"

namespace popproto {
namespace {

TEST(Rng, DeterministicForSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b()) ++same;
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRange) {
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversAllValues) {
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, Uniform01InRange) {
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(StateInterner, AssignsDenseIndicesInOrder) {
    StateInterner<int> interner;
    EXPECT_EQ(interner.intern(10), 0u);
    EXPECT_EQ(interner.intern(20), 1u);
    EXPECT_EQ(interner.intern(10), 0u);
    EXPECT_EQ(interner.size(), 2u);
    EXPECT_EQ(interner.value(1), 20);
    EXPECT_THROW(interner.value(2), std::invalid_argument);
}

TabulatedProtocol::Tables tiny_tables() {
    // Two states; input 0 -> state 0; delta(1, 0) = (1, 1); outputs = state.
    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 2;
    tables.initial = {0};
    tables.output = {0, 1};
    tables.delta = {{0, 0}, {0, 1}, {1, 1}, {1, 1}};
    return tables;
}

TEST(TabulatedProtocol, ValidatesShapes) {
    auto tables = tiny_tables();
    tables.delta.pop_back();
    EXPECT_THROW(TabulatedProtocol{std::move(tables)}, std::invalid_argument);

    tables = tiny_tables();
    tables.output = {0, 5};
    EXPECT_THROW(TabulatedProtocol{std::move(tables)}, std::invalid_argument);

    tables = tiny_tables();
    tables.initial = {7};
    EXPECT_THROW(TabulatedProtocol{std::move(tables)}, std::invalid_argument);

    tables = tiny_tables();
    tables.delta[0] = {9, 0};
    EXPECT_THROW(TabulatedProtocol{std::move(tables)}, std::invalid_argument);
}

TEST(TabulatedProtocol, LookupsMatchTables) {
    const TabulatedProtocol protocol(tiny_tables());
    EXPECT_EQ(protocol.num_states(), 2u);
    EXPECT_EQ(protocol.num_input_symbols(), 1u);
    EXPECT_EQ(protocol.initial_state(0), 0u);
    EXPECT_EQ(protocol.output(1), 1u);
    EXPECT_EQ(protocol.apply(1, 0), (StatePair{1, 1}));
    EXPECT_TRUE(protocol.is_null_interaction(0, 0));
    EXPECT_FALSE(protocol.is_null_interaction(1, 0));
    EXPECT_THROW(protocol.apply(2, 0), std::invalid_argument);
}

TEST(TabulatedProtocol, TabulateRoundTrips) {
    const auto counting = make_counting_protocol(3);
    const auto copy = TabulatedProtocol::tabulate(*counting);
    ASSERT_EQ(copy->num_states(), counting->num_states());
    for (State p = 0; p < counting->num_states(); ++p) {
        EXPECT_EQ(copy->output(p), counting->output(p));
        for (State q = 0; q < counting->num_states(); ++q)
            EXPECT_EQ(copy->apply(p, q), counting->apply(p, q));
    }
    EXPECT_EQ(copy->state_name(0), counting->state_name(0));
}

TEST(CountConfiguration, AddRemoveAndPopulation) {
    CountConfiguration config(4);
    EXPECT_EQ(config.population_size(), 0u);
    config.add(2, 3);
    config.add(0);
    EXPECT_EQ(config.population_size(), 4u);
    EXPECT_EQ(config.count(2), 3u);
    config.remove(2, 2);
    EXPECT_EQ(config.count(2), 1u);
    EXPECT_EQ(config.population_size(), 2u);
    EXPECT_THROW(config.remove(2, 5), std::invalid_argument);
    EXPECT_THROW(config.count(9), std::invalid_argument);
}

TEST(CountConfiguration, RejectsCountsThatSumPast64Bits) {
    // {2^64 - 1, 3} sums past 2^64; it must not wrap to a population of 2.
    const auto protocol = make_counting_protocol(5);
    const std::uint64_t max = ~std::uint64_t{0};
    const auto rejection = [](const auto& build) -> std::string {
        try {
            build();
        } catch (const std::invalid_argument& error) {
            return error.what();
        }
        return "accepted";
    };
    EXPECT_EQ(rejection([&] { CountConfiguration::from_input_counts(*protocol, {max, 3}); }),
              "from_input_counts: counts sum past 2^64 - 1 agents");
    EXPECT_EQ(rejection([&] { CountConfiguration::from_state_counts({max, 0, 1}); }),
              "from_state_counts: counts sum past 2^64 - 1 agents");
    CountConfiguration config(2);
    config.add(0, max);
    EXPECT_EQ(rejection([&] { config.add(1); }),
              "CountConfiguration: population past 2^64 - 1 agents");
    EXPECT_EQ(config.population_size(), max);  // the rejected add changed nothing
    EXPECT_EQ(config.count(1), 0u);

    EXPECT_EQ(CountConfiguration::from_input_counts(*protocol, {max - 3, 3}).population_size(),
              max);
    EXPECT_EQ(CountConfiguration::from_state_counts({max, 0, 0}).population_size(), max);
}

TEST(CountConfiguration, FromInputsMatchesCounts) {
    const auto protocol = make_counting_protocol(5);
    const auto a = CountConfiguration::from_inputs(*protocol, {kInputOne, kInputZero, kInputOne});
    const auto b = CountConfiguration::from_input_counts(*protocol, {1, 2});
    EXPECT_EQ(a.count(1), 2u);
    EXPECT_EQ(a.count(0), 1u);
    EXPECT_EQ(b.count(1), 2u);
    EXPECT_EQ(b.population_size(), 3u);
}

TEST(CountConfiguration, ApplyInteractionMovesAgents) {
    const auto protocol = make_counting_protocol(5);
    auto config = CountConfiguration::from_input_counts(*protocol, {0, 2});
    config.apply_interaction(*protocol, 1, 1);  // q1 + q1 -> q2 + q0
    EXPECT_EQ(config.count(2), 1u);
    EXPECT_EQ(config.count(0), 1u);
    EXPECT_EQ(config.count(1), 0u);
    // Applying with absent agents throws.
    EXPECT_THROW(config.apply_interaction(*protocol, 1, 1), std::invalid_argument);
}

TEST(CountConfiguration, ConsensusOutput) {
    const auto protocol = make_counting_protocol(2);
    auto all_false = CountConfiguration::from_input_counts(*protocol, {3, 0});
    ASSERT_TRUE(all_false.consensus_output(*protocol).has_value());
    EXPECT_EQ(*all_false.consensus_output(*protocol), kOutputFalse);

    auto mixed = CountConfiguration::from_input_counts(*protocol, {1, 0});
    mixed.add(2);  // one alert agent
    EXPECT_FALSE(mixed.consensus_output(*protocol).has_value());
}

TEST(CountConfiguration, SilenceDetection) {
    const auto protocol = make_counting_protocol(5);
    // All agents in q0: every interaction is a no-op.
    auto idle = CountConfiguration::from_input_counts(*protocol, {4, 0});
    EXPECT_TRUE(idle.is_silent(*protocol));
    // Two q1 agents can still merge.
    auto active = CountConfiguration::from_input_counts(*protocol, {0, 2});
    EXPECT_FALSE(active.is_silent(*protocol));
    // A single q1 cannot interact with itself.
    auto lonely = CountConfiguration::from_input_counts(*protocol, {0, 1});
    EXPECT_TRUE(lonely.is_silent(*protocol));
}

TEST(AgentConfiguration, RoundTripWithCounts) {
    const auto protocol = make_counting_protocol(5);
    const auto counts = CountConfiguration::from_input_counts(*protocol, {2, 3});
    const auto agents = AgentConfiguration::from_counts(counts);
    EXPECT_EQ(agents.size(), 5u);
    EXPECT_EQ(agents.to_counts(protocol->num_states()), counts);
}

TEST(AgentConfiguration, ApplyInteractionReportsChange) {
    const auto protocol = make_counting_protocol(5);
    auto agents =
        AgentConfiguration::from_inputs(*protocol, {kInputOne, kInputOne, kInputZero});
    EXPECT_TRUE(agents.apply_interaction(*protocol, 0, 1));   // q1,q1 -> q2,q0
    EXPECT_FALSE(agents.apply_interaction(*protocol, 2, 1));  // q0,q0 no-op
    EXPECT_THROW(agents.apply_interaction(*protocol, 0, 0), std::invalid_argument);
}

TEST(Simulator, StopsWhenSilent) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {6, 2});
    RunOptions options;
    options.max_interactions = 1u << 20;
    options.seed = 9;
    const RunResult result = simulate(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputFalse);  // only 2 ones < 5
    EXPECT_EQ(result.final_configuration.population_size(), 8u);
}

TEST(Simulator, ReachesAlertConsensus) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {3, 7});
    RunOptions options;
    options.max_interactions = 1u << 22;
    options.seed = 10;
    const RunResult result = simulate(*protocol, initial, options);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);
    EXPECT_GT(result.effective_interactions, 0u);
    EXPECT_LE(result.effective_interactions, result.interactions);
    EXPECT_GE(result.last_output_change, 1u);
}

TEST(Simulator, BudgetStop) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {50, 50});
    RunOptions options;
    options.max_interactions = 3;  // far too small
    options.seed = 4;
    const RunResult result = simulate(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kBudget);
    EXPECT_EQ(result.interactions, 3u);
}

TEST(Simulator, DeterministicGivenSeed) {
    const auto protocol = make_counting_protocol(4);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 6});
    RunOptions options;
    options.max_interactions = 1u << 20;
    options.seed = 1234;
    const RunResult a = simulate(*protocol, initial, options);
    const RunResult b = simulate(*protocol, initial, options);
    EXPECT_EQ(a.interactions, b.interactions);
    EXPECT_EQ(a.final_configuration, b.final_configuration);
}

TEST(Simulator, RequiresSaneOptions) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {1, 1});
    RunOptions options;  // max_interactions == 0 -> default_budget(n)
    const RunResult result = simulate(*protocol, initial, options);
    EXPECT_LE(result.interactions, default_budget(2));

    const auto lonely = CountConfiguration::from_input_counts(*protocol, {1, 0});
    options.max_interactions = 10;
    EXPECT_THROW(simulate(*protocol, lonely, options), std::invalid_argument);

    // Engine-field consistency: a direct entry point refuses an options
    // struct meant for a different engine instead of silently running.
    options.engine = SimulationEngine::kCountBatch;
    EXPECT_THROW(simulate(*protocol, initial, options), std::invalid_argument);
}

TEST(Simulator, DefaultBudgetGrowsSuperlinearly) {
    EXPECT_GT(default_budget(100), default_budget(10));
    EXPECT_GT(default_budget(100), 100ull * 100ull);
    EXPECT_THROW(default_budget(1), std::invalid_argument);
}

TEST(Simulator, SilenceBetweenChecksBeatsBudgetExpiry) {
    // Regression: when silence was tested periodically, a run that fell
    // silent between two checks was once misreported as kBudget because the
    // budget expired first.  Silence is now tested after every change; the
    // run must still end with the sound kSilent certificate.
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 5});
    RunOptions options;
    options.max_interactions = default_budget(15);
    options.seed = 5;
    const RunResult result = simulate(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);
}

TEST(Simulator, StopReasonLabelsRoundTrip) {
    // The JSONL trace, the wire protocol and session manifests all spell a
    // stop reason with these labels.
    const std::pair<StopReason, const char*> labels[] = {
        {StopReason::kSilent, "silent"},
        {StopReason::kStableOutputs, "stable_outputs"},
        {StopReason::kBudget, "budget"},
        {StopReason::kPaused, "paused"},
    };
    for (const auto& [reason, label] : labels) {
        EXPECT_STREQ(stop_reason_label(reason), label);
        EXPECT_EQ(parse_stop_reason_label(label), reason);
    }
    EXPECT_THROW(parse_stop_reason_label("converged"), std::invalid_argument);
}

TEST(Rng, GeometricSkipsCertainEventNeverWaits) {
    Rng rng(3);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(rng.geometric_skips(1.0), 0u);
}

TEST(Rng, GeometricSkipsMatchesGeometricMean) {
    // E[skips] = (1 - p) / p; check p = 0.25 (mean 3) within Monte Carlo
    // tolerance.
    Rng rng(17);
    const int samples = 20000;
    double total = 0.0;
    for (int i = 0; i < samples; ++i)
        total += static_cast<double>(rng.geometric_skips(0.25));
    EXPECT_NEAR(total / samples, 3.0, 0.15);
}

TEST(Rng, GeometricSkipsRareEventIsCapped) {
    Rng rng(29);
    EXPECT_LE(rng.geometric_skips(1e-300), static_cast<std::uint64_t>(1e18));
}

TEST(Debug, DescribeProtocolListsTransitions) {
    const auto protocol = make_counting_protocol(2);
    const std::string text = describe_protocol(*protocol);
    EXPECT_NE(text.find("states (3)"), std::string::npos);
    EXPECT_NE(text.find("(q1, q1) -> (q2, q2)"), std::string::npos);
    EXPECT_NE(text.find("inputs  (2)"), std::string::npos);
}

TEST(Debug, DotExportIsWellFormed) {
    const auto protocol = make_counting_protocol(2);
    const std::string dot = protocol_to_dot(*protocol);
    EXPECT_EQ(dot.rfind("digraph protocol {", 0), 0u);
    EXPECT_NE(dot.find("q1 -> q2"), std::string::npos);
    EXPECT_NE(dot.find("}\n"), std::string::npos);
}

}  // namespace
}  // namespace popproto
