// The interaction-model layer (core/interaction_model.h): distributional
// parity of the refactored built-in models against their closed-form pair
// laws, O(1) pair decoding, and model-state serialization.  Checkpoint/resume
// bit-identity of the round-robin and sweep models through run_scenario is
// covered by scenarios_test.cpp (ScenarioCheckpoint).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/configuration.h"
#include "core/interaction_model.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "graphs/interaction_graph.h"
#include "protocols/counting.h"
#include "test_util.h"

namespace popproto {
namespace {

/// Category index of an ordered pair (i, j), i != j, in lexicographic
/// order — the inverse of decode_ordered_pair.
std::size_t pair_category(const AgentPair& pair, std::uint64_t num_agents) {
    const std::uint64_t offset =
        pair.second < pair.first ? pair.second : pair.second - 1;
    return static_cast<std::size_t>(pair.first * (num_agents - 1) + offset);
}

TEST(InteractionModel, DecodeOrderedPairMatchesLexicographicEnumeration) {
    for (const std::uint64_t n : {2u, 3u, 5u, 8u}) {
        std::vector<AgentPair> expected;
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                if (i != j) expected.push_back({i, j});
        for (std::uint64_t k = 0; k < n * (n - 1); ++k) {
            EXPECT_EQ(decode_ordered_pair(k, n), expected[k]) << "n=" << n << " k=" << k;
            EXPECT_EQ(pair_category(expected[k], n), k);
        }
    }
}

// --- Distributional parity -------------------------------------------------
//
// The refactor moved uniform/weighted/graph pair selection out of bespoke
// steppers into models; these chi-square tests pin the post-refactor
// samplers to the closed-form laws the pre-refactor engines realized.

TEST(InteractionModel, UniformModelMatchesUniformPairLaw) {
    const std::uint64_t n = 6;
    const std::uint64_t draws = 60000;
    UniformPairModel model;
    Rng rng(12345);
    const std::vector<State> states(n, 0);
    std::vector<std::uint64_t> observed(n * (n - 1), 0);
    for (std::uint64_t d = 0; d < draws; ++d) {
        const AgentPair pair = model.propose_pair(rng, states);
        ASSERT_NE(pair.first, pair.second);
        ASSERT_LT(pair.first, n);
        ASSERT_LT(pair.second, n);
        ++observed[pair_category(pair, n)];
    }
    const std::vector<double> expected(n * (n - 1), 1.0 / static_cast<double>(n * (n - 1)));
    const auto result = testutil::chi_square_gof(observed, expected, draws);
    EXPECT_TRUE(result.pass) << result.summary();
}

TEST(InteractionModel, WeightedModelMatchesProductLaw) {
    // P(i, j) = (w_i / W) * (w_j / (W - w_i)): the initiator is drawn from
    // the weight distribution, the responder from the same distribution
    // conditioned on avoiding i.
    const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
    const std::uint64_t n = weights.size();
    double total = 0.0;
    for (const double w : weights) total += w;

    WeightedPairModel model(weights);
    Rng rng(777);
    const std::vector<State> states(n, 0);
    const std::uint64_t draws = 80000;
    std::vector<std::uint64_t> observed(n * (n - 1), 0);
    for (std::uint64_t d = 0; d < draws; ++d)
        ++observed[pair_category(model.propose_pair(rng, states), n)];

    std::vector<double> expected(n * (n - 1), 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            if (i != j)
                expected[pair_category({i, j}, n)] =
                    (weights[i] / total) * (weights[j] / (total - weights[i]));
    const auto result = testutil::chi_square_gof(observed, expected, draws);
    EXPECT_TRUE(result.pass) << result.summary();
}

TEST(InteractionModel, EdgeListModelUniformOverEdges) {
    const std::uint32_t n = 6;
    const InteractionGraph graph = InteractionGraph::ring(n);
    const std::vector<Edge>& edges = graph.edges();
    ASSERT_EQ(edges.size(), 2u * n);  // both orientations

    EdgeListPairModel model(edges, n);
    Rng rng(99);
    const std::vector<State> states(n, 0);
    const std::uint64_t draws = 48000;
    std::vector<std::uint64_t> observed(edges.size(), 0);
    for (std::uint64_t d = 0; d < draws; ++d) {
        const AgentPair pair = model.propose_pair(rng, states);
        bool found = false;
        for (std::size_t e = 0; e < edges.size(); ++e) {
            if (edges[e].first == pair.first && edges[e].second == pair.second) {
                ++observed[e];
                found = true;
                break;
            }
        }
        ASSERT_TRUE(found) << "proposed a non-edge (" << pair.first << "," << pair.second
                           << ")";
    }
    const std::vector<double> expected(edges.size(), 1.0 / static_cast<double>(edges.size()));
    const auto result = testutil::chi_square_gof(observed, expected, draws);
    EXPECT_TRUE(result.pass) << result.summary();
}

// --- Model-state serialization ---------------------------------------------

TEST(InteractionModel, RoundRobinStateRoundTripsMidCycle) {
    const std::uint64_t n = 5;
    RoundRobinPairModel original(n);
    for (int step = 0; step < 7; ++step) original.next_pair();  // mid-cycle cursor

    std::vector<std::uint64_t> words;
    original.save_state(words);
    ASSERT_EQ(words.size(), 1u);

    RoundRobinPairModel restored(n);
    restored.restore_state(words);
    for (std::uint64_t step = 0; step < 2 * n * (n - 1); ++step)
        EXPECT_EQ(restored.next_pair(), original.next_pair()) << "diverged at step " << step;
}

TEST(InteractionModel, SweepStateRoundTripsAcrossReshuffles) {
    const std::uint64_t n = 4;
    SweepPairModel original(n, /*seed=*/21);
    for (int step = 0; step < 5; ++step) original.next_pair();  // mid-sweep

    std::vector<std::uint64_t> words;
    original.save_state(words);

    // A differently seeded replacement must still replay identically: the
    // serialized words carry the RNG position and the live permutation.
    SweepPairModel restored(n, /*seed=*/987654);
    restored.restore_state(words);
    for (std::uint64_t step = 0; step < 3 * n * (n - 1); ++step)
        EXPECT_EQ(restored.next_pair(), original.next_pair()) << "diverged at step " << step;
}

TEST(InteractionModel, StateValidationRejectsCorruptWords) {
    RoundRobinPairModel round_robin(4);
    EXPECT_THROW(round_robin.restore_state({}), std::invalid_argument);
    EXPECT_THROW(round_robin.restore_state({999}), std::invalid_argument);

    SweepPairModel sweep(4, 1);
    EXPECT_THROW(sweep.restore_state({1, 2, 3}), std::invalid_argument);
    std::vector<std::uint64_t> words;
    sweep.save_state(words);
    words[4] = 10000;  // cursor beyond the permutation
    EXPECT_THROW(sweep.restore_state(words), std::invalid_argument);
}

// --- Exact silence ----------------------------------------------------------

TEST(InteractionModel, SilenceSeesADiagonalPairMadeByACrowdedMove) {
    // States A, B, C, S, X: (A, B) -> (S, B), (A, C) -> (C, C), and
    // (S, S) -> (X, X).  From {A: 3, B: 3, C: 1, S: 1}, a first (A, B)
    // makes the second S while every other count it touches stays at 2 or
    // more; (A, C) twice then removes the A's without touching S.  Only
    // (S, S) is left enabled, so the run is not silent until it fires, and
    // the agent stepper's bookkeeping must have seen S reach two agents.
    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 1;
    tables.initial = {0, 1, 2, 3};
    tables.output = {0, 0, 0, 0, 0};
    for (State p = 0; p < 5; ++p)
        for (State q = 0; q < 5; ++q) tables.delta.push_back({p, q});
    tables.delta[0 * 5 + 1] = {3, 1};
    tables.delta[0 * 5 + 2] = {2, 2};
    tables.delta[3 * 5 + 3] = {4, 4};
    const TabulatedProtocol protocol(std::move(tables));
    const auto initial = CountConfiguration::from_input_counts(protocol, {3, 3, 1, 1});
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        RunOptions options;
        options.seed = seed;
        const RunResult result = simulate(protocol, initial, options);
        ASSERT_EQ(result.stop_reason, StopReason::kSilent) << "seed " << seed;
        ASSERT_TRUE(result.final_configuration.is_silent(protocol)) << "seed " << seed;
    }
}

// --- Checkpoint grammar ----------------------------------------------------

TEST(InteractionModel, CheckpointSerializesModelSection) {
    RunCheckpoint checkpoint;
    checkpoint.engine = ObservedEngine::kPairModel;
    checkpoint.population = 4;
    checkpoint.num_states = 2;
    checkpoint.interactions = 42;
    checkpoint.agent_states = {0, 0, 0, 1};
    checkpoint.interaction_model = "round_robin";
    checkpoint.model_state = {7};

    const std::string text = checkpoint_to_string(checkpoint);
    EXPECT_NE(text.find("interaction_model round_robin 1 7"), std::string::npos) << text;
    EXPECT_EQ(checkpoint_from_string(text), checkpoint);
}

TEST(InteractionModel, StatelessCheckpointOmitsModelSection) {
    // Byte-compat guarantee: uniform/weighted/graph checkpoints must look
    // exactly like the pre-layer format — no interaction_model line at all.
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 2});
    class Sink final : public CheckpointSink {
    public:
        void on_checkpoint(const RunCheckpoint& checkpoint) override {
            checkpoints.push_back(checkpoint);
        }
        std::vector<RunCheckpoint> checkpoints;
    } sink;
    RunOptions options;
    options.seed = 4;
    options.checkpoint_every = 64;
    options.checkpoint_sink = &sink;
    simulate(*protocol, initial, options);
    ASSERT_FALSE(sink.checkpoints.empty());
    EXPECT_TRUE(sink.checkpoints.front().interaction_model.empty());
    EXPECT_EQ(checkpoint_to_string(sink.checkpoints.front()).find("interaction_model"),
              std::string::npos);
}

TEST(InteractionModel, CheckpointRejectsMalformedModelLine) {
    RunCheckpoint checkpoint;
    checkpoint.engine = ObservedEngine::kPairModel;
    checkpoint.counts = {2};
    checkpoint.agent_states = {0, 0};
    checkpoint.interaction_model = "sweep";
    checkpoint.model_state = {1, 2, 3};
    std::string text = checkpoint_to_string(checkpoint);

    // Corrupt the declared word count: the line claims 4 state words but
    // only 3 follow, so parsing must fail instead of silently swallowing
    // the next section.
    const std::string good = "interaction_model sweep 3";
    const std::size_t at = text.find(good);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, good.size(), "interaction_model sweep 4");
    EXPECT_THROW(checkpoint_from_string(text), std::invalid_argument);
}

}  // namespace
}  // namespace popproto
