// Absorption probabilities: the exact machinery behind Theorem 11
// ("computes with probability p" reduces to a linear-system solve over
// polynomially many multiset configurations).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/markov.h"
#include "analysis/stable_computation.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "protocols/counting.h"

namespace popproto {
namespace {

/// The "epidemic war" protocol: R converts S and S converts R, depending on
/// who initiates.  With r agents in state R out of n, the count of R is a
/// fair random walk, so P(all-R eventually) = r/n.  This is a protocol that
/// does NOT stably compute anything; it computes each outcome with a
/// nontrivial probability - exactly what absorption_probability measures.
std::unique_ptr<TabulatedProtocol> make_war_protocol() {
    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 2;
    tables.initial = {0, 1};  // input 0 -> state R(0), input 1 -> state S(1)
    tables.output = {0, 1};
    tables.state_names = {"R", "S"};
    tables.delta = {
        {0, 0},  // (R, R) no-op
        {0, 0},  // (R, S) -> initiator converts responder
        {1, 1},  // (S, R) -> initiator converts responder
        {1, 1},  // (S, S) no-op
    };
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

TEST(Absorption, WarProtocolIsAFairRandomWalk) {
    const auto protocol = make_war_protocol();
    for (std::uint64_t n : {3ull, 5ull, 8ull}) {
        for (std::uint64_t r = 1; r < n; ++r) {
            const auto initial =
                CountConfiguration::from_input_counts(*protocol, {r, n - r});
            const double p = absorption_probability(
                *protocol, initial,
                [n](const CountConfiguration& c) { return c.count(0) == n; });
            EXPECT_NEAR(p, static_cast<double>(r) / static_cast<double>(n), 1e-9)
                << "n=" << n << " r=" << r;
        }
    }
}

TEST(Absorption, ComplementarySidesSumToOne) {
    const auto protocol = make_war_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {2, 4});
    const double all_r = absorption_probability(
        *protocol, initial, [](const CountConfiguration& c) { return c.count(1) == 0; });
    const double all_s = absorption_probability(
        *protocol, initial, [](const CountConfiguration& c) { return c.count(0) == 0; });
    EXPECT_NEAR(all_r + all_s, 1.0, 1e-9);
}

TEST(Absorption, StableProtocolAbsorbsWithProbabilityOne) {
    // Count-to-3 with 4 ones: the alert epidemic is inevitable under random
    // pairing, so the all-alert final class has probability exactly 1.
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {2, 4});
    const double p = absorption_probability(
        *protocol, initial, [&](const CountConfiguration& c) {
            return c.count(3) == c.population_size();
        });
    EXPECT_NEAR(p, 1.0, 1e-9);
}

TEST(Absorption, InitialAlreadyAbsorbed) {
    const auto protocol = make_war_protocol();
    auto initial = CountConfiguration(protocol->num_states());
    initial.add(0, 4);  // all R: a final SCC on its own
    const double p = absorption_probability(
        *protocol, initial, [](const CountConfiguration& c) { return c.count(1) == 0; });
    EXPECT_EQ(p, 1.0);
}

TEST(Absorption, RejectsTargetInconsistentOnFinalScc) {
    // An oscillator whose single final SCC cycles through the multisets
    // {0,0} -> {0,1} -> {1,1} -> {0,0}; a predicate that distinguishes them
    // cannot define an absorption event.
    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 2;
    tables.initial = {0};
    tables.output = {0, 1};
    tables.delta = {
        {0, 1},  // (0,0) -> (0,1)
        {1, 1},  // (0,1) -> (1,1)
        {1, 0},  // (1,0) -> no-op
        {0, 0},  // (1,1) -> (0,0)
    };
    const TabulatedProtocol protocol(std::move(tables));
    auto initial = CountConfiguration(2);
    initial.add(0, 2);
    EXPECT_THROW(absorption_probability(
                     protocol, initial,
                     [](const CountConfiguration& c) { return c.count(1) == 2; }),
                 std::runtime_error);
}

TEST(Absorption, AgreesWithMonteCarloOnWar) {
    const auto protocol = make_war_protocol();
    const std::uint64_t n = 6;
    const std::uint64_t r = 2;
    const auto initial = CountConfiguration::from_input_counts(*protocol, {r, n - r});
    const double exact = absorption_probability(
        *protocol, initial, [n](const CountConfiguration& c) { return c.count(0) == n; });

    int all_r = 0;
    const int trials = 20000;
    for (int trial = 0; trial < trials; ++trial) {
        RunOptions options;
        options.max_interactions = 1u << 20;
        options.seed = 50 + trial;
        const RunResult result = simulate(*protocol, initial, options);
        if (result.final_configuration.count(0) == n) ++all_r;
    }
    const double observed = static_cast<double>(all_r) / trials;
    EXPECT_NEAR(observed, exact, 0.02);
}

TEST(Absorption, CountEnginesAgreeWithExactAbsorptionOnWar) {
    // The frequency of all-R consensus under each count engine, against the
    // exact absorption probability, within four binomial standard errors.
    // The adaptive engine runs three ways: a crossover out of reach pins it
    // to count-batch steps, one near zero to super-steps, and one between
    // the signals at one R agent (1.33) and at two (2.13) takes super-steps
    // at two to four R agents and count-batch steps at one or five, so the
    // run alternates kinds as the walk wanders.
    const auto protocol = make_war_protocol();
    const std::uint64_t n = 6;
    const auto initial = CountConfiguration::from_input_counts(*protocol, {2, n - 2});
    const auto all_r = [n](const CountConfiguration& c) { return c.count(0) == n; };
    const double exact = absorption_probability(*protocol, initial, all_r);

    struct Engine {
        const char* name;
        SimulationEngine engine;
        double crossover;
    };
    const double defaults = AdaptiveOptions{}.crossover;
    const std::vector<Engine> engines = {
        {"count_batch", SimulationEngine::kCountBatch, defaults},
        {"collapsed", SimulationEngine::kCollapsedBatch, defaults},
        {"adaptive pinned to count_batch", SimulationEngine::kAdaptive, 1e18},
        {"adaptive pinned to collapsed", SimulationEngine::kAdaptive, 1e-12},
        {"adaptive alternating", SimulationEngine::kAdaptive, 1.6},
    };
    const int trials = 16000;
    const double standard_error = std::sqrt(exact * (1.0 - exact) / trials);
    for (const Engine& engine : engines) {
        int absorbed = 0;
        for (int trial = 0; trial < trials; ++trial) {
            RunOptions options;
            options.engine = engine.engine;
            options.adaptive.crossover = engine.crossover;
            options.max_interactions = 1u << 20;
            options.seed = 7000 + trial;
            const RunResult result = run_simulation(*protocol, initial, options);
            ASSERT_EQ(result.stop_reason, StopReason::kSilent) << engine.name;
            if (all_r(result.final_configuration)) ++absorbed;
        }
        const double observed = static_cast<double>(absorbed) / trials;
        EXPECT_LE(std::fabs(observed - exact), 4.0 * standard_error)
            << engine.name << ": exact " << exact << ", observed " << observed;
    }
}

}  // namespace
}  // namespace popproto
