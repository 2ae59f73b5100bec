// The shared configuration-graph explorer behind every exact analyzer, and
// the engines checked against the exact Markov chain it feeds.
//
// Explorer: a pairwise protocol wrapped as a g = 2 multiway protocol and as
// a population-conserving birth-death protocol explores the same multiset
// graph under each family's successor rule, so all three analyzers must
// agree; each family reports the configuration limit under its own name.
//
// ExactChain: fixed-seed differential checks of an engine's sampled mean
// against the absorbing-chain solver (analysis/markov.h), each bounded at
// four standard errors of the sample.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/markov.h"
#include "analysis/stable_computation.h"
#include "core/batch_simulator.h"
#include "extensions/birth_death.h"
#include "extensions/multiway.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "protocols/leader_election.h"

namespace popproto {
namespace {

/// A pairwise protocol seen as a multiway protocol with groups of two.
class PairwiseAsMultiway final : public MultiwayProtocol {
public:
    explicit PairwiseAsMultiway(const TabulatedProtocol& protocol) : protocol_(protocol) {}
    std::size_t group_size() const override { return 2; }
    std::size_t num_states() const override { return protocol_.num_states(); }
    std::size_t num_input_symbols() const override { return protocol_.num_input_symbols(); }
    std::size_t num_output_symbols() const override { return protocol_.num_output_symbols(); }
    State initial_state(Symbol x) const override { return protocol_.initial_state(x); }
    Symbol output(State q) const override { return protocol_.output(q); }
    void apply(std::vector<State>& group) const override {
        const StatePair next = protocol_.apply(group[0], group[1]);
        group = {next.initiator, next.responder};
    }

private:
    const TabulatedProtocol& protocol_;
};

/// A pairwise protocol seen as a birth-death protocol whose every
/// interaction has exactly two offspring.
class PairwiseAsBirthDeath final : public BirthDeathProtocol {
public:
    explicit PairwiseAsBirthDeath(const TabulatedProtocol& protocol) : protocol_(protocol) {}
    std::size_t num_states() const override { return protocol_.num_states(); }
    std::size_t num_input_symbols() const override { return protocol_.num_input_symbols(); }
    std::size_t num_output_symbols() const override { return protocol_.num_output_symbols(); }
    State initial_state(Symbol x) const override { return protocol_.initial_state(x); }
    Symbol output(State q) const override { return protocol_.output(q); }
    std::vector<State> apply(State initiator, State responder) const override {
        const StatePair next = protocol_.apply(initiator, responder);
        return {next.initiator, next.responder};
    }

private:
    const TabulatedProtocol& protocol_;
};

void expect_same_analysis(const StableComputationResult& expected,
                          const StableComputationResult& actual, const std::string& what) {
    EXPECT_EQ(actual.reachable_configurations, expected.reachable_configurations) << what;
    EXPECT_EQ(actual.always_converges, expected.always_converges) << what;
    EXPECT_EQ(actual.stable_signatures, expected.stable_signatures) << what;
}

TEST(Explorer, MultiwayAndBirthDeathWrappersReproducePairwiseAnalysis) {
    const auto counting = make_counting_protocol(3);
    const auto majority = make_threshold_protocol({1, -1}, 0);
    struct Case {
        const TabulatedProtocol* protocol;
        std::vector<std::uint64_t> counts;
    };
    const std::vector<Case> cases = {
        {counting.get(), {5, 2}}, {counting.get(), {3, 4}},  {counting.get(), {0, 8}},
        {majority.get(), {3, 4}}, {majority.get(), {4, 4}}, {majority.get(), {6, 1}},
    };
    for (const Case& c : cases) {
        const auto initial = CountConfiguration::from_input_counts(*c.protocol, c.counts);
        const std::string what = "|Q|=" + std::to_string(c.protocol->num_states()) +
                                 " counts {" + std::to_string(c.counts[0]) + ", " +
                                 std::to_string(c.counts[1]) + "}";
        const StableComputationResult pairwise = analyze_stable_computation(*c.protocol, initial);
        ASSERT_GT(pairwise.reachable_configurations, 1u) << what;
        expect_same_analysis(pairwise,
                             analyze_multiway_stable_computation(
                                 PairwiseAsMultiway(*c.protocol), initial),
                             what + " as multiway");
        expect_same_analysis(pairwise,
                             analyze_birth_death_stable_computation(
                                 PairwiseAsBirthDeath(*c.protocol), initial),
                             what + " as birth-death");
    }
}

/// The message of the std::runtime_error `analyze` throws, or "no error".
template <class Analyze>
std::string runtime_error_of(const Analyze& analyze) {
    try {
        analyze();
    } catch (const std::runtime_error& error) {
        return error.what();
    }
    return "no error";
}

TEST(Explorer, EveryFamilyReportsTheConfigurationLimitUnderItsOwnName) {
    const auto counting = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*counting, {4, 8});
    ASSERT_GT(analyze_stable_computation(*counting, initial).reachable_configurations, 3u);

    EXPECT_EQ(runtime_error_of([&] { analyze_stable_computation(*counting, initial, 3); }),
              "analyze_stable_computation: reachable set exceeds max_configs");
    EXPECT_EQ(runtime_error_of([&] {
                  analyze_multiway_stable_computation(PairwiseAsMultiway(*counting), initial, 3);
              }),
              "analyze_multiway_stable_computation: reachable set exceeds max_configs");
    EXPECT_EQ(runtime_error_of([&] {
                  analyze_birth_death_stable_computation(PairwiseAsBirthDeath(*counting), initial,
                                                         3);
              }),
              "analyze_birth_death_stable_computation: reachable set exceeds max_configs");

    // The native demo protocols hit the same limit.
    const auto coincidence = make_multiway_coincidence_protocol(3);
    CountConfiguration marked(coincidence->num_states());
    marked.add(0, 6);
    marked.add(1, 4);
    EXPECT_NE(runtime_error_of([&] {
                  analyze_multiway_stable_computation(*coincidence, marked, 2);
              }).find("analyze_multiway_stable_computation"),
              std::string::npos);
    const auto spawning = make_spawning_counter_protocol(3);
    CountConfiguration seeds(spawning->num_states());
    seeds.add(0, 2);
    seeds.add(3, 3);
    EXPECT_NE(runtime_error_of([&] {
                  analyze_birth_death_stable_computation(*spawning, seeds, 2);
              }).find("analyze_birth_death_stable_computation"),
              std::string::npos);
}

/// Sample mean and its standard error.
struct SampleMean {
    double mean = 0.0;
    double standard_error = 0.0;
};

SampleMean sample_mean(const std::vector<double>& samples) {
    const double n = static_cast<double>(samples.size());
    double sum = 0.0;
    for (const double x : samples) sum += x;
    const double mean = sum / n;
    double squares = 0.0;
    for (const double x : samples) squares += (x - mean) * (x - mean);
    return {mean, std::sqrt(squares / (n - 1.0) / n)};
}

// Every engine stops at its first silent configuration, so the mean
// interaction count of a silent stop is the chain's expected hitting time
// of the silent set, on the agent array as on count-batch.
//
// The adaptive row runs leader election with x* = 1, between the signals at
// 8 leaders (1.23) and at 7 (0.92): super-steps while at least 8 leaders
// remain, count-batch steps after.  A super-step at n = 10 executes at most
// 6 interactions, so it leaves at least 2 leaders; silence falls inside a
// count-batch step and the stop index is exact.  (The collapsed engine
// stays out: its stop can overshoot within a super-step.)
TEST(ExactChain, TimeToSilenceMatchesExpectedHittingTime) {
    struct Case {
        const char* name;
        std::unique_ptr<TabulatedProtocol> protocol;
        std::vector<std::uint64_t> counts;
        std::vector<SimulationEngine> engines;
    };
    constexpr SimulationEngine kAgent = SimulationEngine::kAgentArray;
    constexpr SimulationEngine kBatch = SimulationEngine::kCountBatch;
    std::vector<Case> cases;
    cases.push_back({"epidemic n=12", make_epidemic_protocol(), {11, 1}, {kBatch, kAgent}});
    cases.push_back({"leader election n=10", make_leader_election_protocol(), {10},
                     {kBatch, kAgent, SimulationEngine::kAdaptive}});
    for (const Case& c : cases) {
        const TabulatedProtocol& protocol = *c.protocol;
        const auto initial = CountConfiguration::from_input_counts(protocol, c.counts);
        const double exact = expected_hitting_time(
            protocol, initial,
            [&](const CountConfiguration& config) { return config.is_silent(protocol); });

        for (const SimulationEngine engine : c.engines) {
            std::vector<double> times;
            for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
                RunOptions options;
                options.engine = engine;
                options.adaptive.crossover = 1.0;
                options.max_interactions = 1u << 20;
                options.seed = seed;
                const RunResult result = run_simulation(protocol, initial, options);
                ASSERT_EQ(result.stop_reason, StopReason::kSilent)
                    << c.name << " engine " << static_cast<int>(engine) << " seed " << seed;
                times.push_back(static_cast<double>(result.interactions));
            }
            const SampleMean sampled = sample_mean(times);
            EXPECT_LE(std::fabs(sampled.mean - exact), 4.0 * sampled.standard_error)
                << c.name << " engine " << static_cast<int>(engine) << ": exact " << exact
                << ", sampled " << sampled.mean << " +- " << sampled.standard_error;
        }
    }
}

}  // namespace
}  // namespace popproto
