// FeistelPermutation and the lazy epoch permutations built on it:
// bijectivity over awkward domains, chi-square parity with the materialized
// Fisher-Yates shuffle it replaced, sweep epoch cover and mid-epoch
// save/restore, exact silence under the deterministic cover models, and the
// memory headline — sweep/adversarial epochs at n = 2^16, where the
// materialized permutation alone was ~34 GB.

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/configuration.h"
#include "core/feistel.h"
#include "core/interaction_model.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "protocols/epidemic.h"
#include "scenarios/adversarial.h"
#include "scenarios/scenario_spec.h"

namespace popproto {
namespace {

TEST(FeistelPermutation, IsABijectionOnAwkwardDomains) {
    Rng rng(17);
    // Powers of two, one-off-from-powers, tiny and prime domains: the
    // cycle-walking has to close over each one exactly.
    for (const std::uint64_t domain : {1ull, 2ull, 3ull, 5ull, 12ull, 97ull, 380ull,
                                       1000ull, 4095ull, 4096ull, 4097ull}) {
        const FeistelPermutation perm(domain, rng);
        std::set<std::uint64_t> images;
        for (std::uint64_t index = 0; index < domain; ++index) {
            const std::uint64_t image = perm(index);
            EXPECT_LT(image, domain);
            images.insert(image);
        }
        EXPECT_EQ(images.size(), domain) << "domain " << domain;
    }
}

TEST(FeistelPermutation, SaveRestoreKeysReproduceTheMap) {
    Rng rng(5);
    const FeistelPermutation original(380, rng);
    const FeistelPermutation restored(380, original.keys());
    for (std::uint64_t index = 0; index < 380; ++index)
        EXPECT_EQ(original(index), restored(index));
}

/// Chi-square statistic of an observed histogram against the uniform
/// expectation over `cells`.
double chi_square(const std::vector<std::uint64_t>& histogram, double samples_per_cell) {
    double chi2 = 0.0;
    for (const std::uint64_t observed : histogram) {
        const double delta = static_cast<double>(observed) - samples_per_cell;
        chi2 += delta * delta / samples_per_cell;
    }
    return chi2;
}

// Parity with the materialized shuffle: over many rekeys, the image of a
// fixed position must be uniform over the domain, exactly like the first
// element of a Fisher-Yates permutation.  Both statistics stay under the
// same df=29 threshold (chi2_{0.999,29} ~ 58.3 — a 1-in-1000 flake bound,
// pinned by fixed seeds).
TEST(FeistelPermutation, ChiSquareParityWithFisherYates) {
    constexpr std::uint64_t kDomain = 30;
    constexpr int kTrials = 3000;
    constexpr double kThreshold = 58.3;

    Rng rng(23);
    for (const std::uint64_t position : {std::uint64_t{0}, std::uint64_t{17}}) {
        std::vector<std::uint64_t> feistel_hist(kDomain, 0);
        for (int trial = 0; trial < kTrials; ++trial) {
            const FeistelPermutation perm(kDomain, rng);
            ++feistel_hist[perm(position)];
        }
        EXPECT_LT(chi_square(feistel_hist, static_cast<double>(kTrials) / kDomain),
                  kThreshold)
            << "position " << position;
    }

    // The reference: Fisher-Yates from the same generator.
    std::vector<std::uint64_t> shuffle_hist(kDomain, 0);
    std::vector<std::uint64_t> permutation(kDomain);
    for (int trial = 0; trial < kTrials; ++trial) {
        for (std::uint64_t v = 0; v < kDomain; ++v) permutation[v] = v;
        for (std::size_t i = kDomain; i > 1; --i)
            std::swap(permutation[i - 1], permutation[rng.below(i)]);
        ++shuffle_hist[permutation[0]];
    }
    EXPECT_LT(chi_square(shuffle_hist, static_cast<double>(kTrials) / kDomain), kThreshold);
}

TEST(SweepPairModel, EachEpochCoversEveryOrderedPairOnce) {
    constexpr std::uint64_t kAgents = 5;
    constexpr std::uint64_t kPairs = kAgents * (kAgents - 1);
    SweepPairModel model(kAgents, 42);
    for (int epoch = 0; epoch < 3; ++epoch) {
        std::set<AgentPair> seen;
        for (std::uint64_t step = 0; step < kPairs; ++step) {
            const AgentPair pair = model.next_pair();
            EXPECT_NE(pair.first, pair.second);
            EXPECT_LT(pair.first, kAgents);
            EXPECT_LT(pair.second, kAgents);
            seen.insert(pair);
        }
        EXPECT_EQ(seen.size(), kPairs) << "epoch " << epoch;
    }
}

TEST(SweepPairModel, MidEpochSaveRestoreContinuesTheSequence) {
    SweepPairModel original(6, 9);
    for (int step = 0; step < 13; ++step) original.next_pair();

    std::vector<std::uint64_t> words;
    original.save_state(words);
    // O(1) state: rng (4) + cursor (1) + round keys (8) regardless of n.
    EXPECT_EQ(words.size(), 5 + FeistelPermutation::kRounds);

    SweepPairModel restored(6, 1234);  // different seed: state must overwrite it
    restored.restore_state(words);
    for (int step = 0; step < 100; ++step)
        EXPECT_EQ(restored.next_pair(), original.next_pair()) << "step " << step;
}

TEST(SweepPairModel, RestoreValidatesCursorAndLength) {
    SweepPairModel model(4, 7);  // 12 pairs
    std::vector<std::uint64_t> words;
    model.save_state(words);

    std::vector<std::uint64_t> bad_cursor = words;
    bad_cursor[4] = 10000;
    EXPECT_THROW(model.restore_state(bad_cursor), std::invalid_argument);

    std::vector<std::uint64_t> truncated = words;
    truncated.pop_back();
    EXPECT_THROW(model.restore_state(truncated), std::invalid_argument);
}

// The memory headline: at n = 2^16 an epoch spans 4.29e9 ordered pairs.
// Materialized, that permutation alone was ~34 GB; lazily it is 13 words,
// so the models construct and step instantly in test-sized memory.
TEST(LazyEpochPermutations, SweepAndAdversarialRunAtSixtyFourKAgents) {
    constexpr std::uint64_t kAgents = 1 << 16;

    SweepPairModel sweep(kAgents, 3);
    std::set<AgentPair> sweep_pairs;
    for (int step = 0; step < 4096; ++step) {
        const AgentPair pair = sweep.next_pair();
        ASSERT_NE(pair.first, pair.second);
        ASSERT_LT(pair.first, kAgents);
        ASSERT_LT(pair.second, kAgents);
        sweep_pairs.insert(pair);
    }
    // One epoch never repeats a pair, so a 4096-step prefix is all distinct.
    EXPECT_EQ(sweep_pairs.size(), 4096u);

    const auto protocol = make_epidemic_protocol();
    AdversarialCoverModel adversarial(*protocol, kAgents, 16);
    std::vector<State> states(kAgents, 0);
    states.back() = 1;  // one infected agent
    Rng rng(3);
    for (int step = 0; step < 4096; ++step) {
        const AgentPair pair = adversarial.propose_pair(rng, states);
        ASSERT_NE(pair.first, pair.second);
        ASSERT_LT(pair.first, kAgents);
        ASSERT_LT(pair.second, kAgents);
    }

    // And an actual kernel run: a capped-budget scenario run at n = 2^16
    // completes without materializing anything quadratic.
    ScenarioSpec spec;
    spec.model = "sweep";
    RunOptions options;
    options.seed = 3;
    options.max_interactions = 1 << 16;
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kAgents - 1, 1});
    const RunResult result = run_scenario(*protocol, initial, spec, options);
    EXPECT_EQ(result.stop_reason, StopReason::kBudget);
    EXPECT_EQ(result.interactions, std::uint64_t{1} << 16);
}

// Exact silence unpins the deterministic cover models from the periodic
// probe: the run halts at the very interaction that produced silence
// (interactions == last_output_change for the epidemic, whose final
// infection is an output change).
TEST(ExactSilence, HaltsAtFirstSilentConfiguration) {
    const auto protocol = make_epidemic_protocol();
    constexpr std::uint64_t kAgents = 20;
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kAgents - 1, 1});

    for (const char* model : {"round_robin", "sweep"}) {
        ScenarioSpec spec;
        spec.model = model;
        RunOptions options;
        options.seed = 3;
        const RunResult exact = run_scenario(*protocol, initial, spec, options);
        EXPECT_EQ(exact.stop_reason, StopReason::kSilent) << model;
        EXPECT_EQ(exact.interactions, exact.last_output_change) << model;
        EXPECT_EQ(exact.effective_interactions, kAgents - 1) << model;
    }
}

}  // namespace
}  // namespace popproto
