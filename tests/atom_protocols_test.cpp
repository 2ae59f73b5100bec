// Lemma 5 protocols: exhaustive stable-computation checks against the
// formula evaluator, plus the structural invariants used in the proof.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>
#include <ostream>
#include <tuple>

#include "analysis/stable_computation.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "presburger/atom_protocols.h"
#include "presburger/formula.h"
#include "test_util.h"

namespace popproto {
namespace {

/// Exhaustively verifies that `protocol` stably computes `truth` for every
/// input-count assignment over populations of size 1..max_population.
void expect_stably_computes(const TabulatedProtocol& protocol, const Formula& truth,
                            std::uint64_t max_population) {
    for (std::uint64_t n = 1; n <= max_population; ++n) {
        testutil::for_each_composition(
            n, protocol.num_input_symbols(), [&](const std::vector<std::uint64_t>& counts) {
                const auto initial = CountConfiguration::from_input_counts(protocol, counts);
                const bool expected = truth.evaluate(testutil::to_signed(counts));
                EXPECT_TRUE(stably_computes_bool(protocol, initial, expected))
                    << "n=" << n << " counts[0]=" << counts[0];
            });
    }
}

struct ThresholdCase {
    std::vector<std::int64_t> coefficients;
    std::int64_t constant;
    std::uint64_t max_population;
};

// Printed as a tuple of its fields so that test names carry the case's
// values; gtest's default dump of the raw bytes includes the vector's heap
// address and so changes from run to run.
void PrintTo(const ThresholdCase& test_case, std::ostream* os) {
    *os << ::testing::PrintToString(
        std::make_tuple(test_case.coefficients, test_case.constant, test_case.max_population));
}

class ThresholdProtocolSweep : public ::testing::TestWithParam<ThresholdCase> {};

TEST_P(ThresholdProtocolSweep, StablyComputesFormula) {
    const ThresholdCase& test_case = GetParam();
    const auto protocol =
        make_threshold_protocol(test_case.coefficients, test_case.constant);
    const Formula truth = Formula::threshold(test_case.coefficients, test_case.constant);
    expect_stably_computes(*protocol, truth, test_case.max_population);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdProtocolSweep,
    ::testing::Values(ThresholdCase{{1}, 3, 6},         // x0 < 3
                      ThresholdCase{{1, -1}, 0, 6},     // x0 < x1 (majority)
                      ThresholdCase{{-1}, 0, 5},        // -x0 < 0, i.e. x0 >= 1
                      ThresholdCase{{2, -3}, 1, 5},     // 2 x0 - 3 x1 < 1
                      ThresholdCase{{1, 1}, 4, 6}));    // x0 + x1 < 4

struct RemainderCase {
    std::vector<std::int64_t> coefficients;
    std::int64_t remainder;
    std::int64_t modulus;
    std::uint64_t max_population;
};

void PrintTo(const RemainderCase& test_case, std::ostream* os) {
    *os << ::testing::PrintToString(std::make_tuple(test_case.coefficients, test_case.remainder,
                                                    test_case.modulus, test_case.max_population));
}

class RemainderProtocolSweep : public ::testing::TestWithParam<RemainderCase> {};

TEST_P(RemainderProtocolSweep, StablyComputesFormula) {
    const RemainderCase& test_case = GetParam();
    const auto protocol = make_remainder_protocol(test_case.coefficients, test_case.remainder,
                                                  test_case.modulus);
    const Formula truth =
        Formula::congruence(test_case.coefficients, test_case.remainder, test_case.modulus);
    expect_stably_computes(*protocol, truth, test_case.max_population);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RemainderProtocolSweep,
    ::testing::Values(RemainderCase{{1}, 0, 2, 7},        // parity
                      RemainderCase{{1}, 2, 3, 7},        // x = 2 (mod 3)
                      RemainderCase{{1, -2}, 0, 3, 6},    // x0 - 2 x1 = 0 (mod 3)
                      RemainderCase{{1, 1}, 1, 4, 6}));   // x0 + x1 = 1 (mod 4)

TEST(ThresholdProtocol, SingletonPopulationIsCorrectWithoutInteractions) {
    // A single agent never interacts; its initial output must already be
    // the right verdict (our refinement of the paper's construction).
    const auto protocol = make_threshold_protocol({1}, 1);  // x0 < 1
    const auto one = CountConfiguration::from_input_counts(*protocol, {1});
    EXPECT_TRUE(stably_computes_bool(*protocol, one, false));
}

TEST(ThresholdProtocol, CountSumIsConserved) {
    // The proof of Lemma 5 tracks sum_j u_j(C) = sum_i a_i x_i throughout.
    const auto protocol = make_threshold_protocol({2, -1}, 1);
    auto agents = AgentConfiguration::from_inputs(*protocol, {0, 0, 1, 1, 1});

    // Decode the count field from the state name layout: states are
    // (leader, output, u) with u = slot - s; recover u via arithmetic.
    const std::int64_t s = 2;  // max(|1|+1, max|a_i|) = 2
    const auto count_field = [&](State q) {
        return static_cast<std::int64_t>(q % (2 * s + 1)) - s;
    };
    const auto total = [&]() {
        std::int64_t sum = 0;
        for (State q : agents.states()) sum += count_field(q);
        return sum;
    };
    const std::int64_t initial_sum = total();
    EXPECT_EQ(initial_sum, 2 * 2 + (-1) * 3);  // 2 zeros coeff 2, 3 ones coeff -1

    Rng rng(17);
    for (int step = 0; step < 300; ++step) {
        const std::size_t i = rng.below(agents.size());
        std::size_t j = rng.below(agents.size() - 1);
        if (j >= i) ++j;
        agents.apply_interaction(*protocol, i, j);
        EXPECT_EQ(total(), initial_sum);
    }
}

TEST(ThresholdProtocol, LeaderCountNeverIncreases) {
    const auto protocol = make_threshold_protocol({1}, 2);
    const std::int64_t s = 3;
    const auto is_leader = [&](State q) { return q / (2 * s + 1) >= 2; };

    auto agents = AgentConfiguration::from_inputs(*protocol, {0, 0, 0, 0, 0, 0});
    Rng rng(23);
    std::size_t leaders = agents.size();
    for (int step = 0; step < 300; ++step) {
        const std::size_t i = rng.below(agents.size());
        std::size_t j = rng.below(agents.size() - 1);
        if (j >= i) ++j;
        agents.apply_interaction(*protocol, i, j);
        std::size_t now = 0;
        for (State q : agents.states()) now += is_leader(q) ? 1 : 0;
        EXPECT_LE(now, leaders);
        EXPECT_GE(now, 1u);
        leaders = now;
    }
    EXPECT_EQ(leaders, 1u);  // 300 random interactions on 6 agents suffice
}

TEST(RemainderProtocol, ConvergesUnderSimulation) {
    const auto protocol = make_remainder_protocol({1}, 0, 3);
    for (std::uint64_t ones : {30ull, 31ull, 32ull}) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {ones});
        RunOptions options;
        options.max_interactions = default_budget(ones);
        options.seed = ones;
        const RunResult result = simulate(*protocol, initial, options);
        ASSERT_TRUE(result.consensus.has_value()) << ones;
        EXPECT_EQ(*result.consensus, ones % 3 == 0 ? kOutputTrue : kOutputFalse) << ones;
    }
}

TEST(AtomProtocols, RejectEmptyAlphabetAndBadModulus) {
    EXPECT_THROW(make_threshold_protocol({}, 0), std::invalid_argument);
    EXPECT_THROW(make_remainder_protocol({}, 0, 2), std::invalid_argument);
    EXPECT_THROW(make_remainder_protocol({1}, 0, 1), std::invalid_argument);
}

TEST(AtomProtocols, RejectLayoutsPastTheStateRange) {
    // |Q| = 4 (2s + 1) with s = max(|c| + 1, max |a_i|) for a threshold, and
    // 4m for a remainder; both must fit a State, and |c| + 1 must not
    // overflow at the ends of the int64 range.
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    EXPECT_THROW(make_threshold_protocol({1}, kMax), std::invalid_argument);
    EXPECT_THROW(make_threshold_protocol({1}, kMin), std::invalid_argument);
    EXPECT_THROW(make_threshold_protocol({kMin, 1}, 0), std::invalid_argument);
    EXPECT_THROW(make_threshold_protocol({1}, std::int64_t{1} << 40), std::invalid_argument);
    EXPECT_THROW(make_remainder_protocol({1}, 0, kMax), std::invalid_argument);
    EXPECT_EQ(make_threshold_protocol({-3, 2}, -5)->num_states(), 4u * 13u);
}

}  // namespace
}  // namespace popproto
