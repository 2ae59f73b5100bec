// Chi-square goodness-of-fit coverage for the exact Rng samplers: both
// branches of the hypergeometric sampler powering the collapsed super-step
// engine (the mode-centered inverse-CDF walk below variance 20, Stadlober's
// ratio-of-uniforms sampler at and above it, with Stirling log-factorials
// for large arguments), and geometric_skips, whose certified table-driven
// fast path must also equal libm's inversion formula draw for draw.  All
// tests use fixed seeds and the 0.999-quantile helper from test_util.h, so
// they are deterministic; a wrong sampler overshoots the critical value by
// orders of magnitude.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fast_log.h"
#include "core/rng.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::chi_square_gof;
using testutil::ChiSquareResult;

std::vector<double> hypergeometric_pmf(std::uint64_t succ, std::uint64_t fail,
                                       std::uint64_t draws) {
    const auto lchoose = [](double a, double b) {
        return std::lgamma(a + 1.0) - std::lgamma(b + 1.0) - std::lgamma(a - b + 1.0);
    };
    const std::uint64_t lo = draws > fail ? draws - fail : 0;
    const std::uint64_t hi = draws < succ ? draws : succ;
    std::vector<double> pmf(hi + 1, 0.0);
    for (std::uint64_t k = lo; k <= hi; ++k) {
        pmf[k] = std::exp(lchoose(static_cast<double>(succ), static_cast<double>(k)) +
                          lchoose(static_cast<double>(fail), static_cast<double>(draws - k)) -
                          lchoose(static_cast<double>(succ + fail),
                                  static_cast<double>(draws)));
    }
    return pmf;
}

constexpr std::uint64_t kDraws = 40000;

TEST(RngHypergeometric, MatchesPmfAcrossRegimes) {
    struct Case {
        std::uint64_t succ;
        std::uint64_t fail;
        std::uint64_t draws;
    };
    // Balanced, lower-support-truncated (draws > fail forces k >= 10),
    // near-complete draw, tiny population, success-heavy, and mean << 1.
    const std::vector<Case> cases = {{30, 70, 20}, {40, 10, 20}, {25, 25, 48},
                                     {4, 3, 5},    {1000, 10, 5}, {2, 1000, 30}};
    std::uint64_t seed = 23;
    for (const Case& c : cases) {
        SCOPED_TRACE("hypergeometric(" + std::to_string(c.succ) + ", " +
                     std::to_string(c.fail) + ", " + std::to_string(c.draws) + ")");
        Rng rng(seed++);
        const std::uint64_t hi = c.draws < c.succ ? c.draws : c.succ;
        std::vector<std::uint64_t> observed(hi + 1, 0);
        for (std::uint64_t i = 0; i < kDraws; ++i) {
            const std::uint64_t k = rng.hypergeometric(c.succ, c.fail, c.draws);
            ASSERT_LE(k, hi);
            ASSERT_GE(k + c.fail, c.draws);  // k >= draws - fail
            ++observed[k];
        }
        const ChiSquareResult gof =
            chi_square_gof(observed, hypergeometric_pmf(c.succ, c.fail, c.draws), kDraws);
        EXPECT_TRUE(gof.pass) << gof.summary();
    }
}

// Reference pmf in long double over the window [first, last] of the
// support; draws outside the window land in chi_square_gof's tail bin.
std::vector<double> hypergeometric_pmf_window(std::uint64_t succ, std::uint64_t fail,
                                              std::uint64_t draws, std::uint64_t first,
                                              std::uint64_t last) {
    const auto lchoose = [](long double a, long double b) {
        return std::lgammal(a + 1.0L) - std::lgammal(b + 1.0L) - std::lgammal(a - b + 1.0L);
    };
    const long double log_total = lchoose(static_cast<long double>(succ + fail),
                                          static_cast<long double>(draws));
    std::vector<double> pmf;
    for (std::uint64_t k = first; k <= last; ++k) {
        pmf.push_back(static_cast<double>(
            std::exp(lchoose(static_cast<long double>(succ), static_cast<long double>(k)) +
                      lchoose(static_cast<long double>(fail),
                              static_cast<long double>(draws - k)) -
                      log_total)));
    }
    return pmf;
}

TEST(RngHypergeometric, MatchesPmfInRatioOfUniformsAndStirlingRegimes) {
    struct Case {
        std::uint64_t succ;
        std::uint64_t fail;
        std::uint64_t draws;
    };
    // Variance sigma^2 = d (s/N) (f/N) (N-d) / (N-1) picks the branch: the
    // walk below 20, ratio-of-uniforms at and above it.
    const std::vector<Case> cases = {
        {8388608, 8388608, 2568},   // n = 2^24 population draw, I/n = 0.5 (sigma^2 ~ 642)
        {167772, 16609444, 2568},   // n = 2^24 population draw, I/n = 0.01 (sigma^2 ~ 25)
        {16609444, 167772, 2568},   // successes > failures (sigma^2 ~ 25)
        {300, 500, 600},            // draws > half the population (sigma^2 ~ 35)
        {500, 300, 600},            // both symmetry flips (sigma^2 ~ 35)
        {200, 200, 200},            // support [0, 200] at sigma ~ 5 (sigma^2 ~ 25)
        {3048, 3048, 2000},         // arguments straddle the 2048-entry table (sigma^2 ~ 336)
        {8388608, 8388608, 80},     // just below the crossover (sigma^2 = 19.9999): walk
        {8388608, 8388608, 81},     // just above the crossover (sigma^2 = 20.25)
        {8388608, 8388608, 400000}, // sigma^2 ~ 97,600
    };
    constexpr std::uint64_t kLargeDraws = 200000;
    std::uint64_t seed = 41;
    for (const Case& c : cases) {
        SCOPED_TRACE("hypergeometric(" + std::to_string(c.succ) + ", " +
                     std::to_string(c.fail) + ", " + std::to_string(c.draws) + ")");
        const double total = static_cast<double>(c.succ + c.fail);
        const double mean = static_cast<double>(c.draws) * static_cast<double>(c.succ) / total;
        const double sigma = std::sqrt(mean * (static_cast<double>(c.fail) / total) *
                                       (total - static_cast<double>(c.draws)) / (total - 1.0));
        const std::uint64_t lo = c.draws > c.fail ? c.draws - c.fail : 0;
        const std::uint64_t hi = c.draws < c.succ ? c.draws : c.succ;
        // A +-12 sigma window holds all but ~1e-30 of the mass.
        const auto first = static_cast<std::uint64_t>(
            std::max(static_cast<double>(lo), std::floor(mean - 12.0 * sigma)));
        const auto last = static_cast<std::uint64_t>(
            std::min(static_cast<double>(hi), std::ceil(mean + 12.0 * sigma)));

        Rng rng(seed++);
        std::vector<std::uint64_t> observed(last - first + 1, 0);
        for (std::uint64_t i = 0; i < kLargeDraws; ++i) {
            const std::uint64_t k = rng.hypergeometric(c.succ, c.fail, c.draws);
            ASSERT_LE(k, hi);
            ASSERT_GE(k, lo);
            if (k >= first && k <= last) ++observed[k - first];
        }
        const ChiSquareResult gof = chi_square_gof(
            observed, hypergeometric_pmf_window(c.succ, c.fail, c.draws, first, last),
            kLargeDraws);
        EXPECT_TRUE(gof.pass) << gof.summary();
    }
}

TEST(RngHypergeometric, BoundariesConsumeNoRandomness) {
    Rng rng(13);
    const Rng::StreamState before = rng.save_state();
    EXPECT_EQ(rng.hypergeometric(10, 20, 0), 0u);   // draws == 0
    EXPECT_EQ(rng.hypergeometric(0, 20, 5), 0u);    // no successes
    EXPECT_EQ(rng.hypergeometric(10, 0, 5), 5u);    // no failures
    EXPECT_EQ(rng.hypergeometric(10, 20, 30), 10u); // draw everything
    EXPECT_EQ(rng.hypergeometric(10, 20, 99), 10u); // clamped overdraw
    EXPECT_EQ(rng.hypergeometric(3, 1, 4), 3u);     // degenerate support
    EXPECT_EQ(rng.save_state(), before);
}

TEST(RngGeometricSkips, MatchesPmfAcrossRegimes) {
    // Retroactive GOF for the PR 1 sampler: P[k skips] = p (1-p)^k.
    const std::vector<double> probabilities = {0.5, 0.05, 0.9};
    std::uint64_t seed = 31;
    for (const double p : probabilities) {
        SCOPED_TRACE("geometric_skips(" + std::to_string(p) + ")");
        Rng rng(seed++);
        constexpr std::size_t kCategories = 256;  // tail folds into the helper's extra bin
        std::vector<std::uint64_t> observed(kCategories, 0);
        std::vector<double> pmf(kCategories, 0.0);
        double mass = p;
        for (std::size_t k = 0; k < kCategories; ++k) {
            pmf[k] = mass;
            mass *= 1.0 - p;
        }
        for (std::uint64_t i = 0; i < kDraws; ++i) {
            const std::uint64_t k = rng.geometric_skips(p);
            if (k < kCategories) ++observed[k];
        }
        const ChiSquareResult gof = chi_square_gof(observed, pmf, kDraws);
        EXPECT_TRUE(gof.pass) << gof.summary();
    }
}

/// floor(log u / log1p(-p)) with geometric_skips' substitution of u = 0 and
/// its 10^18 cap, evaluated with libm independently of the library.
std::uint64_t inversion_formula(double u, double p) {
    if (p >= 1.0) return 0;
    if (u <= 0.0) u = 1e-300;
    const double skips = std::floor(std::log(u) / std::log1p(-p));
    if (skips < 0.0) return 0;
    if (skips > 1e18) return static_cast<std::uint64_t>(1e18);
    return static_cast<std::uint64_t>(skips);
}

TEST(RngGeometricSkips, FastPathEqualsTheInversionFormula) {
    // Every seeded trajectory depends on these values, so the fast path
    // must not move one: whenever it certifies a floor, that floor must be
    // libm's, and geometric_skips must return libm's everywhere else.
    std::uint64_t mismatches = 0;
    std::uint64_t certified = 0;
    std::uint64_t certifiable = 0;  // pairs with p in [2^-30, 1)
    const auto check = [&](double u, double p) {
        const std::uint64_t expected = inversion_formula(u, p);
        const std::uint64_t got = rng_detail::geometric_skips(u, p);
        const std::uint64_t fast =
            u > 0.0 && p < 1.0 ? rng_detail::certified_geometric_skips(u, p)
                               : rng_detail::kUndecided;
        if (p >= 0x1p-30 && p < 1.0 && u > 0.0) {
            ++certifiable;
            certified += fast != rng_detail::kUndecided ? 1 : 0;
        }
        if (got == expected && (fast == rng_detail::kUndecided || fast == expected)) return;
        if (++mismatches <= 5)
            ADD_FAILURE() << "u = " << std::hexfloat << u << ", p = " << p << std::defaultfloat
                          << ": formula " << expected << ", geometric_skips " << got
                          << ", fast path " << fast;
    };

    // 10^7 seeded pairs, p log-uniform on [2^-60, 1).
    Rng rng(2604);
    for (int i = 0; i < 10'000'000; ++i) {
        const double u = rng.uniform01();
        check(u, std::exp2(-60.0 * rng.uniform01()));
    }
    // u = 0 (geometric_skips substitutes 1e-300), and u one ulp either side
    // of (1 - p)^k, where the floor steps from k - 1 to k.
    const double probabilities[] = {0.5,     0.25,    0.1,     1e-3,   0x1p-12, 0x1.0000000000001p-12,
                                    0x1p-20, 0x1p-33, 0x1p-40, 0.9999, 0.75};
    for (const double p : probabilities) {
        check(0.0, p);
        for (int k = 1; k <= 64; ++k) {
            const double boundary = std::exp(k * std::log1p(-p));
            if (!(boundary > 0.0 && boundary < 1.0)) continue;
            for (double u = std::nextafter(boundary, 0.0), steps = 0; steps < 3;
                 u = std::nextafter(u, 1.0), ++steps)
                check(u, p);
        }
    }
    // p = 0.5, p just below 1, and p small enough for the 10^18 cap.
    for (int i = 0; i < 100'000; ++i) {
        const double u = rng.uniform01();
        check(u, 0.5);
        check(u, std::nextafter(1.0, 0.0));
        check(u, 1.0 - 0x1p-30);
        check(u, 1e-19);
        check(u, 0x1p-64);
    }
    EXPECT_EQ(inversion_formula(0.5, 1e-19), static_cast<std::uint64_t>(1e18));
    EXPECT_EQ(mismatches, 0u);
    // The fast path carries the load: it decides essentially every draw
    // whose p keeps the quotient below 2^36.
    EXPECT_GT(certifiable, 4'000'000u);
    EXPECT_GE(static_cast<double>(certified), 0.999 * static_cast<double>(certifiable));

    // The member draws one uniform01 per call and returns the pure function
    // of it.
    Rng draws(77);
    Rng uniforms(77);
    for (int i = 0; i < 10'000; ++i) {
        const double p = std::exp2(-40.0 * (i % 97 + 1) / 98.0);  // below 1: one draw
        EXPECT_EQ(draws.geometric_skips(p), inversion_formula(uniforms.uniform01(), p)) << i;
    }

    // negative_log keeps its stated bound, 2^-52 (1 + |ln x|), against libm's
    // log (within an ulp of its own).
    for (int i = 0; i < 1'000'000; ++i) {
        const double x = i % 2 == 0 ? rng.uniform01() : std::exp2(-1000.0 * rng.uniform01());
        if (x <= 0.0) continue;
        const double exact = -std::log(x);
        ASSERT_LE(std::abs(rng_detail::negative_log(x) - exact),
                  0x1p-52 * (1.0 + exact) + 0x1p-52 * exact)
            << std::hexfloat << x;
    }
}

TEST(RngGeometricSkips, CertainSuccessConsumesNoRandomness) {
    Rng rng(17);
    const Rng::StreamState before = rng.save_state();
    EXPECT_EQ(rng.geometric_skips(1.0), 0u);
    EXPECT_EQ(rng.geometric_skips(2.0), 0u);
    EXPECT_EQ(rng.save_state(), before);
}

TEST(RngSamplers, SaveRestoreReplaysExactly) {
    // The samplers are stateless apart from the stream position, so a
    // saved state replays an interleaved draw sequence bit for bit — the
    // property collapsed-engine checkpoints rely on.
    Rng rng(101);
    rng.hypergeometric(37, 51, 42);  // advance to an arbitrary position
    const Rng::StreamState cut = rng.save_state();

    std::vector<std::uint64_t> first;
    for (int i = 0; i < 50; ++i) {
        first.push_back(rng.hypergeometric(3000, 7000, 1000));  // ratio of uniforms
        first.push_back(rng.hypergeometric(60, 40, 25));        // walk
        first.push_back(rng.geometric_skips(0.125));
    }

    rng.restore_state(cut);
    std::vector<std::uint64_t> second;
    for (int i = 0; i < 50; ++i) {
        second.push_back(rng.hypergeometric(3000, 7000, 1000));
        second.push_back(rng.hypergeometric(60, 40, 25));
        second.push_back(rng.geometric_skips(0.125));
    }
    EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// jump / split: the stream-partitioning substrate of the parallel collapsed
// engine (K successive splits = K pairwise-disjoint 2^128-draw blocks).

TEST(RngJump, IsDeterministicAndMovesTheStream) {
    Rng jumped(42);
    Rng jumped_again(42);
    Rng stayed(42);
    jumped.jump();
    jumped_again.jump();
    // Same seed + jump lands on the same position...
    EXPECT_EQ(jumped.save_state(), jumped_again.save_state());
    for (int i = 0; i < 64; ++i) EXPECT_EQ(jumped(), jumped_again());
    // ...which is a different position than the unjumped stream.
    EXPECT_NE(jumped.save_state(), stayed.save_state());
    bool any_difference = false;
    for (int i = 0; i < 64; ++i) any_difference |= (jumped() != stayed());
    EXPECT_TRUE(any_difference);
}

TEST(RngSplit, ChildContinuesTheParentStreamAndParentJumpsPast) {
    // split() hands the child the parent's current position and jumps the
    // parent 2^128 ahead: the child replays exactly what the unsplit parent
    // would have produced, and the parent equals a jumped copy.
    Rng parent(7);
    Rng unsplit(7);
    Rng jumped(7);
    jumped.jump();
    Rng child = parent.split();
    for (int i = 0; i < 256; ++i) EXPECT_EQ(child(), unsplit());
    EXPECT_EQ(parent.save_state(), jumped.save_state());
}

TEST(RngSplit, SuccessiveSplitsAreDistinctAndOrderDeterministic) {
    Rng parent_a(99);
    Rng parent_b(99);
    std::vector<Rng> children_a;
    std::vector<Rng> children_b;
    for (int k = 0; k < 4; ++k) {
        children_a.push_back(parent_a.split());
        children_b.push_back(parent_b.split());
    }
    for (int k = 0; k < 4; ++k) {
        // Deterministic in (parent state, split order)...
        EXPECT_EQ(children_a[k].save_state(), children_b[k].save_state());
        // ...and each child starts a distinct block.
        for (int j = k + 1; j < 4; ++j)
            EXPECT_NE(children_a[k].save_state(), children_a[j].save_state());
    }
}

TEST(RngSplit, ChildStreamsSaveAndRestoreLikeAnyRng) {
    // Checkpoints of the parallel engine carry shard (= child) streams;
    // a restored child must replay interleaved sampler draws bit for bit.
    Rng parent(2024);
    parent.split();  // discard one block so the child below is mid-sequence
    Rng child = parent.split();
    child.hypergeometric(91, 27, 77);  // advance to an arbitrary position
    const Rng::StreamState cut = child.save_state();

    std::vector<std::uint64_t> first;
    for (int i = 0; i < 40; ++i) {
        first.push_back(child());
        first.push_back(child.hypergeometric(33, 21, 17));
        first.push_back(child.hypergeometric(640, 640, 320));
    }

    Rng fresh(1);  // restore into an unrelated generator
    fresh.restore_state(cut);
    std::vector<std::uint64_t> second;
    for (int i = 0; i < 40; ++i) {
        second.push_back(fresh());
        second.push_back(fresh.hypergeometric(33, 21, 17));
        second.push_back(fresh.hypergeometric(640, 640, 320));
    }
    EXPECT_EQ(first, second);
}

TEST(RngSplit, InterleavedChildDrawsStayUniform) {
    // Round-robin over 4 sibling child streams and chi-square the low six
    // bits of each draw: a broken jump polynomial (overlapping or
    // correlated blocks) skews this wildly, a correct one is uniform over
    // the 64 buckets.
    Rng parent(31337);
    std::vector<Rng> children;
    for (int k = 0; k < 4; ++k) children.push_back(parent.split());

    constexpr std::uint64_t kPerChild = 10000;
    std::vector<std::uint64_t> buckets(64, 0);
    for (std::uint64_t i = 0; i < kPerChild; ++i)
        for (Rng& child : children) ++buckets[child() % 64];

    const std::vector<double> uniform(64, 1.0 / 64.0);
    const ChiSquareResult gof = chi_square_gof(buckets, uniform, 4 * kPerChild);
    EXPECT_TRUE(gof.pass) << gof.summary();
}

}  // namespace
}  // namespace popproto
