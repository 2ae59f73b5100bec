// Table-driven logarithms with a stated error bound, and the certified
// geometric skip built on them.  Private to src/core: Rng::geometric_skips
// (rng.cpp) and the collapsed engine's run-length inversion
// (collapsed_simulator.cpp) call them; the tests check them against libm.
//
// negative_log(x) splits x = m 2^e with m in [1, 2), takes ln c for the
// centre c of m's 1/256-wide bin from a 4 KB table, and evaluates
// ln(m / c) = ln(1 + r), |r| <= 2^-9, by its degree-5 Taylor polynomial.
// Its absolute error is at most 2^-52 (1 + |ln x|): below 1.6e-13 on the
// whole normal range, and about 1e-16 for x near 1.  negative_log_estimate
// stops at the first-order term of ln(1 + r) (error below 2^-19), which is
// all a search's starting point needs.
//
// certified_geometric_skips(u, p) returns floor(ln u / ln(1 - p)) *exactly
// as libm computes it* (std::floor(std::log(u) / std::log1p(-p))) whenever
// the error bound of its own quotient, plus a margin for libm's rounding
// (up to one ulp each for log and log1p and half an ulp for the quotient,
// doubled), cannot straddle an integer; otherwise, and for p outside
// [2^-40, 1), it returns kUndecided and the caller evaluates the libm
// expression.  The fast path never decides a result of 2^46 or more, so the
// 10^18 cap is the fallback's alone.

#ifndef POPPROTO_CORE_FAST_LOG_H
#define POPPROTO_CORE_FAST_LOG_H

#include <cstdint>

namespace popproto::rng_detail {

/// -ln x for a normal double x in (0, 1] (0 and subnormals are not
/// accepted), to within 2^-52 (1 + |ln x|).
double negative_log(double x) noexcept;

/// The same table to first order in the bin offset: -ln x to within 2^-19
/// (plus the 2^-52 (1 + |ln x|) of negative_log), at the cost of a few
/// flops.  For the starting point of a search that ends on an exact
/// answer, as the collapsed engine's run-length inversion does.
double negative_log_estimate(double x) noexcept;

/// certified_geometric_skips' answer when it cannot decide.
inline constexpr std::uint64_t kUndecided = ~std::uint64_t{0};

/// floor(log(u) / log1p(-p)) as libm evaluates it, or kUndecided.
/// Precondition: u in (0, 1) is a normal double.
std::uint64_t certified_geometric_skips(double u, double p) noexcept;

/// What Rng::geometric_skips(p) returns when its uniform01 draw is u:
/// 0 for p >= 1; otherwise floor(log u' / log1p(-p)) with u' = u, or
/// 1e-300 for u = 0, capped at 10^18 — from the certified fast path when it
/// decides, and from the libm expression itself when it does not.
std::uint64_t geometric_skips(double u, double p) noexcept;

}  // namespace popproto::rng_detail

#endif  // POPPROTO_CORE_FAST_LOG_H
