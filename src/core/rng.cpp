#include "core/rng.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "core/fast_log.h"

namespace popproto {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
    // xoshiro must not start in the all-zero state.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::below_near_threshold(__uint128_t m, std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless method: reject while the low word is
    // under 2^64 mod bound, for exact uniformity.
    const std::uint64_t threshold = -bound % bound;
    while (static_cast<std::uint64_t>(m) < threshold)
        m = static_cast<__uint128_t>((*this)()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform01() noexcept {
    // 53 random bits scaled into [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

void Rng::jump() noexcept {
    // Blackman & Vigna's jump constants for xoshiro256**: the state-update
    // matrix raised to 2^128, expressed in the polynomial basis.
    static constexpr std::uint64_t kJump[4] = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (const std::uint64_t word : kJump) {
        for (int bit = 0; bit < 64; ++bit) {
            if (word & (std::uint64_t{1} << bit)) {
                s0 ^= state_[0];
                s1 ^= state_[1];
                s2 ^= state_[2];
                s3 ^= state_[3];
            }
            (*this)();
        }
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
}

Rng Rng::split() noexcept {
    Rng child = *this;  // child keeps the current position...
    jump();             // ...and the parent moves 2^128 draws past it
    return child;
}

Rng::StreamState Rng::save_state() const noexcept {
    StreamState state;
    for (int i = 0; i < 4; ++i) state.words[static_cast<std::size_t>(i)] = state_[i];
    return state;
}

void Rng::restore_state(const StreamState& state) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = state.words[static_cast<std::size_t>(i)];
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

namespace {

// ln(k!) for k < kLogFactorialTableSize comes from a table built once on
// first use (a thread-safe static: the sharded collapsed engine samples on
// pool threads); larger arguments use the Stirling series
//   ln x! = (x + 1/2) ln x - x + ln(2 pi) / 2 + 1/(12x) - 1/(360x^3) + 1/(1260x^5),
// whose first omitted term, 1/(1680x^7), is below 1e-26 from x = 2048 on —
// finer than the rounding of the result itself.  One log per call, against
// lgamma's several; the table stays at 16 KB to keep the resident set small.
constexpr std::size_t kLogFactorialTableSize = 2048;

double log_factorial(std::uint64_t k) noexcept {
    static const std::array<double, kLogFactorialTableSize> table = [] {
        std::array<double, kLogFactorialTableSize> t{};
        for (std::size_t i = 2; i < kLogFactorialTableSize; ++i)
            t[i] = t[i - 1] + std::log(static_cast<double>(i));
        return t;
    }();
    if (k < kLogFactorialTableSize) return table[k];
    constexpr double kHalfLogTwoPi = 0.91893853320467274178;
    const double x = static_cast<double>(k);
    const double r = 1.0 / x;
    const double r2 = r * r;
    return (x + 0.5) * std::log(x) - x + kHalfLogTwoPi +
           r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0)));
}

// Variance at which hypergeometric() switches from the mode-centered walk
// (O(sigma) pmf steps, one uniform) to the ratio-of-uniforms sampler (O(1)
// expected uniform pairs, four log-factorials each).
constexpr double kRatioOfUniformsMinVariance = 20.0;

// The mode floor((d + 1)(s + 1) / (s + f + 2)) of the hypergeometric pmf
// C(s, k) C(f, d-k) / C(s+f, d), which always lies in the support.  The
// double quotient is corrected by exact 128-bit products, so pmf(k) <=
// pmf(mode) for every k even when the quotient rounds across an integer.
std::uint64_t hypergeometric_mode(std::uint64_t s, std::uint64_t f, std::uint64_t d) noexcept {
    const std::uint64_t denominator = s + f + 2;
    const auto numerator = static_cast<__uint128_t>(d + 1) * (s + 1);
    auto mode = static_cast<std::uint64_t>(static_cast<double>(d + 1) *
                                           static_cast<double>(s + 1) /
                                           static_cast<double>(denominator));
    while (static_cast<__uint128_t>(mode) * denominator > numerator) --mode;
    while (static_cast<__uint128_t>(mode + 1) * denominator <= numerator) ++mode;
    return mode;
}

// ln [k! (s-k)! (d-k)! (f-d+k)!]: the k-dependent denominator of the
// hypergeometric pmf.
double log_pmf_denominator(std::uint64_t s, std::uint64_t f, std::uint64_t d,
                           std::uint64_t k) noexcept {
    return log_factorial(k) + log_factorial(s - k) + log_factorial(d - k) +
           log_factorial(f - d + k);
}

// Stadlober's ratio-of-uniforms sampler with the table-mountain hat
// (E. Stadlober, "The ratio of uniforms approach for generating discrete
// random variates", J. Comput. Appl. Math. 31, 1990; the "HRUA" of numpy's
// random_hypergeometric), for the reduced shape s <= f and d <= (s + f) / 2,
// where the support is [0, min(s, d)].  A point (U, V) uniform on the unit
// square maps to X = a + h (V - 1/2) / U and is accepted with K = floor(X)
// iff U^2 <= pmf(K) / pmf(mode).  The hat width h = 2 sqrt(2/e) c +
// (3 - 2 sqrt(3/e)), c = sqrt(sigma^2 + 1/2), makes the hat dominate the
// scaled pmf on the whole support, so the accepted K has exactly the
// hypergeometric law.
std::uint64_t hypergeometric_ratio_of_uniforms(Rng& rng, std::uint64_t s, std::uint64_t f,
                                               std::uint64_t d, double variance) noexcept {
    constexpr double kTwoSqrtTwoOverE = 1.7155277699214135;
    constexpr double kThreeMinusTwoSqrtThreeOverE = 0.8989161620588988;
    const double a =
        static_cast<double>(d) * static_cast<double>(s) / static_cast<double>(s + f) + 0.5;
    const double h =
        kTwoSqrtTwoOverE * std::sqrt(variance + 0.5) + kThreeMinusTwoSqrtThreeOverE;
    const double log_mode_denominator =
        log_pmf_denominator(s, f, d, hypergeometric_mode(s, f, d));

    // One past the support's top, so the whole support is reachable.
    const double end = static_cast<double>(std::min(s, d)) + 1.0;
    while (true) {
        const double u = rng.uniform01();
        const double v = rng.uniform01();
        if (u == 0.0) continue;  // X would be infinite or NaN
        const double x = a + h * (v - 0.5) / u;
        if (!(x >= 0.0 && x < end)) continue;
        const auto k = static_cast<std::uint64_t>(x);
        // log(pmf(k) / pmf(mode)) <= 0.
        const double t = log_mode_denominator - log_pmf_denominator(s, f, d, k);
        if (u * (4.0 - u) - 3.0 <= t) return k;  // squeeze: 2 ln u <= u(4 - u) - 3
        if (u * (u - t) >= 1.0) continue;        // squeeze: 2 ln u >= u - 1/u
        if (2.0 * std::log(u) <= t) return k;
    }
}

}  // namespace

std::uint64_t Rng::hypergeometric(std::uint64_t successes, std::uint64_t failures,
                                  std::uint64_t draws) noexcept {
    const std::uint64_t total = successes + failures;
    if (draws == 0 || successes == 0) return 0;
    if (draws >= total) return successes;     // draw everything (overdraw clamps)
    if (failures == 0) return draws;          // every draw is a success

    // Support of the success count.
    const std::uint64_t lo = draws > failures ? draws - failures : 0;
    const std::uint64_t hi = draws < successes ? draws : successes;
    if (lo == hi) return lo;

    const double s = static_cast<double>(successes);
    const double f = static_cast<double>(failures);
    const double d = static_cast<double>(draws);
    const double n = s + f;
    const double variance = d * (s / n) * (f / n) * (n - d) / (n - 1.0);
    if (variance >= kRatioOfUniformsMinVariance) {
        // Reduce to s <= f and d <= N/2 by the two symmetries
        //   H(s, f, d) = d - H(f, s, d)   and   H(s, f, d) = s - H(s, f, N - d)
        // (the variance is invariant under both).
        const bool swap = successes > failures;
        const bool complement = draws > total - draws;
        const std::uint64_t rs = swap ? failures : successes;
        const std::uint64_t rd = complement ? total - draws : draws;
        std::uint64_t k =
            hypergeometric_ratio_of_uniforms(*this, rs, total - rs, rd, variance);
        if (swap) k = rd - k;
        if (complement) k = successes - k;
        return k;
    }

    double u = uniform01();
    const std::uint64_t mode = hypergeometric_mode(successes, failures, draws);
    const double log_normalizer = log_factorial(successes) + log_factorial(failures) +
                                  log_factorial(draws) + log_factorial(total - draws) -
                                  log_factorial(total);
    const double fmode =
        std::exp(log_normalizer - log_pmf_denominator(successes, failures, draws, mode));
    if (u < fmode) return mode;
    u -= fmode;

    // Zig-zag outward from the mode: the pmf decreases monotonically on
    // either side, so this is inverse-CDF sampling in an order that keeps
    // the expected number of iterations O(std-deviation).  Recurrence:
    // f(k+1)/f(k) = (s-k)(d-k) / ((k+1)(f-d+k+1)).
    double fup = fmode;
    double fdown = fmode;
    std::uint64_t kup = mode;
    std::uint64_t kdown = mode;
    while (kup < hi || kdown > lo) {
        if (kup < hi) {
            const double k = static_cast<double>(kup);
            fup *= (s - k) * (d - k) / ((k + 1.0) * (f - d + k + 1.0));
            ++kup;
            if (u < fup) return kup;
            u -= fup;
        }
        if (kdown > lo) {
            const double k = static_cast<double>(kdown);
            fdown *= k * (f - d + k) / ((s - k + 1.0) * (d - k + 1.0));
            --kdown;
            if (u < fdown) return kdown;
            u -= fdown;
        }
        // Both running pmfs underflowed: u sits in the O(1e-16) rounding
        // residue of the total mass.  Any remaining support index has
        // negligible probability; the mode is as good a tie-break as any.
        if (fup < 1e-300 && fdown < 1e-300) break;
    }
    return mode;
}

std::uint64_t Rng::geometric_skips(double success_probability) noexcept {
    if (success_probability >= 1.0) return 0;
    return rng_detail::geometric_skips(uniform01(), success_probability);
}

namespace rng_detail {

namespace {

// ln 2 split so that e * kLn2Hi is exact for |e| < 2^21 (fdlibm's
// ln2_hi / ln2_lo).
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3fe62e42fee00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3dea39ef35793c76

constexpr std::uint64_t kMantissaBits = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;
constexpr int kBinBits = 8;
constexpr std::uint64_t kBinMask = ((std::uint64_t{1} << kBinBits) - 1) << (52 - kBinBits);
constexpr std::uint64_t kHalfBin = std::uint64_t{1} << (51 - kBinBits);

/// The bin of mantissas m in [1 + i/256, 1 + (i + 1)/256) is centred on
/// c = 1 + (i + 1/2)/256: 1/c rounded, and ln c (libm, within an ulp).
struct LogBin {
    double inverse_centre;
    double log_centre;
};

/// Built on first use, like the log-factorial table: a draw made while
/// another translation unit is still being initialized never reads an
/// unfilled table.
const std::array<LogBin, std::size_t{1} << kBinBits>& log_bins() noexcept {
    static const std::array<LogBin, std::size_t{1} << kBinBits> bins = [] {
        std::array<LogBin, std::size_t{1} << kBinBits> table{};
        for (std::size_t i = 0; i < table.size(); ++i) {
            const double centre = 1.0 + (static_cast<double>(i) + 0.5) / 256.0;
            table[i] = {1.0 / centre, std::log(centre)};
        }
        return table;
    }();
    return bins;
}

/// ln(1 + r) by its Taylor polynomial through r^5, in Estrin's order (the
/// two halves run side by side): the omitted terms sum to at most |r|^6 / 5,
/// so below 2^-56.3 for |r| <= 2^-9 and below 2^-62 relative for
/// |r| <= 2^-12.
double log1p_polynomial(double r) noexcept {
    const double r2 = r * r;
    return r + (r2 * (-0.5 + r * (1.0 / 3.0)) + (r2 * r2) * (-0.25 + r * 0.2));
}

// The fast path's range and error budget (fast_log.h).  With a = -ln u and
// b = -ln(1 - p) as computed here, |a err| <= 2^-52 (1 + a), and |b err| <=
// 2^-52 b below kSeriesBelow (the series) and 2^-52 b + 1.5 2^-52 from it
// on (negative_log of the rounded 1 - p; there b >= 2^-12).  The quotient
// q = a (1 / b) then lies within (2^-52 / b) (1 + a (5.5 + 1.5 [table] / b))
// of libm's, counting one ulp for log, one for log1p and half for the
// division on libm's side.  The tolerance (2^-51 + a c) / b doubles that:
// c = 2^-48 >= 11 2^-52 for the series, 2^-38 >= (11 + 3 2^12) 2^-52 for
// the table.
constexpr double kFastMinProbability = 0x1p-40;
constexpr double kSeriesBelow = 0x1p-12;
constexpr double kAbsoluteTolerance = 0x1p-51;
constexpr double kSeriesTolerance = 0x1p-48;
constexpr double kTableTolerance = 0x1p-38;

/// x = 2^exponent * centre * (1 + r) for a normal x, with centre the bin
/// centre of x's mantissa and |r| <= 2^-9.
struct LogParts {
    double exponent;
    double log_centre;
    double r;
};

LogParts split_log(double x) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const LogBin& bin = log_bins()[(bits & kBinMask) >> (52 - kBinBits)];
    const double mantissa = std::bit_cast<double>((bits & kMantissaBits) | kOneBits);
    const double centre = std::bit_cast<double>((bits & kBinMask) | kOneBits | kHalfBin);
    // mantissa - centre is exact: both lie in [1, 2] and differ by <= 2^-9.
    return {static_cast<double>(static_cast<int>(bits >> 52) - 1023), bin.log_centre,
            (mantissa - centre) * bin.inverse_centre};
}

}  // namespace

double negative_log(double x) noexcept {
    const LogParts parts = split_log(x);
    return -((parts.exponent * kLn2Hi + parts.log_centre) +
             (log1p_polynomial(parts.r) + parts.exponent * kLn2Lo));
}

double negative_log_estimate(double x) noexcept {
    const LogParts parts = split_log(x);
    return -((parts.exponent * (kLn2Hi + kLn2Lo) + parts.log_centre) + parts.r);
}

std::uint64_t certified_geometric_skips(double u, double p) noexcept {
    if (!(p >= kFastMinProbability && p < 1.0)) return kUndecided;
    const double a = negative_log(u);
    const bool series = p < kSeriesBelow;
    const double b = series ? -log1p_polynomial(-p) : negative_log(1.0 - p);
    const double inverse_b = 1.0 / b;
    const double q = a * inverse_b;
    const double tolerance =
        (kAbsoluteTolerance + a * (series ? kSeriesTolerance : kTableTolerance)) * inverse_b;
    if (!(q < 0x1p46 && tolerance < 0.25)) return kUndecided;
    // libm's quotient is positive and within `tolerance` of q, and high > 0
    // (a's error, 2^-52 (1 + a), is below 2^-51 + a c).  A truncation to 0
    // means high < 1, so the floor is 0; otherwise it must also be <= low.
    const double high = q + tolerance;
    const auto skips = static_cast<std::int64_t>(high);
    const bool decided = (skips == 0) | (static_cast<double>(skips) <= q - tolerance);
    return decided ? static_cast<std::uint64_t>(skips) : kUndecided;
}

std::uint64_t geometric_skips(double u, double p) noexcept {
    if (p >= 1.0) return 0;
    if (u <= 0.0) u = 1e-300;
    const std::uint64_t certified = certified_geometric_skips(u, p);
    if (certified != kUndecided) return certified;
    const double skips = std::floor(std::log(u) / std::log1p(-p));
    if (skips < 0.0) return 0;
    if (skips > 1e18) return static_cast<std::uint64_t>(1e18);
    return static_cast<std::uint64_t>(skips);
}

}  // namespace rng_detail

}  // namespace popproto
