// Small, fast pseudo-random number generator for interaction scheduling.
//
// Population-protocol experiments are dominated by the cost of drawing random
// agent pairs, so we use xoshiro256** (Blackman & Vigna) seeded via SplitMix64
// instead of the heavier std::mt19937_64.  The generator satisfies the
// UniformRandomBitGenerator concept so it also composes with <random>
// distributions where convenient.

#ifndef POPPROTO_CORE_RNG_H
#define POPPROTO_CORE_RNG_H

#include <array>
#include <cstdint>

namespace popproto {

/// xoshiro256** generator.  Deterministic for a given seed; not
/// cryptographically secure (nor does it need to be).
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the four words of state by iterating SplitMix64 from `seed`.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~result_type{0}; }

    /// Next 64 uniformly random bits.
    result_type operator()() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection
    /// method.  Precondition: bound > 0 (unchecked on this hot path; a zero
    /// bound would loop forever, so callers must not pass it).  The draw
    /// that needs no rejection test is inlined (an out-of-line call per draw
    /// cost the collapsed engine's event resolution about a tenth of its
    /// time); the rare rest, with its division, stays out of line, so a
    /// sampling loop does not pay for it.
    std::uint64_t below(std::uint64_t bound) noexcept {
        const __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
        if (static_cast<std::uint64_t>(m) < bound) [[unlikely]]
            return below_near_threshold(m, bound);
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Uniform double in [0, 1).
    double uniform01() noexcept;

    /// Number of consecutive failures before the first success of an event
    /// with the given per-trial success probability (exact geometric
    /// sampling by inversion).  Returns 0 without consuming randomness when
    /// `success_probability >= 1`; results are capped at 10^18 so callers
    /// can add them to interaction counters without overflow.
    std::uint64_t geometric_skips(double success_probability) noexcept;

    /// Number of successes when drawing `draws` items without replacement
    /// from a population of `successes` success items and `failures`
    /// failure items.  Every draw is exact (up to double rounding of the
    /// pmf); which sampler runs depends on the variance
    ///     sigma^2 = d (s / N) (f / N) (N - d) / (N - 1),   N = s + f:
    ///  * sigma^2 < 20: an inverse-CDF walk, one uniform01 draw walked
    ///    outward from the mode via the pmf recurrence, O(sigma) steps;
    ///  * sigma^2 >= 20: Stadlober's ratio-of-uniforms sampler ("HRUA"),
    ///    O(1) expected uniform01 pairs, accepted against the exact pmf
    ///    ratio over the whole support (no tail cut).
    /// Log-factorials come from a 2048-entry table, and above it from the
    /// Stirling series (truncation error below 1e-26); no lgamma call.
    /// Degenerate inputs (draws == 0, successes == 0, failures == 0,
    /// draws >= total, a one-point support) return without consuming
    /// randomness; draws > successes + failures is clamped to the whole
    /// population.  Stateless apart from the stream position, so
    /// save_state/restore_state replay it exactly.  There is no binomial
    /// sampler: no engine draws one.
    std::uint64_t hypergeometric(std::uint64_t successes, std::uint64_t failures,
                                 std::uint64_t draws) noexcept;

    /// The four xoshiro256** state words, for suspend/resume of a run
    /// (core/run_loop.h checkpoints).  `save_state` followed by
    /// `restore_state` reproduces the output stream bit for bit.
    struct StreamState {
        std::array<std::uint64_t, 4> words{};
        friend bool operator==(const StreamState&, const StreamState&) = default;
    };

    /// Advances the stream by 2^128 draws in O(1) (the canonical xoshiro256**
    /// jump polynomial).  Two positions separated by a jump head disjoint
    /// subsequences of length 2^128 — the substrate for `split`.
    void jump() noexcept;

    /// Carves an independent child stream off this one: the child starts at
    /// the current position and this stream jumps 2^128 draws ahead, so the
    /// child owns [pos, pos + 2^128) and the parent continues beyond it.
    /// K successive splits hand out K pairwise-disjoint 2^128-draw blocks —
    /// deterministic in (parent state, split order), which is what makes the
    /// parallel collapsed engine reproducible for a fixed (seed, K)
    /// (collapsed_simulator.cpp).  Children support save_state /
    /// restore_state like any Rng, so checkpoints can carry shard streams.
    Rng split() noexcept;

    /// Captures the current stream position.
    StreamState save_state() const noexcept;

    /// Rewinds (or fast-forwards) the generator to a captured position.  An
    /// all-zero state (only producible by a corrupt checkpoint, never by
    /// `save_state`) is nudged to a valid one, as in the constructor.
    void restore_state(const StreamState& state) noexcept;

private:
    static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    /// below() for a first product whose low word fell under `bound`: it is
    /// kept unless it also falls under 2^64 mod bound, and redrawn until it
    /// does not.
    std::uint64_t below_near_threshold(__uint128_t m, std::uint64_t bound) noexcept;

    std::uint64_t state_[4];
};

}  // namespace popproto

#endif  // POPPROTO_CORE_RNG_H
