// Portable SIMD kernels for the count-engine hot loops.
//
// The collapsed super-step engine spends its per-super-step O(|Q|^2) budget
// outside the samplers in two loops: applying the aggregate count delta and
// re-deriving the effective-pair total W (a masked dot product per state
// row).  This header wraps those loops over GCC/Clang vector extensions
// (2 x 64-bit lanes — the baseline register width on x86-64 and AArch64, so
// no ABI or -m flags are needed; the compiler widens to AVX where -march
// allows), with a scalar fallback for compilers without the extension.
//
// Every kernel is exact, not approximate: unsigned lanes wrap modulo 2^64
// exactly like the scalar code, so the kernels are bit-identical to the
// fallback path.

#ifndef POPPROTO_CORE_SIMD_H
#define POPPROTO_CORE_SIMD_H

#include <cstddef>
#include <cstdint>

#if defined(__GNUC__) || defined(__clang__)
#define POPPROTO_SIMD_VECTOR_EXT 1
#endif

namespace popproto::simd {

#if POPPROTO_SIMD_VECTOR_EXT
using u64x2 = std::uint64_t __attribute__((vector_size(16), aligned(8)));

inline u64x2 load_u64x2(const std::uint64_t* p) noexcept {
    return u64x2{p[0], p[1]};
}

inline void store_u64x2(std::uint64_t* p, u64x2 v) noexcept {
    p[0] = v[0];
    p[1] = v[1];
}
#endif

/// dst[i] += src[i] for i in [0, n) (the per-shard touched-multiset merge
/// and the count update counts = untouched agents + touched multiset).
inline void add(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) noexcept {
    std::size_t i = 0;
#if POPPROTO_SIMD_VECTOR_EXT
    for (; i + 2 <= n; i += 2)
        store_u64x2(dst + i, load_u64x2(dst + i) + load_u64x2(src + i));
#endif
    for (; i < n; ++i) dst[i] += src[i];
}

/// Sum of values[i] over the i with mask[i] != 0 — one row of the
/// effective-pair total W = sum_p c_p * (sum_q eff[p][q] c_q - eff[p][p]).
/// Exact: 64-bit integer addition is associative, so the lane-split
/// accumulation equals the scalar loop bit for bit.
inline std::uint64_t masked_sum(const std::uint8_t* mask, const std::uint64_t* values,
                                std::size_t n) noexcept {
    std::size_t i = 0;
    std::uint64_t total = 0;
#if POPPROTO_SIMD_VECTOR_EXT
    u64x2 acc = {0, 0};
    for (; i + 2 <= n; i += 2) {
        // Lane-wise select: all-ones masks keep exactly the flagged entries.
        const u64x2 m = {mask[i] ? ~std::uint64_t{0} : 0,
                         mask[i + 1] ? ~std::uint64_t{0} : 0};
        acc += m & load_u64x2(values + i);
    }
    total = acc[0] + acc[1];
#endif
    for (; i < n; ++i)
        if (mask[i]) total += values[i];
    return total;
}

}  // namespace popproto::simd

#endif  // POPPROTO_CORE_SIMD_H
