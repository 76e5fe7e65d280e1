/**
 * @file
 * AVX2 interior sampling kernel — the only translation unit built
 * with -mavx2 (see src/mrf/CMakeLists.txt), so AVX2 instructions
 * cannot leak into code that runs on narrower machines. The
 * function is reached exclusively through detail::interiorSampleFor
 * after core::activeSimdIsa() confirmed AVX2 support. On non-x86
 * targets interiorSampleFor never returns it and this file
 * compiles to nothing.
 *
 * Selection is branchless and register-resident: pad lanes are
 * masked to zero weight, the 8-lane blocks are widened to 64-bit
 * prefix sums (in-lane shift-add, then a cross-lane broadcast-add),
 * and the drawn index is the popcount of prefix sums <= u — exactly
 * the index selectCandidateFixed's scalar scan returns, because
 * both compute min{i : u < prefix_i} over the same exact integers.
 * Padded M <= 16 (one or two 8-lane blocks) never touches the
 * weights scratch at all; larger M spills masked weights plus one
 * 64-bit total per 8-lane block, and selection scans the block
 * totals scalar (the scaled draw needs the grand total first) so
 * only the one block that brackets u is ever prefix-summed.
 */

#include "mrf/simd_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "core/types.h"

namespace rsu::mrf::detail {

namespace {

/** Clamped energies of the 8 candidates starting at @p i. */
inline __m256i
energies8(const uint8_t *s, const int32_t *d0, const int32_t *d1,
          const int32_t *d2, const int32_t *d3, int i)
{
    const auto load = [i](const int32_t *d) {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(d + i));
    };
    // 8 x uint8 singleton entries widened to int32 lanes.
    __m256i ev = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(s + i)));
    ev = _mm256_add_epi32(ev, load(d0));
    ev = _mm256_add_epi32(ev, load(d1));
    ev = _mm256_add_epi32(ev, load(d2));
    ev = _mm256_add_epi32(ev, load(d3));
    return _mm256_min_epi32(ev,
                            _mm256_set1_epi32(rsu::core::kEnergyMax));
}

/** The minimum of the 8 int32 lanes, broadcast to every lane. */
inline __m256i
broadcastMin(__m256i v)
{
    __m128i m4 = _mm_min_epi32(_mm256_castsi256_si128(v),
                               _mm256_extracti128_si256(v, 1));
    m4 = _mm_min_epi32(m4, _mm_shuffle_epi32(m4, 0x4e));
    m4 = _mm_min_epi32(m4, _mm_shuffle_epi32(m4, 0xb1));
    return _mm256_broadcastd_epi32(m4);
}

/** Weights of renormalized energies @p ev (in [0, 255]: in-bounds
 * in the 256-entry table), lanes >= @p real masked to zero. */
inline __m256i
weights8(const uint32_t *w_of_e, __m256i ev, int real)
{
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i wv = _mm256_i32gather_epi32(
        reinterpret_cast<const int *>(w_of_e), ev, 4);
    return _mm256_and_si256(
        wv, _mm256_cmpgt_epi32(_mm256_set1_epi32(real), lane));
}

/** Inclusive prefix sum of 4 u64 lanes. */
inline __m256i
prefix4(__m256i v)
{
    // In-lane: [a, a+b | c, c+d], then broadcast a+b into the
    // upper 128-bit lane and add.
    v = _mm256_add_epi64(v, _mm256_slli_si256(v, 8));
    __m256i t = _mm256_permute4x64_epi64(v, 0x55);
    t = _mm256_blend_epi32(_mm256_setzero_si256(), t, 0xF0);
    return _mm256_add_epi64(v, t);
}

/** Inclusive u64 prefix sums of the 8 u32 lanes of @p wv plus
 * @p carry (broadcast u64): lanes 0-3 into @p lo, 4-7 into @p hi,
 * so lane 3 of @p hi is the running total. */
inline void
prefix8(__m256i wv, __m256i carry, __m256i &lo, __m256i &hi)
{
    lo = _mm256_add_epi64(
        prefix4(_mm256_cvtepu32_epi64(_mm256_castsi256_si128(wv))),
        carry);
    hi = _mm256_add_epi64(
        prefix4(_mm256_cvtepu32_epi64(_mm256_extracti128_si256(wv, 1))),
        _mm256_permute4x64_epi64(lo, 0xFF));
}

/** Count of the 8 u64 prefix lanes (lo then hi) that are <= u.
 * Signed compares are safe: totals fit 64 x (2^32 - 1) < 2^38. */
inline int
countLanesLe(__m256i lo, __m256i hi, __m256i uv)
{
    const int gt =
        _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpgt_epi64(lo, uv))) |
        (_mm256_movemask_pd(
             _mm256_castsi256_pd(_mm256_cmpgt_epi64(hi, uv)))
         << 4);
    return 8 - __builtin_popcount(gt);
}

/** u64 draw scaled to [0, total) by the high 128-bit product —
 * identical to selectCandidateFixed's scaling. */
inline uint64_t
scaleDraw(uint64_t draw, uint64_t total)
{
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(draw) * total) >> 64);
}

/** scaleDraw against the running total in lane 3 of @p hi,
 * broadcast for countLanesLe. */
inline __m256i
scaledDrawVec(uint64_t draw, __m256i hi)
{
    const auto total =
        static_cast<uint64_t>(_mm256_extract_epi64(hi, 3));
    return _mm256_set1_epi64x(
        static_cast<long long>(scaleDraw(draw, total)));
}

} // namespace

int
interiorSampleAvx2(const uint8_t *s, const int32_t *d0,
                   const int32_t *d1, const int32_t *d2,
                   const int32_t *d3, const uint32_t *w_of_e,
                   uint32_t *weights, int padded_m, int m,
                   uint64_t draw)
{
    const __m256i zero = _mm256_setzero_si256();

    if (padded_m == 8) {
        // Single-block fast path: the whole site update stays in
        // registers — no energy scratch, no weight spill.
        const __m256i ev = energies8(s, d0, d1, d2, d3, 0);
        const __m256i wv = weights8(
            w_of_e, _mm256_sub_epi32(ev, broadcastMin(ev)), m);
        __m256i lo, hi;
        prefix8(wv, zero, lo, hi);
        return countLanesLe(lo, hi, scaledDrawVec(draw, hi));
    }

    if (padded_m == 16) {
        // Two-block fast path (8 < M <= 16): still fully register
        // resident — the 64-bit prefix chain just spans four
        // quad-lane vectors instead of two.
        const __m256i ev0 = energies8(s, d0, d1, d2, d3, 0);
        const __m256i ev1 = energies8(s, d0, d1, d2, d3, 8);
        const __m256i shift =
            broadcastMin(_mm256_min_epi32(ev0, ev1));
        // Block 0 is all real (m > 8 here); block 1 masks its pads.
        const __m256i wv0 =
            weights8(w_of_e, _mm256_sub_epi32(ev0, shift), 8);
        const __m256i wv1 =
            weights8(w_of_e, _mm256_sub_epi32(ev1, shift), m - 8);
        __m256i p0, p1, p2, p3;
        prefix8(wv0, zero, p0, p1);
        prefix8(wv1, _mm256_permute4x64_epi64(p1, 0xFF), p2, p3);
        const __m256i uv = scaledDrawVec(draw, p3);
        return countLanesLe(p0, p1, uv) + countLanesLe(p2, p3, uv);
    }

    // Pass 1: 8-wide clamped energies into the scratch, with a
    // running 8-lane minimum.
    int32_t *e = reinterpret_cast<int32_t *>(weights);
    __m256i mn = _mm256_set1_epi32(rsu::core::kEnergyMax);
    for (int i = 0; i < padded_m; i += 8) {
        const __m256i ev = energies8(s, d0, d1, d2, d3, i);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(e + i), ev);
        mn = _mm256_min_epi32(mn, ev);
    }
    const __m256i shift = broadcastMin(mn);

    // Pass 2: site-renormalized gathers, pad lanes masked to zero
    // weight, and a per-block 64-bit weight total spilled alongside
    // the weights themselves.
    alignas(32) uint64_t
        block_total[rsu::core::kMaxLabels / rsu::core::kSimdPadLanes];
    for (int i = 0; i < padded_m; i += 8) {
        const __m256i ev = _mm256_sub_epi32(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(e + i)),
            shift);
        const __m256i wv = weights8(w_of_e, ev, m - i);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(weights + i), wv);
        const __m256i b4 = _mm256_add_epi64(
            _mm256_cvtepu32_epi64(_mm256_castsi256_si128(wv)),
            _mm256_cvtepu32_epi64(_mm256_extracti128_si256(wv, 1)));
        alignas(32) uint64_t a4[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(a4), b4);
        block_total[i / 8] = a4[0] + a4[1] + a4[2] + a4[3];
    }
    uint64_t total = 0;
    for (int b = 0; b < padded_m / 8; ++b)
        total += block_total[b];

    // Pass 3: a scalar scan over the block totals finds the one
    // block whose prefix range brackets u — every earlier block
    // contributes all 8 lanes to the count, every later one none —
    // then a single in-register prefix resolves the lane. The scan
    // terminates because u < total.
    const uint64_t u = scaleDraw(draw, total);
    uint64_t carry = 0;
    int b = 0;
    while (carry + block_total[b] <= u)
        carry += block_total[b++];
    const __m256i wv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(weights + 8 * b));
    __m256i lo, hi;
    prefix8(wv, _mm256_set1_epi64x(static_cast<long long>(carry)), lo, hi);
    const __m256i uv = _mm256_set1_epi64x(static_cast<long long>(u));
    return 8 * b + countLanesLe(lo, hi, uv);
}

} // namespace rsu::mrf::detail

#endif // x86
