/**
 * @file
 * AVX2 sampling kernels — the only translation unit built with
 * -mavx2 (see src/mrf/CMakeLists.txt), so AVX2 instructions cannot
 * leak into code that runs on narrower machines. The functions are
 * reached exclusively through detail::interiorSampleFor and
 * detail::pairSample8For after core::activeSimdIsa() confirmed AVX2
 * support. On non-x86 targets neither returns them and this file
 * compiles to nothing.
 *
 * pairSample8Avx2 puts one site in each lane (M = 2): 64-bit
 * gathers fetch each neighbour's (candidate 0, candidate 1)
 * doubleton pair, one 32-bit gather the singleton bytes, one more
 * the non-top Q32 weight, and a scalar loop does the 8 draws. The
 * rest of this comment is about the per-site kernel.
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

/** The labels at @p p[0], p[2], ..., p[14] as int32 lanes. Byte
 * loads: the odd bytes between them are same-colour sites another
 * shard may be writing, so no wider load may touch them. */
inline __m256i
evenLabels(const uint8_t *p)
{
    uint64_t packed = 0;
    for (int k = 0; k < 8; ++k)
        packed |= static_cast<uint64_t>(p[2 * k]) << (8 * k);
    return _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(packed)));
}

/** Int32 offset of the doubleton row of each code lane (codes
 * masked to 6 bits as DoubletonTable::row does, rows 8 wide). */
inline __m256i
rowOffsets(__m256i codes)
{
    return _mm256_slli_epi32(
        _mm256_and_si256(codes, _mm256_set1_epi32(rsu::core::kLabelMask)),
        3);
}

/** Add the (candidate 0, candidate 1) doubleton pair of each code
 * lane to @p lo (lanes 0-3) and @p hi (lanes 4-7): one 64-bit
 * gather fetches both entries of a row. */
inline void
addPairs(const int32_t *doubleton, __m256i offsets, __m256i &lo,
         __m256i &hi)
{
    const auto *base = reinterpret_cast<const long long *>(doubleton);
    lo = _mm256_add_epi32(
        lo, _mm256_i32gather_epi64(base,
                                   _mm256_castsi256_si128(offsets), 4));
    hi = _mm256_add_epi32(
        hi, _mm256_i32gather_epi64(
                base, _mm256_extracti128_si256(offsets, 1), 4));
}

} // namespace

unsigned
pairSample8Avx2(const uint8_t *s, const uint8_t *labels, int width,
                const int32_t *doubleton, const uint32_t *w_of_e,
                const uint64_t *draws)
{
    // Neighbour codes of the 8 sites. In the sites' own row, W is
    // every other byte from x - 1 and E every other byte from
    // x + 1; the bytes between are the run's own sites, so two
    // 16-byte loads (x - 1 .. x + 14 and x .. x + 15) are safe there.
    const __m128i even = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, -1,
                                       -1, -1, -1, -1, -1, -1, -1);
    const __m128i odd = _mm_setr_epi8(1, 3, 5, 7, 9, 11, 13, 15, -1,
                                      -1, -1, -1, -1, -1, -1, -1);
    const __m128i west = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(labels - 1)),
        even);
    const __m128i east = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(labels)),
        odd);
    __m256i lo = _mm256_setzero_si256();
    __m256i hi = _mm256_setzero_si256();
    addPairs(doubleton, rowOffsets(evenLabels(labels - width)), lo, hi);
    addPairs(doubleton, rowOffsets(evenLabels(labels + width)), lo, hi);
    addPairs(doubleton, rowOffsets(_mm256_cvtepu8_epi32(west)), lo, hi);
    addPairs(doubleton, rowOffsets(_mm256_cvtepu8_epi32(east)), lo, hi);
    // De-interleave the (d0, d1) pairs into one vector per
    // candidate, sites in lane order.
    const __m256i split = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    lo = _mm256_permutevar8x32_epi32(lo, split);
    hi = _mm256_permutevar8x32_epi32(hi, split);

    // Singleton bytes 0 and 1 of each site's row, 16 bytes apart.
    const __m256i sv = _mm256_i32gather_epi32(
        reinterpret_cast<const int *>(s),
        _mm256_setr_epi32(0, 16, 32, 48, 64, 80, 96, 112), 1);
    const __m256i byte = _mm256_set1_epi32(0xff);
    const __m256i emax = _mm256_set1_epi32(rsu::core::kEnergyMax);
    const __m256i e0 = _mm256_min_epi32(
        _mm256_add_epi32(_mm256_and_si256(sv, byte),
                         _mm256_permute2x128_si256(lo, hi, 0x20)),
        emax);
    const __m256i e1 = _mm256_min_epi32(
        _mm256_add_epi32(_mm256_and_si256(_mm256_srli_epi32(sv, 8), byte),
                         _mm256_permute2x128_si256(lo, hi, 0x31)),
        emax);

    // After the site-minimum shift one candidate sits at energy 0
    // (weight w_of_e[0]) and the other at |e0 - e1|: the two table
    // entries the per-site kernel looks up for its real lanes (its
    // pad lanes never enter an M = 2 draw).
    const __m256i top = _mm256_set1_epi32(static_cast<int>(w_of_e[0]));
    const __m256i low = _mm256_i32gather_epi32(
        reinterpret_cast<const int *>(w_of_e),
        _mm256_sub_epi32(_mm256_max_epi32(e0, e1),
                         _mm256_min_epi32(e0, e1)),
        4);
    const __m256i first_higher = _mm256_cmpgt_epi32(e0, e1);
    alignas(32) uint32_t w0[8];
    alignas(32) uint32_t w1[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(w0),
                       _mm256_blendv_epi8(top, low, first_higher));
    _mm256_store_si256(reinterpret_cast<__m256i *>(w1),
                       _mm256_blendv_epi8(low, top, first_higher));

    // selectCandidateFixed per site: candidate 1 iff the scaled
    // draw is past candidate 0's weight.
    unsigned picks = 0;
    for (int k = 0; k < 8; ++k) {
        const uint64_t u = scaleDraw(
            draws[k], static_cast<uint64_t>(w0[k]) + w1[k]);
        picks |= static_cast<unsigned>(u >= w0[k]) << k;
    }
    return picks;
}

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
