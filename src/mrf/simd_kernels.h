/**
 * @file
 * Sampling kernels for the Simd sweep path, in two forms: the
 * candidate-vectorized per-site kernels below (every site, any M),
 * and one site-parallel AVX2 kernel for M = 2 (pairSample8Avx2).
 *
 * An interior-site conditional is, per candidate i,
 *   e_i = singleton[i] + d[n0][i] + d[n1][i] + d[n2][i] + d[n3][i]
 *   w_i = fixedExp[min(e_i, kEnergyMax) - min_j e_j]
 * over rows of the padded SingletonTable and the neighbour-major
 * DoubletonTable — contiguous in i, so the candidate
 * dimension vectorizes directly: widening 8->32-bit loads, four
 * int32 adds, one clamp, a running vector min, one gather. The
 * site-minimum subtraction renormalizes per site — exp(x) is only
 * defined up to a factor inside a softmax, and shifting the
 * minimum energy to 0 pins the largest weight at the top of the
 * Q32 table, so quantization error stays ~2^-32 *relative to the
 * site's own scale*. Without it, a site whose best energy is high
 * gets only tiny integer weights and the floor-of-1 entries
 * distort the distribution measurably (the chi-square tests catch
 * exactly this).
 *
 * A kernel *samples*: it computes the weights and immediately
 * draws the candidate from one raw 64-bit variate, so the whole
 * site update stays in registers (the AVX2 kernel never spills
 * the weights for padded M <= 16, and its selection is a
 * branchless 64-bit prefix sum + compare-mask popcount). The AVX2
 * kernel MUST be semantically identical to the scalar one, i.e. to
 * selectCandidateFixed() over the scalar weights: every
 * computation — sums, the associative min, the prefix sums — is
 * exact integer arithmetic, so both draw the same candidate; the
 * Simd path's Scalar == AVX2 contract rests on that.
 *
 * All rows must be padded to a multiple of kSimdPadLanes (8)
 * candidates; kernels may read the pad lanes and use @p weights as
 * scratch (contents unspecified after the call). Pad energies are
 * exactly kEnergyMax (saturated singleton + zero doubleton), which
 * never undercuts a real lane's clamped energy, so taking the min
 * across all padded lanes equals the min across real ones; pad
 * weights are masked to zero (vector select) or never scanned
 * (scalar select), so they cannot be drawn.
 *
 * At M = 2 the per-site kernel fills only 2 of its 8 lanes, so
 * SweepCore hands runs of same-colour interior sites to the
 * site-parallel kernel instead: one lane per site, 8 sites x, x + 2,
 * ..., x + 14 of one row per call, as the paper's GPU maps one pixel
 * per SIMT lane. Same-colour sites never read each other's labels,
 * so resampling 8 at once sees exactly what 8 sequential updates
 * would. Each lane repeats the per-site kernel's integer arithmetic
 * for its site (clamped sums, the site-minimum shift, the same Q32
 * entries, selectCandidateFixed's 128-bit scaling) and consumes the
 * next buffered variate in site order, so labels and RNG streams
 * are bit-identical to running the per-site kernel on every site;
 * the Scalar == AVX2 suites gate it unchanged.
 *
 * Internal header, included by the fast sweep (mrf/fast_sweep.h)
 * and the two kernel translation units (simd_kernels.cpp,
 * simd_kernels_avx2.cpp — the latter built with -mavx2, reached
 * only via runtime dispatch).
 */

#ifndef RSU_MRF_SIMD_KERNELS_H
#define RSU_MRF_SIMD_KERNELS_H

#include <cstdint>

#include "core/simd.h"

namespace rsu::mrf::detail {

/**
 * Sample one interior site: compute the @p padded_m fixed-point
 * candidate weights (site-renormalized — see the file comment) and
 * return the candidate index in [0, m) drawn with the raw 64-bit
 * variate @p draw. @p s is the site's padded singleton row;
 * @p d0..@p d3 are the DoubletonTable rows of the four
 * neighbour codes; @p w_of_e is the 256-entry FixedExpTable data;
 * @p m is the real candidate count. @p weights is caller-owned
 * scratch of @p padded_m entries (a positive multiple of
 * core::kSimdPadLanes); its contents after the call are
 * unspecified.
 */
using InteriorSampleFn = int (*)(const uint8_t *s,
                                 const int32_t *d0,
                                 const int32_t *d1,
                                 const int32_t *d2,
                                 const int32_t *d3,
                                 const uint32_t *w_of_e,
                                 uint32_t *weights, int padded_m,
                                 int m, uint64_t draw);

int interiorSampleScalar(const uint8_t *s, const int32_t *d0,
                         const int32_t *d1, const int32_t *d2,
                         const int32_t *d3, const uint32_t *w_of_e,
                         uint32_t *weights, int padded_m, int m,
                         uint64_t draw);
int interiorSampleAvx2(const uint8_t *s, const int32_t *d0,
                       const int32_t *d1, const int32_t *d2,
                       const int32_t *d3, const uint32_t *w_of_e,
                       uint32_t *weights, int padded_m, int m,
                       uint64_t draw);

/** The kernel for @p isa (Avx2 falls back to scalar on non-x86
 * builds, where activeSimdIsa() never selects it). */
InteriorSampleFn interiorSampleFor(rsu::core::SimdIsa isa);

/**
 * Sample the 8 same-colour interior sites x, x + 2, ..., x + 14 of
 * one lattice row of an M = 2 model (padded rows of 8), one site
 * per lane, and return a bit mask whose bit k is the candidate
 * index drawn for site x + 2k with the raw variate @p draws[k].
 * @p s is site x's padded singleton row (the others follow at
 * 16-byte steps); @p labels points at site x's label in a lattice
 * @p width labels wide, and every site's four neighbours must lie
 * inside it (x >= 1, x + 15 < width, not the first or last row);
 * @p doubleton is DoubletonTable::row(0), the start of its
 * code-major rows; @p w_of_e is the 256-entry FixedExpTable data.
 * Each lane repeats interiorSampleScalar's integer arithmetic for
 * its site, so the mask equals 8 per-site calls drawn in site
 * order.
 */
using PairSample8Fn = unsigned (*)(const uint8_t *s,
                                   const uint8_t *labels, int width,
                                   const int32_t *doubleton,
                                   const uint32_t *w_of_e,
                                   const uint64_t *draws);

unsigned pairSample8Avx2(const uint8_t *s, const uint8_t *labels,
                         int width, const int32_t *doubleton,
                         const uint32_t *w_of_e,
                         const uint64_t *draws);

/** The site-parallel M = 2 kernel for @p isa, or nullptr where
 * there is none (the Scalar ISA and non-x86 builds, which run the
 * per-site kernel on every site). */
PairSample8Fn pairSample8For(rsu::core::SimdIsa isa);

/**
 * Draw a candidate index from @p m fixed-point weights with one
 * raw 64-bit variate: scale @p draw to the weight total with a
 * 128-bit multiply (uniform in [0, total)), then scan the prefix
 * sums in candidate order. Pure 64-bit integer arithmetic in a
 * fixed order — identical on every ISA — and total >= m >= 1
 * because FixedExpTable floors weights at 1, so the scan always
 * terminates inside the loop. The reference semantics every
 * vectorized selection must reproduce exactly: the chosen index is
 * the count of prefix sums <= u, which is what the branchless
 * compare-mask implementations compute.
 */
inline int
selectCandidateFixed(uint64_t draw, const uint32_t *weights, int m)
{
    uint64_t total = 0;
    for (int i = 0; i < m; ++i)
        total += weights[i];
    const uint64_t u = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(draw) * total) >> 64);
    uint64_t run = 0;
    for (int i = 0; i < m; ++i) {
        run += weights[i];
        if (u < run)
            return i;
    }
    return m - 1; // unreachable: u < total == final run
}

} // namespace rsu::mrf::detail

#endif // RSU_MRF_SIMD_KERNELS_H
