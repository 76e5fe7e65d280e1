#include "mrf/simd_kernels.h"

#include "core/types.h"

namespace rsu::mrf::detail {

using rsu::core::kEnergyMax;

int
interiorSampleScalar(const uint8_t *s, const int32_t *d0,
                     const int32_t *d1, const int32_t *d2,
                     const int32_t *d3, const uint32_t *w_of_e,
                     uint32_t *weights, int padded_m, int m,
                     uint64_t draw)
{
    // Pass 1: clamped energies (into the weights buffer as int32
    // scratch) and their minimum. Pads clamp to exactly kEnergyMax,
    // so min over all padded lanes == min over the real ones.
    int32_t *e = reinterpret_cast<int32_t *>(weights);
    int emin = kEnergyMax;
    for (int i = 0; i < padded_m; ++i) {
        int v = s[i] + d0[i] + d1[i] + d2[i] + d3[i];
        v = v < kEnergyMax ? v : kEnergyMax;
        e[i] = v;
        emin = v < emin ? v : emin;
    }
    // Pass 2: site-renormalized lookups (e - emin stays in
    // [0, kEnergyMax], so indexing is always in-bounds).
    for (int i = 0; i < padded_m; ++i)
        weights[i] = w_of_e[e[i] - emin];
    return selectCandidateFixed(draw, weights, m);
}

InteriorSampleFn
interiorSampleFor(rsu::core::SimdIsa isa)
{
#if defined(__x86_64__) || defined(__i386__)
    if (isa == rsu::core::SimdIsa::Avx2)
        return &interiorSampleAvx2;
#endif
    return &interiorSampleScalar;
}

PairSample8Fn
pairSample8For(rsu::core::SimdIsa isa)
{
#if defined(__x86_64__) || defined(__i386__)
    if (isa == rsu::core::SimdIsa::Avx2)
        return &pairSample8Avx2;
#endif
    return nullptr;
}

} // namespace rsu::mrf::detail
