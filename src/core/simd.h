/**
 * @file
 * Runtime SIMD instruction-set detection.
 *
 * The Simd sweep path (mrf/fast_sweep.h) vectorizes the candidate
 * dimension of the Gibbs inner loop with an AVX2 kernel, picked at
 * runtime when cpuid reports AVX2, and a portable scalar kernel
 * otherwise. Because both kernels operate on Q32 fixed-point
 * weights with associative integer arithmetic, they produce
 * *identical* label fields; the selection here is purely a speed
 * choice, never a results choice (tests/simd_sweep_test.cpp
 * enforces the equivalence).
 */

#ifndef RSU_CORE_SIMD_H
#define RSU_CORE_SIMD_H

namespace rsu::core {

/** Kernels the Simd sweep path can run. */
enum class SimdIsa {
    Scalar, //!< portable integer loop (always available)
    Avx2,   //!< 8 x int32 lanes + hardware gather
};

/** Candidate-lane padding the kernels assume (AVX2's lane count). */
constexpr int kSimdPadLanes = 8;

/** Lowercase name ("scalar" | "avx2"). */
const char *simdIsaName(SimdIsa isa);

/** The kernel the Simd sweep path uses by default: Avx2 when cpuid
 * reports AVX2 support, Scalar otherwise (checked once, cached). */
SimdIsa activeSimdIsa();

} // namespace rsu::core

#endif // RSU_CORE_SIMD_H
