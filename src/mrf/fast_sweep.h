/**
 * @file
 * Table-driven fast sweep paths over a GridMrf.
 *
 * Two acceleration layers share one set of precomputed tables:
 *
 * - The **Table** path is *bit-identical* to the Reference kernel
 *   (mrf/sweep_core.h): energies are exact integers, so
 *   table lookups reproduce the reference sums exactly, the exp
 *   table stores the very doubles std::exp would return, and the
 *   discrete draw consumes the RNG identically. Any (seed,
 *   schedule, shard count, temperature schedule) therefore produces
 *   the same label field on either path — the correctness contract
 *   tests/fast_sweep_test.cpp enforces.
 *
 * - The **Simd** path additionally converts the exp weights to Q32
 *   fixed point (core::FixedExpTable) and vectorizes the candidate
 *   dimension with a runtime-dispatched kernel (core/simd.h,
 *   mrf/simd_kernels.h) — at M = 2 with AVX2, the site dimension
 *   instead, 8 same-colour sites per call. Because its weight
 *   accumulation and
 *   prefix-sum selection are associative integer operations, the
 *   AVX2 and scalar kernels produce *identical* label fields for
 *   the same (seed, schedule, shard count) — self-deterministic
 *   across ISAs and runs, but NOT bit-identical to Table (weights
 *   are quantized; correctness is established statistically —
 *   tests/simd_sweep_test.cpp).
 *
 * Both paths read one doubleton table, neighbour-major
 * (core::DoubletonTable): a site's candidate energies are the
 * element-wise sum of its singleton row and its four neighbours'
 * rows. A missing neighbour reads the table's all-zero row, as the
 * device's cleared neighbor_valid bit zeroes its doubleton term, so
 * border and interior sites run the same site update on each path.
 *
 * SweepTableSet is the immutable static part — singleton energies
 * (padded rows), doubleton distances, and label codes. It depends
 * only on (model, geometry, energy config, codes), never on
 * temperature, so the runtime's InferenceEngine caches and shares
 * one set across queued jobs on the same model; construction can
 * fan out over a thread pool via core::RowParallelFor. SweepCore
 * (mrf/sweep_core.h) binds a shared (or private) set to its chains
 * and owns the rest: the temperature-dependent exp tables, which it
 * rebuilds single-threaded at sweep start when the model's
 * temperatureVersion() has moved (annealing), and the two site
 * updates. A set is immutable during sweeps and may be read by any
 * number of runtime shards concurrently.
 *
 * A software Gibbs sampler's SamplerWork is the *logical* baseline
 * work of its site updates (m energy evaluations and m exp calls per
 * site), even though the fast paths replace them with loads:
 * SweepCore keeps one site count per chain and derives every field
 * on read.
 */

#ifndef RSU_MRF_FAST_SWEEP_H
#define RSU_MRF_FAST_SWEEP_H

#include <cstdint>
#include <vector>

#include "core/tables.h"
#include "mrf/grid_mrf.h"

namespace rsu::mrf {

/** Work performed by a sampler, in *logical* baseline operations:
 * every Gibbs path reports the Reference path's counts, derived
 * from its site count (SweepCore::work()). Outside tests only
 * site_updates is read (perfbench's sites_per_s, runtime_server);
 * ICM and Metropolis count their own operations. */
struct SamplerWork
{
    uint64_t site_updates = 0;
    uint64_t energy_evals = 0;  //!< per-candidate energy computations
    uint64_t exp_calls = 0;     //!< transcendental evaluations
    uint64_t random_draws = 0;  //!< uniform variates consumed

    SamplerWork &
    operator+=(const SamplerWork &other)
    {
        site_updates += other.site_updates;
        energy_evals += other.energy_evals;
        exp_calls += other.exp_calls;
        random_draws += other.random_draws;
        return *this;
    }
};

/** Which software realization of the Gibbs inner loop to run. */
enum class SweepPath {
    Reference, //!< virtual data2 + EnergyUnit + std::exp per candidate
    Table,     //!< precomputed tables, bit-identical results (fast)
    Simd,      //!< vectorized Q32 fixed-point tables (fastest);
               //!< identical across ISAs, not bit-identical to Table
};

/**
 * The temperature-independent tables of one model: per-site
 * singleton energies and neighbour-major doubleton distances (both
 * with rows padded to the SIMD lane multiple), and the candidate ->
 * code decode. Immutable once built; share one instance across any
 * number of SweepCores / jobs on the same model (the engine's
 * table cache does exactly that).
 */
class SweepTableSet
{
  public:
    /**
     * Build all static tables for @p mrf (one full scan of the
     * static singleton model; the model must not change
     * afterwards). @p parallel optionally fans the per-row
     * singleton fills over worker threads
     * (runtime::parallelRowRunner) — the result is identical to a
     * sequential build.
     */
    explicit SweepTableSet(const GridMrf &mrf,
                           const rsu::core::RowParallelFor &parallel = {});

    int width() const { return width_; }
    int height() const { return height_; }
    int numLabels() const { return num_labels_; }

    /** Candidate row stride (numLabels() padded up to the SIMD
     * lane multiple, core::kSimdPadLanes). */
    int paddedLabels() const { return padded_labels_; }

    const std::vector<Label> &codes() const { return codes_; }
    const rsu::core::SingletonTable &singleton() const
    {
        return singleton_;
    }
    const rsu::core::DoubletonTable &doubleton() const
    {
        return doubleton_;
    }

  private:
    int width_;
    int height_;
    int num_labels_;
    int padded_labels_;
    std::vector<Label> codes_; // candidate index -> code
    rsu::core::SingletonTable singleton_;
    rsu::core::DoubletonTable doubleton_;
};

} // namespace rsu::mrf

#endif // RSU_MRF_FAST_SWEEP_H
