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
 *   dimension with runtime-dispatched kernels (core/simd.h,
 *   mrf/simd_kernels.h). Because its weight accumulation and
 *   prefix-sum selection are associative integer operations, AVX2,
 *   SSE2, and the scalar fallback produce *identical* label fields
 *   for the same (seed, schedule, shard count) — self-deterministic
 *   across ISAs and runs, but NOT bit-identical to Table (weights
 *   are quantized; correctness is established statistically —
 *   tests/simd_sweep_test.cpp).
 *
 * SweepTableSet is the immutable static part — singleton energies
 * (padded rows), doubleton distances (both orientations), and label
 * codes. It depends only on (model, geometry, energy config,
 * codes), never on temperature, so the runtime's InferenceEngine
 * caches and shares one set across queued jobs on the same model;
 * construction can fan out over a thread pool via
 * core::RowParallelFor. SweepTables binds a shared (or owned) set
 * to one sampling chain, adding the temperature-dependent exp
 * tables and the site-update kernels.
 *
 * Sharing: both classes are immutable during sweeps and may be read
 * by any number of runtime shards concurrently. sync() — which
 * rebuilds the exp tables when the model's temperatureVersion() has
 * moved (annealing) — must be called from one thread between
 * sweeps; SweepCore::sweep() does this at sweep start.
 *
 * SamplerWork counters record the *logical* baseline costs (m
 * energy evaluations and m exp calls per site) even though the fast
 * paths replace them with loads: the architecture models cost the
 * paper's straightforward-MCMC baseline, and that workload is
 * unchanged — only our software realization of it got faster.
 */

#ifndef RSU_MRF_FAST_SWEEP_H
#define RSU_MRF_FAST_SWEEP_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/simd.h"
#include "core/tables.h"
#include "mrf/grid_mrf.h"
#include "rng/block.h"
#include "rng/xoshiro256.h"

namespace rsu::mrf {

/** Work performed by a sampler (inputs to the timing models).
 * Counts are *logical* baseline operations: the table-driven fast
 * path reports the same energy_evals/exp_calls as the reference
 * path it bit-matches, so the architecture cost models see one
 * workload regardless of which software realization ran. */
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

namespace detail {
using InteriorSampleFn = int (*)(const uint16_t *, const int32_t *,
                                 const int32_t *, const int32_t *,
                                 const int32_t *, const uint32_t *,
                                 uint32_t *, int, int, uint64_t);
} // namespace detail

/**
 * The temperature-independent tables of one model: per-site
 * singleton energies (rows padded to the SIMD lane multiple),
 * doubleton distances in candidate-major (Table kernels) and
 * neighbour-major (Simd kernels) orientation, and the candidate ->
 * code decode. Immutable once built; share one instance across any
 * number of SweepTables / jobs on the same model (the engine's
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
    const rsu::core::TransposedDoubletonTable &
    transposedDoubleton() const
    {
        return transposed_;
    }

  private:
    int width_;
    int height_;
    int num_labels_;
    int padded_labels_;
    std::vector<Label> codes_; // candidate index -> code
    rsu::core::SingletonTable singleton_;
    rsu::core::DoubletonTable doubleton_;
    rsu::core::TransposedDoubletonTable transposed_;
};

/** Precomputed tables + kernels for one GridMrf's fast sweeps. */
class SweepTables
{
  public:
    /** Build a private SweepTableSet for @p mrf. Holds a reference
     * to @p mrf for temperature synchronization — the model must
     * outlive the tables. */
    explicit SweepTables(const GridMrf &mrf);

    /**
     * Bind an existing (typically cached) static set built for a
     * model identical to @p mrf's. Only the per-chain exp tables
     * are constructed — the expensive singleton scan is skipped.
     */
    SweepTables(const GridMrf &mrf,
                std::shared_ptr<const SweepTableSet> set);

    /**
     * Rebuild the exp tables if the model's temperature changed
     * since the last sync (keyed to GridMrf::temperatureVersion()).
     * Call from a single thread between sweeps; cheap no-op when
     * the temperature is unchanged.
     */
    void sync();

    /**
     * Select the Simd kernels' ISA (defaults to
     * core::activeSimdIsa(), i.e. the widest detected unless
     * RSU_SIMD narrows it). Any choice produces identical labels —
     * tests force Scalar here to prove it. Not thread-safe; call
     * between sweeps.
     */
    void setSimdIsa(rsu::core::SimdIsa isa);
    rsu::core::SimdIsa simdIsa() const { return isa_; }

    /**
     * Resample lattice-interior site (x, y) — all four neighbours
     * must exist. Branch-free candidate loop: five table loads and
     * an add per candidate. Bit-identical to the Reference kernel.
     */
    Label updateInterior(GridMrf &mrf, rsu::rng::Xoshiro256 &rng,
                         double *weights, SamplerWork &work, int x,
                         int y) const;

    /**
     * Resample any site, checking neighbour validity — the border
     * complement of updateInterior (also correct for interior
     * sites, just slower).
     */
    Label updateBorder(GridMrf &mrf, rsu::rng::Xoshiro256 &rng,
                       double *weights, SamplerWork &work, int x,
                       int y) const;

    /**
     * Simd-path interior update: the dispatched vector kernel
     * computes paddedLabels() fixed-point weights 8 candidates at a
     * time and draws the label from one buffered 64-bit variate via
     * integer prefix sums, in one fused call (AVX2 keeps the whole
     * update in registers for M <= 8). @p weights is caller-owned
     * scratch with at least paddedLabels() entries; @p block
     * buffers @p rng's raw stream. Identical results on every ISA.
     *
     * Defined inline: the per-site cost of this path is a handful
     * of table loads around one kernel call, so the sweep loops
     * must be able to hoist the table pointers out of their
     * per-row iteration — through an out-of-line call the loads
     * re-execute every site and dominate the profile (~3x on the
     * benchmark lattices).
     */
    Label
    updateInteriorSimd(GridMrf &mrf, rsu::rng::Xoshiro256 &rng,
                       rsu::rng::BlockRng &block, uint32_t *weights,
                       SamplerWork &work, int x, int y) const
    {
        const int site = y * width_ + x;
        const Label *labels = mrf.labels().data();
        const auto &dt = set_->transposedDoubleton();
        const int m = num_labels_;
        // The singleton rows are the one stream large lattices pull
        // from memory (the doubleton rows and exp table stay
        // cached). For wide candidate rows — the generic kernel,
        // where each row spans multiple cache lines — fetch 8
        // checkerboard iterations ahead to keep the row loads off
        // the kernel's critical path; the register-resident M <= 16
        // kernels pack several sites per line and the extra
        // prefetch traffic only costs them.
        if (set_->paddedLabels() > 16 &&
            site + 16 < width_ * height_) {
            const uint16_t *ahead = set_->singleton().row(site + 16);
            __builtin_prefetch(ahead);
            __builtin_prefetch(ahead + 32);
        }
        const int choice = interior_fn_(
            set_->singleton().row(site), dt.row(labels[site - width_]),
            dt.row(labels[site + width_]), dt.row(labels[site - 1]),
            dt.row(labels[site + 1]), fixed_exp_.data(), weights,
            set_->paddedLabels(), m, block.next(rng));
        work.energy_evals += m;
        work.exp_calls += m;
        ++work.random_draws;
        ++work.site_updates;

        const Label l = set_->codes()[choice];
        mrf.setLabel(x, y, l);
        return l;
    }

    /** Simd-path border update (scalar integer arithmetic — the
     * same fixed-point draw, with neighbour validity checks). */
    Label updateBorderSimd(GridMrf &mrf, rsu::rng::Xoshiro256 &rng,
                           rsu::rng::BlockRng &block,
                           uint32_t *weights, SamplerWork &work,
                           int x, int y) const;

    int paddedLabels() const { return set_->paddedLabels(); }
    const SweepTableSet &set() const { return *set_; }
    std::shared_ptr<const SweepTableSet> sharedSet() const
    {
        return set_;
    }

    const rsu::core::SingletonTable &
    singletonTable() const
    {
        return set_->singleton();
    }
    const rsu::core::DoubletonTable &
    doubletonTable() const
    {
        return set_->doubleton();
    }
    const rsu::core::ExpTable &expTable() const { return exp_; }
    const rsu::core::FixedExpTable &
    fixedExpTable() const
    {
        return fixed_exp_;
    }

  private:
    const GridMrf *mrf_;
    int width_;
    int height_;
    int num_labels_;
    std::shared_ptr<const SweepTableSet> set_;
    rsu::core::ExpTable exp_;            // Table path weights
    rsu::core::FixedExpTable fixed_exp_; // Simd path weights
    rsu::core::SimdIsa isa_;
    detail::InteriorSampleFn interior_fn_;
};

} // namespace rsu::mrf

#endif // RSU_MRF_FAST_SWEEP_H
