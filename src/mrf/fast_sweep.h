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
 *   mrf/simd_kernels.h). Because its weight accumulation and
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
 * rows.
 *
 * SweepTableSet is the immutable static part — singleton energies
 * (padded rows), doubleton distances, and label codes. It depends
 * only on (model, geometry, energy config, codes), never on
 * temperature, so the runtime's InferenceEngine caches and shares
 * one set across queued jobs on the same model; construction can
 * fan out over a thread pool via core::RowParallelFor. SweepTables
 * binds a shared (or owned) set to one sampling chain, adding the
 * temperature-dependent exp tables and the site-update kernels.
 *
 * Sharing: both classes are immutable during sweeps and may be read
 * by any number of runtime shards concurrently. sync() — which
 * rebuilds the exp tables when the model's temperatureVersion() has
 * moved past the one SweepTables last saw (annealing) — must be
 * called from one thread between sweeps; SweepCore::sweep() does
 * this at sweep start.
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
#include "mrf/simd_kernels.h"
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

/**
 * The temperature-independent tables of one model: per-site
 * singleton energies and neighbour-major doubleton distances (both
 * with rows padded to the SIMD lane multiple), and the candidate ->
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

  private:
    int width_;
    int height_;
    int num_labels_;
    int padded_labels_;
    std::vector<Label> codes_; // candidate index -> code
    rsu::core::SingletonTable singleton_;
    rsu::core::DoubletonTable doubleton_;
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
     *
     * @throws std::invalid_argument if @p set is null or its
     *         width, height, label count, or label codes differ
     *         from @p mrf's
     */
    SweepTables(const GridMrf &mrf,
                std::shared_ptr<const SweepTableSet> set);

    /**
     * Rebuild the exp tables if the model's temperature changed
     * since the last sync (GridMrf::temperatureVersion() differs
     * from the stamp taken then).
     * Call from a single thread between sweeps; cheap no-op when
     * the temperature is unchanged.
     */
    void sync();

    /**
     * Select the Simd kernel (defaults to core::activeSimdIsa()).
     * Either choice produces identical labels — tests force Scalar
     * here to prove it. Not thread-safe; call between sweeps.
     */
    void setSimdIsa(rsu::core::SimdIsa isa);

    /**
     * Resample lattice-interior site (x, y) — all four neighbours
     * must exist. Branch-free candidate loop over the singleton row
     * and the four neighbours' doubleton rows: five loads and an
     * add per candidate. Bit-identical to the Reference kernel.
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
     * update in registers for M <= 16). @p weights is caller-owned
     * scratch with at least paddedLabels() entries; @p block
     * buffers @p rng's raw stream. Identical results on either
     * kernel.
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
        const auto &dt = set_->doubleton();
        const int m = num_labels_;
        // The singleton rows are the one stream large lattices pull
        // from memory (the doubleton rows and exp table stay
        // cached). For wide candidate rows — the generic kernel,
        // where a row can straddle two cache lines — fetch 8
        // checkerboard iterations ahead to keep the row loads off
        // the kernel's critical path; the register-resident M <= 16
        // kernels pack several sites per line and the extra
        // prefetch traffic only costs them.
        if (set_->paddedLabels() > 16 &&
            site + 16 < width_ * height_) {
            const uint8_t *ahead = set_->singleton().row(site + 16);
            __builtin_prefetch(ahead);
            __builtin_prefetch(ahead + set_->paddedLabels() - 1);
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
    uint64_t temperature_version_; // model's version at last rebuild
    rsu::core::ExpTable exp_;            // Table path weights
    rsu::core::FixedExpTable fixed_exp_; // Simd path weights
    detail::InteriorSampleFn interior_fn_;
};

} // namespace rsu::mrf

#endif // RSU_MRF_FAST_SWEEP_H
