/**
 * @file
 * The one Gibbs sweep core every sampler wraps.
 *
 * The paper's accelerator is an array of identical RSU-G units, each
 * running the same site update (sections 4.2 and 6.1). The software
 * samplers mirror that: GibbsSampler, RsuGibbsSampler (Direct mode),
 * runtime::ChromaticGibbsSampler and arch::AcceleratorSim differ only
 * in how many chains they run and which chain updates which site.
 * SweepCore owns everything else:
 *
 *  - one SweepChain per chain — its RNG stream or emulated RSU-G,
 *    candidate-weight scratch, SIMD draw buffer and work counters;
 *  - the model's precomputed state — on the Table and Simd paths the
 *    bound SweepTableSet, the exp tables for the current temperature
 *    and the Simd kernel; on the device path the staged Data2Table;
 *  - the single point that picks the site kernel (Reference, Table,
 *    Simd or RsuGibbs), once per sweep: device chains run RsuGibbs,
 *    software chains run their SweepPath;
 *  - the chain lifecycle: unit set-up, temperature changes, SIMD ISA
 *    selection, fault injection, and summed work and device stats.
 *
 * A sweep is driven by a caller-supplied driver. sweep() hands it one
 * row kernel, row(chain, y, x, end, step), which resamples sites x,
 * x + step, ... < end of row y on that chain, in that order; the
 * driver decides which rows, which run of each row and which chain.
 * A run of same-colour sites in one row is the paper's parallel unit
 * of work (section 4.2, Figure 4). On the Table and Simd paths the
 * row kernel runs one site-update body over the site's four
 * neighbour doubleton rows, and it is the one place that tells
 * interior from border sites: interior sites load the four rows
 * directly, with no per-site bounds check, and border sites (first
 * and last row, first and last column) substitute DoubletonTable's
 * zero row for a missing neighbour. On the Simd path at M = 2 with
 * AVX2, step-2 interior runs go 8 sites per site-parallel kernel
 * call (simdUpdate8), with the same labels and draws as 8 site
 * updates. Drivers and kernels are template callables, so every
 * per-site call inlines (the Simd body in particular loses ~3x when
 * its table loads cannot be hoisted out of the row loop).
 */

#ifndef RSU_MRF_SWEEP_CORE_H
#define RSU_MRF_SWEEP_CORE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rsu_g.h"
#include "core/simd.h"
#include "core/tables.h"
#include "mrf/fast_sweep.h"
#include "mrf/grid_mrf.h"
#include "mrf/schedule.h"
#include "mrf/simd_kernels.h"
#include "ret/fault_injection.h"
#include "rng/block.h"
#include "rng/discrete.h"
#include "rng/xoshiro256.h"

namespace rsu::mrf {

/**
 * Everything one chain touches during a sweep, on cache lines of its
 * own. Chains run on different cores and write their rng state,
 * scratch and work counters at every site, so the struct is
 * line-aligned and the scratch is inline: a line shared by two
 * chains would bounce between their cores on every site update.
 */
struct alignas(64) SweepChain
{
    rsu::rng::Xoshiro256 rng{0};
    // Reference/Table scratch (numLabels() entries used).
    std::array<double, rsu::core::kMaxLabels> weights{};
    // Simd scratch (paddedLabels() <= kMaxLabels entries used).
    alignas(64) std::array<uint32_t, rsu::core::kMaxLabels>
        fixed_weights{};
    rsu::rng::BlockRng block;        // Simd draw buffer
    rsu::core::RsuG *unit = nullptr; // RsuGibbs device, if any
    SamplerWork work;
};

/** Chains, model state and kernel choice shared by every sampler. */
class SweepCore
{
  public:
    /**
     * Software chains, one per stream. @p path picks the kernel;
     * Table and Simd bind @p table_set when given (a cached set
     * built for an identical model) and build a private one
     * otherwise.
     *
     * @throws std::invalid_argument if @p table_set's width, height,
     *         label count or label codes differ from @p mrf's
     */
    SweepCore(GridMrf &mrf, std::vector<rsu::rng::Xoshiro256> streams,
              SweepPath path,
              std::shared_ptr<const SweepTableSet> table_set = nullptr);

    /**
     * Device chains, one owned RSU-G per seed, built from @p config.
     * Its energy datapath must equal the model's (see
     * RsuGibbsSampler::unitConfigFor), or this throws.
     */
    SweepCore(GridMrf &mrf, const rsu::core::RsuGConfig &config,
              const std::vector<uint64_t> &seeds);

    /** One device chain on the caller's @p unit (must outlive the
     * core), checked and set up like the owned units. */
    SweepCore(GridMrf &mrf, rsu::core::RsuG &unit);

    /**
     * One sweep: picks the kernel and returns @p drive(row), where
     * row(c, y, x, end, step) resamples sites x, x + step, ... < end
     * of row y on chain c, in that order (0 <= x, end <= width).
     */
    template <typename Driver>
    auto
    sweep(Driver &&drive)
    {
        if (data2_) // device chains: the RSU-G race
            return drive(eachSite<&SweepCore::deviceUpdate>());
        if (!table_set_)
            return drive(eachSite<&SweepCore::referenceUpdate>());
        // Single-threaded before any chain runs: rebuild the exp
        // tables if annealing moved the temperature.
        if (temperature_version_ != mrf_.temperatureVersion())
            rebuildExpTables();
        if (path_ == SweepPath::Simd)
            return driveRows<&SweepCore::simdUpdate, true>(drive);
        return driveRows<&SweepCore::tableUpdate, false>(drive);
    }

    /** One sweep of chain 0 over every site in @p schedule order. */
    void sweepInOrder(Schedule schedule);

    /** Resample site (x, y) on chain 0. */
    Label updateSite(int x, int y);

    /** Install a new Gibbs temperature in the model and rebuild
     * every unit's intensity map for it (section 6.1). */
    void setTemperature(double t);

    /** Select the Simd kernels' ISA. Either choice produces
     * identical labels; call between sweeps. AVX2 on an M = 2 model
     * adds the site-parallel kernel for interior same-colour runs. */
    void
    setSimdIsa(rsu::core::SimdIsa isa)
    {
        simd_fn_ = detail::interiorSampleFor(isa);
        pair8_fn_ = table_set_ && table_set_->numLabels() == 2
                        ? detail::pairSample8For(isa)
                        : nullptr;
    }

    /** Inject plan.faultsFor(c, width) into chain c's unit (no-op on
     * software chains): afflicted lanes depend only on (plan.seed,
     * chain index). */
    void injectFaults(const rsu::ret::FaultPlan &plan);

    /** True once any chain's unit declared itself failed. */
    bool deviceFailed() const;

    /** Unit counters summed over chains (zeros without units). */
    rsu::core::RsuGStats deviceStats() const;

    /** Work counters summed over chains. */
    SamplerWork work() const;

    int chains() const { return static_cast<int>(chains_.size()); }
    SweepChain &chain(int c) { return chains_[c]; }
    const SweepChain &chain(int c) const { return chains_[c]; }

    /** Chain @p c's unit. Throws std::out_of_range for a bad index
     * and std::logic_error on a software chain. */
    rsu::core::RsuG &unit(int c);

    /** The bound static tables (nullptr off the Table/Simd paths). */
    const SweepTableSet *tableSet() const { return table_set_.get(); }

    /** The Table path's weights at the current temperature. */
    const rsu::core::ExpTable &expTable() const { return exp_; }

    /** The Simd path's Q32 weights at the current temperature. */
    const rsu::core::FixedExpTable &
    fixedExpTable() const
    {
        return fixed_exp_;
    }

    /** Staged per-site data2 operands (device chains only). */
    const rsu::core::Data2Table &data2() const { return *data2_; }

  private:
    /** A row kernel running @p Update(chain, x, y) on each site of
     * the run (the Reference and device paths). */
    template <auto Update>
    auto
    eachSite()
    {
        return [this](int c, int y, int x, int end, int step) {
            for (; x < end; x += step)
                (this->*Update)(chains_[c], x, y);
        };
    }

    /**
     * Hand @p drive the Table/Simd row kernel around
     * @p Update(chain, x, y, d0, d1, d2, d3), the one site-update
     * body of the path, where d0..d3 are the doubleton rows of the
     * N, S, W and E neighbours. Border sites read the zero row for
     * each missing neighbour; the interior sites between them load
     * the four rows directly. With @p SiteParallel (the Simd path),
     * same-colour interior runs go through simdUpdate8 8 sites at a
     * time where the chain's ISA and M have a site-parallel kernel.
     */
    template <auto Update, bool SiteParallel, typename Driver>
    auto
    driveRows(Driver &drive)
    {
        return drive([this](int c, int y, int x, int end, int step) {
            const rsu::core::DoubletonTable &dt = table_set_->doubleton();
            const Label *labels = mrf_.labels().data();
            const int w = mrf_.width();
            const int h = mrf_.height();
            SweepChain &ch = chains_[c];
            const auto border = [&](int bx) {
                const int site = y * w + bx;
                const int32_t *zero = dt.zeroRow();
                (this->*Update)(
                    ch, bx, y, y > 0 ? dt.row(labels[site - w]) : zero,
                    y + 1 < h ? dt.row(labels[site + w]) : zero,
                    bx > 0 ? dt.row(labels[site - 1]) : zero,
                    bx + 1 < w ? dt.row(labels[site + 1]) : zero);
            };
            if (y == 0 || y == h - 1) {
                for (; x < end; x += step)
                    border(x);
                return;
            }
            if (x == 0 && end > 0) {
                border(0);
                x = step;
            }
            const int last = end < w - 1 ? end : w - 1;
            if constexpr (SiteParallel) {
                if (step == 2 && pair8_fn_)
                    for (; x + 14 < last; x += 16)
                        simdUpdate8(ch, x, y);
            }
            for (; x < last; x += step) {
                const int site = y * w + x;
                (this->*Update)(ch, x, y, dt.row(labels[site - w]),
                                dt.row(labels[site + w]),
                                dt.row(labels[site - 1]),
                                dt.row(labels[site + 1]));
            }
            if (x < end) // x == w - 1
                border(x);
        });
    }

    /**
     * Table-path site update: the clamped sums of the singleton row
     * and the four doubleton rows index the exact exp table, and the
     * draw is the Reference kernel's linear scan, so the result is
     * bit-identical to it.
     */
    void
    tableUpdate(SweepChain &ch, int x, int y, const int32_t *d0,
                const int32_t *d1, const int32_t *d2,
                const int32_t *d3)
    {
        const SweepTableSet &set = *table_set_;
        const uint8_t *s = set.singleton().row(y * set.width() + x);
        const double *et = exp_.data();
        double *weights = ch.weights.data();
        const int m = set.numLabels();
        for (int i = 0; i < m; ++i) {
            int e = s[i] + d0[i] + d1[i] + d2[i] + d3[i];
            e = e < rsu::core::kEnergyMax ? e : rsu::core::kEnergyMax;
            weights[i] = et[e];
        }
        const int choice =
            rsu::rng::sampleDiscreteLinear(ch.rng, weights, m);
        countSoftwareUpdate(ch.work, m);
        mrf_.setLabel(x, y, set.codes()[choice]);
    }

    /**
     * Simd-path site update: the dispatched kernel computes
     * paddedLabels() fixed-point weights 8 candidates at a time and
     * draws the label from one buffered 64-bit variate via integer
     * prefix sums, in one fused call (AVX2 keeps the whole update in
     * registers for M <= 16). Identical results on either kernel.
     *
     * Header-inline: the per-site cost of this path is a handful of
     * table loads around one kernel call, so the sweep loops must be
     * able to hoist the table pointers out of their per-row
     * iteration — through an out-of-line call the loads re-execute
     * every site and dominate the profile (~3x on the benchmark
     * lattices).
     */
    void
    simdUpdate(SweepChain &ch, int x, int y, const int32_t *d0,
               const int32_t *d1, const int32_t *d2, const int32_t *d3)
    {
        const SweepTableSet &set = *table_set_;
        const int site = y * set.width() + x;
        const int padded = set.paddedLabels();
        // The singleton rows are the one stream large lattices pull
        // from memory (the doubleton rows and exp table stay
        // cached). For wide candidate rows — the generic kernel,
        // where a row can straddle two cache lines — fetch 8
        // checkerboard iterations ahead to keep the row loads off
        // the kernel's critical path; the register-resident M <= 16
        // kernels pack several sites per line and the extra
        // prefetch traffic only costs them.
        if (padded > 16 && site + 16 < set.width() * set.height()) {
            const uint8_t *ahead = set.singleton().row(site + 16);
            __builtin_prefetch(ahead);
            __builtin_prefetch(ahead + padded - 1);
        }
        const int m = set.numLabels();
        const int choice = simd_fn_(
            set.singleton().row(site), d0, d1, d2, d3,
            fixed_exp_.data(), ch.fixed_weights.data(), padded, m,
            ch.block.next(ch.rng));
        countSoftwareUpdate(ch.work, m);
        mrf_.setLabel(x, y, set.codes()[choice]);
    }

    /**
     * Simd-path update of the 8 interior sites x, x + 2, ..., x + 14
     * of row y on an M = 2 model: one site-parallel kernel call
     * (detail::pairSample8Avx2) that draws site x + 2k from the k-th
     * of 8 consecutive buffered variates. Labels, stream consumption
     * and work counts equal those of 8 simdUpdate calls in site
     * order: same-colour sites never read each other, so drawing
     * them together changes nothing they see.
     */
    void
    simdUpdate8(SweepChain &ch, int x, int y)
    {
        const SweepTableSet &set = *table_set_;
        const int site = y * set.width() + x;
        uint64_t draws[8];
        ch.block.next(ch.rng, draws, 8);
        const unsigned picks = pair8_fn_(
            set.singleton().row(site), mrf_.labels().data() + site,
            set.width(), set.doubleton().row(0), fixed_exp_.data(),
            draws);
        const Label codes[2] = {set.codes()[0], set.codes()[1]};
        for (int k = 0; k < 8; ++k)
            mrf_.setLabel(x + 2 * k, y, codes[(picks >> k) & 1]);
        countSoftwareUpdate(ch.work, 2, 8);
    }

    /** Logical baseline costs of one software site update: the
     * timing models charge the m conditional-energy computations and
     * m transcendentals the site *represents*, not the loads that
     * realized them. */
    static void
    countSoftwareUpdate(SamplerWork &work, int m, int sites = 1)
    {
        work.energy_evals += m * sites;
        work.exp_calls += m * sites;
        work.random_draws += sites;
        work.site_updates += sites;
    }

    void rebuildExpTables();
    void setUpUnits();
    void referenceUpdate(SweepChain &chain, int x, int y);
    void deviceUpdate(SweepChain &chain, int x, int y);

    GridMrf &mrf_;
    SweepPath path_;
    std::vector<SweepChain> chains_;
    std::vector<std::unique_ptr<rsu::core::RsuG>> owned_units_;
    // Shared read-only by every chain during a sweep. Table/Simd:
    std::shared_ptr<const SweepTableSet> table_set_;
    uint64_t temperature_version_ = 0; // model's at last rebuild
    rsu::core::ExpTable exp_;            // Table weights
    rsu::core::FixedExpTable fixed_exp_; // Simd weights
    detail::InteriorSampleFn simd_fn_ = nullptr; // see setSimdIsa
    detail::PairSample8Fn pair8_fn_ = nullptr;
    // Device chains:
    std::unique_ptr<rsu::core::Data2Table> data2_;
};

} // namespace rsu::mrf

#endif // RSU_MRF_SWEEP_CORE_H
