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
 *  - the model's precomputed state — SweepTables on the Table and
 *    Simd paths, the staged Data2Table on the device path;
 *  - the single point that picks the site kernel (Reference, Table,
 *    Simd or RsuGibbs), once per sweep: device chains run RsuGibbs,
 *    software chains run their SweepPath;
 *  - the chain lifecycle: unit set-up, temperature changes, SIMD ISA
 *    selection, fault injection, and summed work and device stats.
 *
 * A sweep is driven by a caller-supplied driver. sweep() hands it two
 * kernels, interior(chain, x, y) and border(chain, x, y) — the first
 * valid only where all four neighbours exist — and the driver visits
 * sites. Drivers and kernels are template callables, so every
 * per-site call inlines (the Simd interior kernel in particular loses
 * ~3x when its table loads cannot be hoisted; see fast_sweep.h).
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
#include "ret/fault_injection.h"
#include "rng/block.h"
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
     * One sweep: picks the kernel pair and returns
     * @p drive(interior, border), where each kernel resamples site
     * (x, y) on chain c when called as kernel(c, x, y). The driver
     * must call interior only for sites with all four neighbours.
     */
    template <typename Driver>
    auto
    sweep(Driver &&drive)
    {
        if (data2_) { // device chains: the RSU-G race
            const auto device = [this](int c, int x, int y) {
                deviceUpdate(chains_[c], x, y);
            };
            return drive(device, device);
        }
        if (!tables_) {
            const auto reference = [this](int c, int x, int y) {
                referenceUpdate(chains_[c], x, y);
            };
            return drive(reference, reference);
        }
        // Single-threaded before any chain runs: rebuild the exp
        // tables if annealing moved the temperature.
        tables_->sync();
        const SweepTables &tables = *tables_;
        if (path_ == SweepPath::Simd) {
            return drive(
                [this, &tables](int c, int x, int y) {
                    auto &ch = chains_[c];
                    tables.updateInteriorSimd(mrf_, ch.rng, ch.block,
                                              ch.fixed_weights.data(),
                                              ch.work, x, y);
                },
                [this, &tables](int c, int x, int y) {
                    auto &ch = chains_[c];
                    tables.updateBorderSimd(mrf_, ch.rng, ch.block,
                                            ch.fixed_weights.data(),
                                            ch.work, x, y);
                });
        }
        return drive(
            [this, &tables](int c, int x, int y) {
                auto &ch = chains_[c];
                tables.updateInterior(mrf_, ch.rng, ch.weights.data(),
                                      ch.work, x, y);
            },
            [this, &tables](int c, int x, int y) {
                auto &ch = chains_[c];
                tables.updateBorder(mrf_, ch.rng, ch.weights.data(),
                                    ch.work, x, y);
            });
    }

    /** One sweep of chain 0 over every site in @p schedule order. */
    void sweepInOrder(Schedule schedule);

    /** Resample site (x, y) on chain 0. */
    Label updateSite(int x, int y);

    /** Install a new Gibbs temperature in the model and rebuild
     * every unit's intensity map for it (section 6.1). */
    void setTemperature(double t);

    /** Select the Simd kernels' ISA (no-op without tables). */
    void setSimdIsa(rsu::core::SimdIsa isa);

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

    /** The Table/Simd tables (nullptr on other kernels). */
    const SweepTables *tables() const { return tables_.get(); }

    /** Staged per-site data2 operands (device chains only). */
    const rsu::core::Data2Table &data2() const { return *data2_; }

  private:
    void setUpUnits();
    void referenceUpdate(SweepChain &chain, int x, int y);
    void deviceUpdate(SweepChain &chain, int x, int y);

    GridMrf &mrf_;
    SweepPath path_;
    std::vector<SweepChain> chains_;
    std::vector<std::unique_ptr<rsu::core::RsuG>> owned_units_;
    // Shared read-only by every chain during a sweep.
    std::unique_ptr<SweepTables> tables_;         // Table/Simd
    std::unique_ptr<rsu::core::Data2Table> data2_; // device chains
};

} // namespace rsu::mrf

#endif // RSU_MRF_SWEEP_CORE_H
