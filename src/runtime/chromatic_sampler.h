/**
 * @file
 * Multi-threaded chromatic Gibbs sampling over a GridMrf.
 *
 * Binds the ParallelSweepExecutor to the sweep core
 * (mrf/sweep_core.h): one core chain per shard. Each band row of a
 * colour phase (ParallelSweepExecutor::sweep) becomes one call of
 * the core's row kernel over that row's sites of the colour, on the
 * shard's chain. Each chain owns the full
 * per-worker state a correct parallel chain needs — an RNG stream
 * (jump()-separated, see rng/streams.h) or a whole emulated RSU-G
 * device, candidate-weight scratch, and its own site count — so a
 * sweep performs zero cross-shard writes except the chromatically
 * safe label-field updates themselves.
 *
 * With one shard the chain consumes entropy in exactly the sequential
 * samplers' order, so results are bit-identical to GibbsSampler /
 * RsuGibbsSampler (Direct mode) with the same seed; with S shards
 * results are bit-identical across runs and across pool sizes for
 * the same (seed, S).
 */

#ifndef RSU_RUNTIME_CHROMATIC_SAMPLER_H
#define RSU_RUNTIME_CHROMATIC_SAMPLER_H

#include <cstdint>
#include <memory>

#include "core/rsu_g.h"
#include "mrf/fast_sweep.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "mrf/sweep_core.h"
#include "runtime/parallel_sweep.h"

namespace rsu::runtime {

/** Which site-update kernel the runtime drives. */
enum class SamplerKind {
    SoftwareGibbs, //!< full-conditional softmax + CDF scan per site
    RsuGibbs,      //!< emulated RSU-G device race, one unit per shard
};

/** Parallel checkerboard Gibbs chain over a thread pool. */
class ChromaticGibbsSampler
{
  public:
    /**
     * @param mrf model to sample (labels mutated in place; must
     *        outlive the sampler)
     * @param executor phase/shard driver (must outlive the sampler);
     *        its shard count fixes this chain's stream count
     * @param seed entropy seed; shard 0's stream is seeded exactly
     *        like the sequential samplers so 1-shard runs reproduce
     *        them bit-for-bit
     * @param kind site-update backend
     * @param rsu_base RSU-G configuration template for the per-shard
     *        units (RsuGibbs only); the energy datapath is overridden
     *        to match the model's, as RsuGibbsSampler requires
     * @param path SoftwareGibbs realization: Reference recomputes
     *        conditionals from the model; Table precomputes one
     *        SweepTableSet and one exp table, shared read-only by
     *        every shard, and sweeps through lookups (border sites
     *        read a zero doubleton row per missing neighbour, so
     *        every site runs the same update) — bit-identical
     *        results (see mrf/fast_sweep.h), several times faster;
     *        Simd vectorizes the candidate dimension over Q32
     *        fixed-point weights — fastest, identical across
     *        ISAs/runs/shard counts but not bit-identical to the
     *        other two. Ignored by RsuGibbs, whose device path is
     *        already table-driven (and whose data2 operands are
     *        always staged).
     * @param table_set pre-built static tables for this exact model
     *        (Table/Simd paths; e.g. the InferenceEngine's cache) —
     *        skips the singleton scan. nullptr builds a private set.
     */
    ChromaticGibbsSampler(rsu::mrf::GridMrf &mrf,
                          ParallelSweepExecutor &executor,
                          uint64_t seed,
                          SamplerKind kind = SamplerKind::SoftwareGibbs,
                          const rsu::core::RsuGConfig &rsu_base = {},
                          rsu::mrf::SweepPath path =
                              rsu::mrf::SweepPath::Reference,
                          std::shared_ptr<const rsu::mrf::SweepTableSet>
                              table_set = nullptr);

    /** One MCMC iteration: every site updated once, chromatically. */
    void sweep();

    /** Run @p n sweeps. */
    void run(int n);

    /**
     * Install a new Gibbs temperature (annealing). For the RSU
     * backend this re-initializes every shard's unit intensity map,
     * mirroring RsuGibbsSampler::setTemperature.
     */
    void setTemperature(double t) { core_.setTemperature(t); }

    /** Work of all shards (SweepCore::work()). */
    rsu::mrf::SamplerWork work() const { return core_.work(); }

    rsu::mrf::SweepPath path() const { return path_; }
    int shards() const { return core_.chains(); }

    /**
     * Select the Simd path's kernel ISA (no-op on other paths).
     * Any choice yields identical labels; call between sweeps.
     */
    void
    setSimdIsa(rsu::core::SimdIsa isa)
    {
        core_.setSimdIsa(isa);
    }

    /** Shard @p s's emulated device (RsuGibbs only; tests/wear).
     * Throws std::out_of_range for a bad @p s and std::logic_error
     * on a SoftwareGibbs sampler. */
    rsu::core::RsuG &unit(int s) { return core_.unit(s); }

    /**
     * Inject the per-shard slice of a device fault campaign
     * (RsuGibbs only; no-op otherwise). Shard s receives
     * plan.faultsFor(s, width), so the afflicted lanes depend only
     * on (plan.seed, shard index) — stable across pool sizes.
     */
    void
    injectFaults(const rsu::ret::FaultPlan &plan)
    {
        core_.injectFaults(plan);
    }

    /** True once any shard's device declared itself failed
     * (always false for SoftwareGibbs). */
    bool deviceFailed() const { return core_.deviceFailed(); }

    /** Device health/occupancy counters summed over all shards
     * (zeros for SoftwareGibbs). */
    rsu::core::RsuGStats
    deviceStats() const
    {
        return core_.deviceStats();
    }

  private:
    rsu::mrf::GridMrf &mrf_;
    ParallelSweepExecutor &executor_;
    rsu::mrf::SweepPath path_;
    rsu::mrf::SweepCore core_;
};

} // namespace rsu::runtime

#endif // RSU_RUNTIME_CHROMATIC_SAMPLER_H
