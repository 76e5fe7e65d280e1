/**
 * @file
 * Software-reference Gibbs sampler.
 *
 * The conventional-processor baseline the paper measures against:
 * per site, compute the M conditional energies, exponentiate at the
 * model temperature, and draw from the normalized discrete
 * distribution with a linear CDF scan — the straightforward C/CUDA
 * inner loop of a standard MCMC solver (paper section 8.1).
 *
 * work() reports the logical operations of those updates, derived
 * from the chain's site count (see SweepCore::work()).
 */

#ifndef RSU_MRF_GIBBS_H
#define RSU_MRF_GIBBS_H

#include <cstdint>

#include "core/simd.h"
#include "mrf/fast_sweep.h"
#include "mrf/grid_mrf.h"
#include "mrf/schedule.h"
#include "mrf/sweep_core.h"

namespace rsu::mrf {

/** Exact full-conditional Gibbs sweeps over a GridMrf: one
 * SweepCore chain (mrf/sweep_core.h) seeded with @p seed. */
class GibbsSampler
{
  public:
    /**
     * @param mrf model to sample (state is mutated in place)
     * @param seed entropy seed
     * @param schedule site visit order
     * @param path Reference recomputes every conditional from the
     *        model; Table precomputes the tables once and sweeps
     *        through lookups — bit-identical results, several times
     *        faster; Simd additionally vectorizes the candidate
     *        dimension over Q32 fixed-point weights — fastest,
     *        identical across ISAs/runs but not bit-identical to
     *        the other two. Table/Simd assume the singleton model
     *        is static.
     */
    GibbsSampler(GridMrf &mrf, uint64_t seed,
                 Schedule schedule = Schedule::Checkerboard,
                 SweepPath path = SweepPath::Reference);

    GibbsSampler(GibbsSampler &&) noexcept = default;
    GibbsSampler &operator=(GibbsSampler &&) = delete;

    /** Resample one site from its full conditional. */
    Label updateSite(int x, int y) { return core_.updateSite(x, y); }

    /** One MCMC iteration: every site updated once. */
    void sweep() { core_.sweepInOrder(schedule_); }

    /** Run @p n sweeps. */
    void run(int n);

    /**
     * Install a new Gibbs temperature (simulated annealing).
     * Forwards to GridMrf::setTemperature; the version bump makes
     * the Table path rebuild its exp table at the next update.
     */
    void setTemperature(double t) { core_.setTemperature(t); }

    SweepPath path() const { return path_; }

    /**
     * Select the Simd path's kernel ISA (no effect on the other
     * paths). Any choice yields identical labels — the
     * lane-equivalence tests force Scalar here against
     * core::activeSimdIsa().
     */
    void setSimdIsa(rsu::core::SimdIsa isa) { core_.setSimdIsa(isa); }

    /** The sweep core: its tables, exp tables and chain. */
    const SweepCore &core() const { return core_; }

    SamplerWork work() const { return core_.work(); }

  private:
    Schedule schedule_;
    SweepPath path_;
    SweepCore core_;
};

} // namespace rsu::mrf

#endif // RSU_MRF_GIBBS_H
