/**
 * @file
 * Gibbs sweeps through an RSU-G device.
 *
 * The accelerated inner loop: per site, the per-pixel operand set
 * (neighbour labels, singleton data) is transferred to the RSU-G
 * through its instruction interface and a read-result draws the new
 * label from the device's first-to-fire race (paper section 6.1,
 * "Execution"). Two operating modes:
 *
 *  - Isa: drive the full RsuDevice control-register protocol,
 *    counting the dynamic RSU instructions a real program would
 *    issue — the mode the architecture models cost;
 *  - Direct: call RsuG::sample() directly, skipping instruction
 *    emulation for speed in large statistical experiments (the
 *    sampled distribution is identical by construction).
 */

#ifndef RSU_MRF_RSU_GIBBS_H
#define RSU_MRF_RSU_GIBBS_H

#include <cstdint>

#include "core/rsu_isa.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "mrf/schedule.h"
#include "mrf/sweep_core.h"

namespace rsu::mrf {

/** Gibbs sampler whose conditional draws run on an RSU-G. Direct
 * mode is one SweepCore device chain (mrf/sweep_core.h); Isa mode
 * keeps its own instruction-level site update. */
class RsuGibbsSampler
{
  public:
    /** Instruction-level vs direct device access. */
    enum class Mode { Isa, Direct };

    /**
     * @param mrf model to sample (mutated in place)
     * @param unit RSU-G device (must outlive the sampler); the
     *        sampler initializes it for the model's label count and
     *        temperature. The unit's energy datapath configuration
     *        must equal the model's — hardware and reference must
     *        compute identical energies — or the constructor
     *        throws. Use unitConfigFor() to build a matching unit.
     * @param schedule site visit order
     * @param mode access mode
     */
    RsuGibbsSampler(GridMrf &mrf, rsu::core::RsuG &unit,
                    Schedule schedule = Schedule::Checkerboard,
                    Mode mode = Mode::Direct);

    /** Default RSU-G configuration with @p mrf's energy datapath. */
    static rsu::core::RsuGConfig unitConfigFor(const GridMrf &mrf);

    /** Resample one site through the device. */
    Label updateSite(int x, int y);

    /** One MCMC iteration: every site updated once. */
    void sweep();

    /** Run @p n sweeps. */
    void run(int n);

    /** Dynamic RSU instructions issued (Isa mode only). */
    uint64_t
    rsuInstructions() const
    {
        return device_.instructionCount();
    }

    /**
     * Install a new Gibbs temperature: updates the model and
     * rebuilds the unit's intensity map (a per-application
     * re-initialization, section 6.1). Used by annealing drivers.
     */
    void setTemperature(double t) { core_.setTemperature(t); }

    SamplerWork work() const { return core_.work(); }
    rsu::core::RsuG &unit() { return core_.unit(0); }

  private:
    GridMrf &mrf_;
    SweepCore core_;
    rsu::core::RsuDevice device_;
    Schedule schedule_;
    Mode mode_;
};

} // namespace rsu::mrf

#endif // RSU_MRF_RSU_GIBBS_H
