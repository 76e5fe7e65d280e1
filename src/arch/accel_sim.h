/**
 * @file
 * Functional simulator of the RSU-G discrete accelerator.
 *
 * The paper bounds the accelerator analytically (section 8.2); this
 * module *simulates* it: a farm of RSU-G units sweeps an MRF in
 * checkerboard order, same-parity sites distributed round-robin
 * across the units — one mrf::SweepCore device chain per unit.
 * Every conditional draw runs through a real emulated unit (so
 * results are statistically identical to a single-unit run up to
 * RNG streams), and per-unit cycle counters
 * give the iteration's critical path, which combines with the
 * per-site operand traffic to reproduce — or refute — the analytic
 * bandwidth bound.
 */

#ifndef RSU_ARCH_ACCEL_SIM_H
#define RSU_ARCH_ACCEL_SIM_H

#include <cstdint>

#include "core/rsu_g.h"
#include "mrf/grid_mrf.h"
#include "mrf/sweep_core.h"

namespace rsu::arch {

/** Accelerator farm parameters. */
struct AcceleratorSimConfig
{
    int num_units = 336;        //!< RSU-G units in the farm
    double frequency_ghz = 1.0; //!< unit clock
    double mem_bw_gbs = 336.0;  //!< DRAM bandwidth
    /** Unit template; its energy configuration is overwritten to
     * match the model's. */
    rsu::core::RsuGConfig unit;
    uint64_t seed = 1;
};

/** One iteration's timing breakdown. */
struct AcceleratorIterationStats
{
    uint64_t critical_cycles = 0; //!< max busy cycles over units
    uint64_t total_cycles = 0;    //!< sum of busy cycles
    int64_t bytes = 0;            //!< operand traffic (DRAM)
    double compute_seconds = 0.0;
    double memory_seconds = 0.0;

    double seconds() const
    {
        return compute_seconds > memory_seconds ? compute_seconds
                                                : memory_seconds;
    }
};

/** The simulated accelerator. */
class AcceleratorSim
{
  public:
    /**
     * @param mrf model to solve (mutated in place; must outlive
     *        the simulator)
     * @param config farm parameters
     */
    AcceleratorSim(rsu::mrf::GridMrf &mrf,
                   const AcceleratorSimConfig &config);

    /** One full MCMC iteration; returns its timing breakdown. */
    AcceleratorIterationStats sweep();

    /** Run @p n iterations; returns the accumulated breakdown. */
    AcceleratorIterationStats run(int n);

    /** Average unit utilization over the last sweep: mean busy
     * cycles / critical cycles. */
    double lastUtilization() const { return last_utilization_; }

    /** Bytes a site update transfers (paper section 8.2
     * accounting: 1 data byte + 4 neighbour labels + the
     * per-candidate data2 stream when the application needs it). */
    int bytesPerSite() const { return bytes_per_site_; }

    int numUnits() const { return core_.chains(); }

    /** Unit @p i (throws std::out_of_range for a bad index). */
    rsu::core::RsuG &unit(int i) { return core_.unit(i); }

  private:
    rsu::mrf::GridMrf &mrf_;
    AcceleratorSimConfig config_;
    rsu::mrf::SweepCore core_;
    int bytes_per_site_;
    double last_utilization_ = 0.0;
};

} // namespace rsu::arch

#endif // RSU_ARCH_ACCEL_SIM_H
