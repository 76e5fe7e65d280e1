/**
 * @file
 * Sequential CPU timing model.
 *
 * The paper runs sequential image segmentation and stereo vision on
 * one core of an Intel E5-2640 and reports >100x speedup when the
 * core is augmented with an RSU-G1 (section 8.2). The model mirrors
 * the GPU model's structure without the occupancy term: per pixel,
 * the baseline pays per-label parameterization (>= 100 cycles,
 * section 2.2) plus discrete-sampling cost (Table 1 magnitude),
 * while the RSU variant pays the short instruction sequence plus
 * the M-cycle sampling wait, which a single in-order functional
 * unit cannot hide.
 */

#ifndef RSU_ARCH_CPU_MODEL_H
#define RSU_ARCH_CPU_MODEL_H

#include "arch/workload.h"

namespace rsu::arch {

/** CPU hardware/cost parameters (defaults: E5-2640-class core). */
struct CpuConfig
{
    double frequency_ghz = 2.5;
    /** Cycles to parameterize one label's distribution entry:
     * the five-clique energy computation with its neighbour
     * gathering and cache behaviour (>= 100 per section 2.2; the
     * measured scalar code lands well above the floor). */
    double param_cycles_per_label = 400.0;
    /** Cycles to draw one label's exponential sample in software
     * (Table 1: ~588 cycles for std::exponential_distribution,
     * plus the comparison/selection). */
    double sample_cycles_per_label = 700.0;
    /** Fixed per-pixel loop/memory overhead (baseline kernel). */
    double overhead_cycles = 200.0;
    /** Fixed per-pixel overhead of the RSU-augmented loop (operand
     * loads overlap the RSU wait via software pipelining). */
    double rsu_overhead_cycles = 40.0;
};

/** Sequential-core timing model. */
class CpuModel
{
  public:
    explicit CpuModel(const CpuConfig &config = {});

    /** Seconds for the full run on the plain core. */
    double baselineSeconds(const Workload &w) const;

    /** Seconds for the full run with an RSU-G1 functional unit. */
    double rsuSeconds(const Workload &w) const;

    /** Speedup of the RSU-augmented core (paper: >100x). */
    double speedup(const Workload &w) const;

    const CpuConfig &config() const { return config_; }

  private:
    CpuConfig config_;
};

} // namespace rsu::arch

#endif // RSU_ARCH_CPU_MODEL_H
