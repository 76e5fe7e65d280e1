/**
 * @file
 * Analytic SIMT throughput model of the (RSU-augmented) GPU.
 *
 * The paper evaluates RSU-augmented GPUs by emulation: select code
 * sequences of a best-effort CUDA implementation are replaced by
 * instruction sequences matching the RSU's theoretical timing, and
 * the whole program is timed on a GTX Titan X (section 8.1). We
 * cannot run CUDA, so we model one level up with the same structure:
 *
 *   time/iteration = pixels * cycles_per_pixel
 *                    / (lanes * frequency * occupancy(pixels))
 *
 *   cycles_per_pixel(baseline) = overhead + M * label_cycles
 *   cycles_per_pixel(opt)      = overhead + M * label_cycles_opt
 *   cycles_per_pixel(RSU-Gk)   = rsu_overhead
 *                                + instructionsPerSample(M)
 *                                + ceil(M/K) * rsu_slot_cycles
 *
 *   occupancy(p) = p / (p + P0)   (small images under-fill the GPU;
 *                                  the paper notes 320x320 does not
 *                                  saturate while HD does)
 *
 * Calibration methodology (full derivation in EXPERIMENTS.md): the
 * baseline column of the paper's Table 2 fixes {overhead,
 * label_cycles, P0} per application; every other cell — Opt GPU,
 * RSU-G1, RSU-G4, both image sizes, and all of Figure 8 — is then a
 * model prediction, reported against the paper's value.
 */

#ifndef RSU_ARCH_GPU_MODEL_H
#define RSU_ARCH_GPU_MODEL_H

#include <string>

#include "arch/workload.h"

namespace rsu::arch {

/** GPU hardware parameters (defaults: GTX Titan X). */
struct GpuConfig
{
    int lanes = 3072;           //!< CUDA cores / RSU units
    double frequency_ghz = 1.0; //!< core clock
    double mem_bw_gbs = 336.0;  //!< DRAM bandwidth
};

/** Kernel variants Table 2 compares. */
enum class GpuVariant {
    Baseline, //!< standard MCMC, everything computed in CUDA
    Optimized, //!< singletons precomputed and loaded from memory
    RsuG1,    //!< augmented with 1-wide RSU-G units
    RsuG4,    //!< augmented with 4-wide RSU-G units
};

/** Human-readable variant name. */
std::string variantName(GpuVariant variant);

/** The analytic GPU timing model. */
class GpuModel
{
  public:
    explicit GpuModel(const GpuConfig &config = {});

    /** Modeled cycles per pixel per iteration for a variant. */
    double cyclesPerPixel(const Workload &w, GpuVariant variant) const;

    /** GPU occupancy factor for @p w's image size. */
    double occupancy(const Workload &w) const;

    /** Modeled seconds for one MCMC iteration. */
    double iterationSeconds(const Workload &w,
                            GpuVariant variant) const;

    /** Modeled seconds for the workload's full run — the quantity
     * Table 2 reports. */
    double totalSeconds(const Workload &w, GpuVariant variant) const;

    /** Speedup of @p variant over @p reference (Figure 8). */
    double speedup(const Workload &w, GpuVariant variant,
                   GpuVariant reference) const;

    /** Additional watts when all lanes' RSU units are active. */
    double rsuPowerW(int feature_nm = 15) const;

    const GpuConfig &config() const { return config_; }

  private:
    GpuConfig config_;
};

} // namespace rsu::arch

#endif // RSU_ARCH_GPU_MODEL_H
