/**
 * @file
 * Workload descriptions for the architecture models.
 *
 * A Workload captures everything the timing models need to cost one
 * of the paper's applications at a given image size: lattice size,
 * label count, MCMC iteration count, per-pixel memory traffic
 * (paper section 8.2's byte accounting), and the calibrated GPU
 * kernel cost constants (see gpu_model.h for the calibration
 * methodology).
 */

#ifndef RSU_ARCH_WORKLOAD_H
#define RSU_ARCH_WORKLOAD_H

#include <cstdint>
#include <string>

namespace rsu::arch {

/** Calibrated per-application GPU kernel cost constants. */
struct GpuKernelCosts
{
    /** Per-pixel fixed overhead, cycles (loads, addressing, loop). */
    double overhead_cycles;
    /** Per-label energy + sampling cost, cycles (baseline). */
    double label_cycles;
    /** Per-label cost with precomputed singletons (Opt). */
    double label_cycles_opt;
    /** Per-pixel fixed overhead of the RSU-augmented kernel. */
    double rsu_overhead_cycles;
    /** Per-issue-slot RSU-side cost, cycles (multiplies ceil(M/K)):
     * non-overlapped sampling wait plus per-label operand traffic. */
    double rsu_slot_cycles;
    /** GPU occupancy half-saturation point, active pixels. */
    double occupancy_p0;
};

/**
 * DRAM bytes one site update moves (paper section 8.2): 1 B observed
 * data + 4 B neighbour labels, plus one data2 byte per candidate when
 * data2 streams per site (motion's displaced frame-2 pixels) and
 * there is a choice. Data2 that every site shares (segmentation's
 * class means) is a constant table the accelerator caches.
 */
constexpr int
siteBytes(int num_labels, bool data2_streams)
{
    return 1 + 4 + (data2_streams && num_labels > 1 ? num_labels : 0);
}

/** One application at one image size. */
struct Workload
{
    std::string name;
    int width;
    int height;
    int num_labels;
    int iterations;
    /** DRAM bytes touched per pixel per MCMC iteration: siteBytes()
     * (paper section 8.2: segmentation 5, motion estimation 54). */
    int bytes_per_pixel;
    GpuKernelCosts gpu;

    int64_t
    pixels() const
    {
        return static_cast<int64_t>(width) * height;
    }
};

/** The paper's image segmentation workload (M = 5, 5000 iters). */
Workload segmentationWorkload(int width, int height);

/** The paper's dense motion estimation workload (M = 49, 400
 * iters, 7x7 window). */
Workload motionWorkload(int width, int height);

/** The paper's stereo vision workload (M = 5; evaluated on the CPU
 * in the paper). */
Workload stereoWorkload(int width, int height);

/** 320x320 ("small") and 1080x1920 ("HD") sizes used throughout. */
constexpr int kSmallWidth = 320;
constexpr int kSmallHeight = 320;
constexpr int kHdWidth = 1920;
constexpr int kHdHeight = 1080;

} // namespace rsu::arch

#endif // RSU_ARCH_WORKLOAD_H
