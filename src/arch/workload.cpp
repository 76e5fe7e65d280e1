#include "arch/workload.h"

namespace rsu::arch {

namespace {

/** The fields every paper workload fills the same way; bytes per
 * pixel follow from M and whether data2 streams (siteBytes()). */
Workload
paperWorkload(const char *name, int width, int height, int num_labels,
              int iterations, bool data2_streams, const GpuKernelCosts &gpu)
{
    const int bytes = siteBytes(num_labels, data2_streams);
    return {name, width, height, num_labels, iterations, bytes, gpu};
}

} // namespace

Workload
segmentationWorkload(int width, int height)
{
    // Class means are global constants the accelerator caches, so
    // data2 does not stream (section 8.2). Calibration:
    // overhead/label-cycle constants fitted once against the paper's
    // Table 2 baseline GPU column (see EXPERIMENTS.md); with the
    // class means held in registers there is no per-label memory
    // traffic, so the RSU slot cost is the bare issue cycle.
    return paperWorkload("image-segmentation", width, height, 5, 5000,
                         /*data2_streams=*/false,
                         {.overhead_cycles = 300.0, .label_cycles = 120.8,
                          .label_cycles_opt = 82.6,
                          .rsu_overhead_cycles = 285.0, .rsu_slot_cycles = 1.0,
                          .occupancy_p0 = 101500.0});
}

Workload
motionWorkload(int width, int height)
{
    // Data2 is the displaced frame-2 pixel, one per candidate
    // (section 8.2). Motion's RSU kernel still performs one
    // uncoalesced frame-2 load per candidate label (the SINGLETON_D
    // stream), so the slot cost stays high.
    return paperWorkload("dense-motion-estimation", width, height, 49,
                         400, /*data2_streams=*/true,
                         {.overhead_cycles = 300.0, .label_cycles = 520.0,
                          .label_cycles_opt = 246.0,
                          .rsu_overhead_cycles = 463.0,
                          .rsu_slot_cycles = 28.6, .occupancy_p0 = 61400.0});
}

Workload
stereoWorkload(int width, int height)
{
    // Same operand footprint as segmentation plus the shifted
    // right-image pixel per label; costed like segmentation with a
    // per-label load.
    return paperWorkload("stereo-vision", width, height, 5, 5000,
                         /*data2_streams=*/true,
                         {.overhead_cycles = 300.0, .label_cycles = 150.0,
                          .label_cycles_opt = 95.0,
                          .rsu_overhead_cycles = 300.0,
                          .rsu_slot_cycles = 10.0, .occupancy_p0 = 101500.0});
}

} // namespace rsu::arch
