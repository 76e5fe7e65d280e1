/**
 * @file
 * Per-workload InferenceProblem factories.
 *
 * Each factory builds a complete, self-owning problem instance for
 * one of the repository's MRF applications: the paper's three
 * evaluation workloads (segmentation, dense motion estimation,
 * stereo), the denoising extension, and a synthetic random-field
 * workload for serving/benchmark traffic. Synthetic instances are
 * generated from vision/synthetic.h with pixel-exact ground truth,
 * so every problem carries a meaningful quality metric; the
 * image-input overload serves real data (no ground truth, k-means
 * class means).
 *
 * Ownership: each factory copies or generates its scene into one
 * bundle that builds the model in place from it; the problem's
 * shared model pointer aliases into the bundle (std::shared_ptr
 * aliasing), so the returned InferenceProblem — and any job made
 * from it — keeps everything it references alive.
 */

#ifndef RSU_WORKLOAD_FACTORIES_H
#define RSU_WORKLOAD_FACTORIES_H

#include <cstdint>

#include "workload/problem.h"

namespace rsu::workload {

/**
 * Common instance-generation knobs. A zero / negative value selects
 * the per-workload default listed on each factory.
 */
struct SceneOptions
{
    int width = 0;  //!< lattice width (0 = workload default)
    int height = 0; //!< lattice height (0 = workload default)

    /** Label count: regions (segmentation), disparities (stereo),
     * intensity levels (denoise), candidates (synthetic). Motion
     * derives M from a search radius instead and accepts either a
     * radius (1..3) or a full window size (9, 25, 49) here. */
    int labels = 0;

    /** Observation noise std-dev in 6-bit intensity units
     * (negative = workload default). */
    double noise_sigma = -1.0;

    /** Scene-generation seed (content, not the sampling chain). */
    uint64_t seed = 2016;

    /** Gibbs temperature override (<= 0 = workload default). */
    double temperature = 0.0;

    /** Doubleton smoothness weight override (<= 0 = default). */
    int doubleton_weight = 0;
};

/**
 * Piecewise-constant multi-region scene, intensity-mean singleton
 * model (paper sections 7-8 flagship workload). Defaults: 160x120,
 * 5 regions, sigma 3.0, T = 6, weight 6. Quality: labelAccuracy
 * against the generated region map.
 */
InferenceProblem makeSegmentation(const SceneOptions &options = {});

/**
 * Segmentation of a caller-supplied image (e.g. a loaded PGM):
 * class means from 1-D k-means, no ground truth, quality metric
 * absent. The image is copied into the problem.
 */
InferenceProblem makeSegmentation(const rsu::vision::Image &image,
                                  const SceneOptions &options = {});

/**
 * Rectified stereo pair over fronto-parallel surfaces. Defaults:
 * 128x96, 5 disparities, sigma 1.0, T = 6, weight 6. Quality:
 * labelAccuracy against the true disparity map.
 */
InferenceProblem makeStereo(const SceneOptions &options = {});

/**
 * Two-frame dense motion estimation with rigidly translating
 * objects (vector labels, M = (2r+1)^2). Defaults: 96x72, radius 3
 * (M = 49), sigma 1.0, T = 4, weight 2. Quality: meanEndpointError
 * (pixels, lower is better) against the true displacement field.
 */
InferenceProblem makeMotion(const SceneOptions &options = {});

/**
 * Quantized-intensity restoration of a noise-corrupted
 * piecewise-constant image (Geman & Geman). Defaults: 128x96, 6
 * levels, sigma 6.0, T = 4, weight 2. Quality: PSNR (dB) of the
 * reconstruction against the clean image.
 */
InferenceProblem makeDenoise(const SceneOptions &options = {});

/**
 * Synthetic random-field workload: deterministic pseudo-random
 * data1/data2 streams hashed from the scene seed — arbitrary
 * content at any size, for serving and scaling benchmarks where
 * pixel meaning is irrelevant. Defaults: 96x96, 8 labels (scalar
 * codes, so 2..8), T = 8, weight 4. No ground truth or quality
 * metric.
 */
InferenceProblem makeSynthetic(const SceneOptions &options = {});

} // namespace rsu::workload

#endif // RSU_WORKLOAD_FACTORIES_H
