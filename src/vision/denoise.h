/**
 * @file
 * Image restoration / denoising (extension application).
 *
 * The original MRF-MCMC vision application (Geman & Geman 1984,
 * paper reference [11]): recover a piecewise-smooth image from a
 * noisy observation. Labels are quantized intensity levels; the
 * singleton compares the observed pixel (data1) with the candidate
 * level's intensity (data2), the doubleton enforces smoothness
 * between neighbouring levels. Included as a fourth workload beyond
 * the paper's three to exercise the full pipeline on a problem with
 * ordinal labels.
 */

#ifndef RSU_VISION_DENOISE_H
#define RSU_VISION_DENOISE_H

#include <vector>

#include "mrf/grid_mrf.h"
#include "vision/image.h"

namespace rsu::vision {

/** Singleton model: observed intensity vs. quantized level. */
class DenoiseModel : public rsu::mrf::SingletonModel
{
  public:
    /**
     * @param noisy 6-bit observation (must outlive the model)
     * @param num_levels quantized intensity levels (2..8)
     */
    DenoiseModel(const Image &noisy, int num_levels);

    uint8_t data1(int x, int y) const override;
    uint8_t data2(int x, int y, rsu::mrf::Label label) const override;

    int numLabels() const { return num_levels_; }

    /** 6-bit intensity represented by level @p label. */
    uint8_t levelValue(rsu::mrf::Label label) const;

    /** Reconstruct an image from a level labelling. */
    Image reconstruct(const std::vector<rsu::mrf::Label> &labels) const;

  private:
    const Image &noisy_;
    int num_levels_;
};

/** MRF configuration for a denoising problem. Defaults tuned by a
 * PSNR sweep over (T, weight) at moderate noise (EXPERIMENTS.md). */
rsu::mrf::MrfConfig
denoiseConfig(const Image &noisy, int num_levels,
              double temperature = 4.0, int doubleton_weight = 2);

} // namespace rsu::vision

#endif // RSU_VISION_DENOISE_H
