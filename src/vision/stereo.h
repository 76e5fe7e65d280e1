/**
 * @file
 * Stereo vision matching (paper sections 7-8 workload).
 *
 * Disparity estimation on a rectified pair (Tappen & Freeman): each
 * left-image pixel's label is its disparity (M = 5 in the paper's
 * evaluation). The singleton compares the left pixel (data1) with
 * the right-image pixel displaced by the candidate disparity
 * (data2); labels are scalar 3-bit values.
 */

#ifndef RSU_VISION_STEREO_H
#define RSU_VISION_STEREO_H

#include "mrf/grid_mrf.h"
#include "vision/image.h"

namespace rsu::vision {

/** Singleton model: disparity-shifted intensity difference. */
class StereoModel : public rsu::mrf::SingletonModel
{
  public:
    /**
     * @param left,right rectified 6-bit pair (must outlive the
     *        model)
     * @param num_disparities labels 0..num_disparities-1 (<= 8)
     */
    StereoModel(const Image &left, const Image &right,
                int num_disparities);

    uint8_t data1(int x, int y) const override;
    uint8_t data2(int x, int y, rsu::mrf::Label label) const override;

    int numLabels() const { return num_disparities_; }

  private:
    const Image &left_;
    const Image &right_;
    int num_disparities_;
};

/** MRF configuration for a stereo problem. */
rsu::mrf::MrfConfig
stereoConfig(const Image &left, int num_disparities,
             double temperature = 8.0, int doubleton_weight = 8);

} // namespace rsu::vision

#endif // RSU_VISION_STEREO_H
