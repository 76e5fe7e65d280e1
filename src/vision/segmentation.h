/**
 * @file
 * MRF image segmentation (paper sections 7-8 workload).
 *
 * Assigns one of M labels to each pixel by grouping similar pixels
 * based on intensity (Geman & Geman; Sziranyi et al.): the singleton
 * potential is the squared difference between the observed pixel
 * intensity (data1) and the candidate label's class mean (data2),
 * the doubleton the usual smoothness prior. M = 5 in the paper's
 * evaluation; the prototype demonstration uses M = 2.
 */

#ifndef RSU_VISION_SEGMENTATION_H
#define RSU_VISION_SEGMENTATION_H

#include <vector>

#include "mrf/grid_mrf.h"
#include "vision/image.h"

namespace rsu::vision {

/** Singleton model: intensity distance to per-class means. */
class SegmentationModel : public rsu::mrf::SingletonModel
{
  public:
    /**
     * @param image 6-bit observation (must outlive the model)
     * @param class_means one 6-bit intensity per label
     */
    SegmentationModel(const Image &image,
                      std::vector<uint8_t> class_means);

    uint8_t data1(int x, int y) const override;
    uint8_t data2(int x, int y, rsu::mrf::Label label) const override;

    int numLabels() const
    {
        return static_cast<int>(means_.size());
    }
    const std::vector<uint8_t> &means() const { return means_; }

    /** Evenly spaced class means over [0, 63]. */
    static std::vector<uint8_t> evenMeans(int num_labels);

    /**
     * 1-D k-means over the image histogram — the usual way class
     * means are chosen when ground truth is unknown.
     */
    static std::vector<uint8_t> kmeansMeans(const Image &image,
                                            int num_labels,
                                            int iterations = 20);

  private:
    const Image &image_;
    std::vector<uint8_t> means_;
};

/** MRF configuration for a segmentation problem. */
rsu::mrf::MrfConfig
segmentationConfig(const Image &image, int num_labels,
                   double temperature = 8.0, int doubleton_weight = 8);

} // namespace rsu::vision

#endif // RSU_VISION_SEGMENTATION_H
