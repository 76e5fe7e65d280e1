/**
 * @file
 * Dense motion estimation (paper sections 7-8 workload).
 *
 * Bayesian motion-vector-field estimation (Konrad & Dubois): each
 * pixel's label is a 2-D displacement within a (2r+1) x (2r+1)
 * search window — the paper's 7x7 window yields M = 49 labels. A
 * label packs (dx + r) and (dy + r) as two 3-bit components; the
 * doubleton is the vector squared difference (Equation 2), the
 * singleton the squared difference between the source pixel in frame
 * 1 (data1) and the displaced destination pixel in frame 2 (data2 —
 * the per-candidate data stream that motivates the SINGLETON_D
 * register's per-label transfers).
 */

#ifndef RSU_VISION_MOTION_H
#define RSU_VISION_MOTION_H

#include "mrf/grid_mrf.h"
#include "vision/image.h"

namespace rsu::vision {

/** Singleton model: displaced-frame intensity difference. */
class MotionModel : public rsu::mrf::SingletonModel
{
  public:
    /**
     * @param frame1,frame2 consecutive 6-bit frames (must outlive
     *        the model)
     * @param radius search radius r (window is (2r+1)^2, r <= 3)
     */
    MotionModel(const Image &frame1, const Image &frame2, int radius);

    uint8_t data1(int x, int y) const override;
    uint8_t data2(int x, int y, rsu::mrf::Label label) const override;

    int radius() const { return radius_; }

    /** Label count M = (2r+1)^2. */
    int numLabels() const
    {
        return (2 * radius_ + 1) * (2 * radius_ + 1);
    }

    /**
     * Map a window position index (row-major over the window) to the
     * packed vector label the datapath expects.
     */
    static rsu::mrf::Label indexToLabel(int index, int radius);

    /** Inverse of indexToLabel. */
    static int labelToIndex(rsu::mrf::Label label, int radius);

  private:
    const Image &frame1_;
    const Image &frame2_;
    int radius_;
};

/** MRF configuration for a motion problem. The defaults come from
 * a (temperature, weight) sweep against ground truth: T = 4 and a
 * weight of 2 balance the single-pixel data term against the
 * smoothness prior (see bench_convergence / EXPERIMENTS.md). */
rsu::mrf::MrfConfig
motionConfig(const Image &frame1, int radius,
             double temperature = 4.0, int doubleton_weight = 2);

} // namespace rsu::vision

#endif // RSU_VISION_MOTION_H
