/**
 * @file
 * Associative pattern recall (extension application).
 *
 * The paper lists associative memory among the MRF applications an
 * RSU-G serves (sections 1 and 4.1, after Geman & Graffigne). The
 * instance here is pattern completion: a stored binary pattern is
 * observed through a channel that *erases* some pixels and *flips*
 * others; recall infers the original by combining the smoothness
 * prior with the surviving observations.
 *
 * The singleton model uses the neighbour-validity-free trick the
 * datapath already supports: an erased pixel carries data1 == data2
 * for every candidate, so its singleton contributes nothing and the
 * prior alone drives it — no architecture changes needed.
 */

#ifndef RSU_VISION_RECALL_H
#define RSU_VISION_RECALL_H

#include <vector>

#include "mrf/grid_mrf.h"
#include "rng/xoshiro256.h"
#include "vision/image.h"

namespace rsu::vision {

/** A corrupted-observation recall problem. */
struct RecallProblem
{
    std::vector<rsu::core::Label> pattern; //!< stored binary truth
    std::vector<uint8_t> observed;         //!< 0/1 observations
    std::vector<bool> known;               //!< false = erased pixel
    int width = 0;
    int height = 0;
};

/**
 * Corrupt a binary pattern: each pixel is erased with
 * @p erase_fraction and (if not erased) flipped with
 * @p flip_fraction.
 */
RecallProblem corruptPattern(const std::vector<rsu::core::Label> &pattern,
                             int width, int height,
                             double erase_fraction,
                             double flip_fraction,
                             rsu::rng::Xoshiro256 &rng);

/** Generate a blobby binary test pattern. */
std::vector<rsu::core::Label>
makeBinaryPattern(int width, int height, rsu::rng::Xoshiro256 &rng);

/** Singleton model: observed bits where known, silence elsewhere. */
class RecallModel : public rsu::mrf::SingletonModel
{
  public:
    /**
     * @param problem must outlive the model
     * @param evidence_strength 6-bit separation between the bit
     *        values in the data inputs (mismatch energy =
     *        strength^2 >> 4)
     */
    explicit RecallModel(const RecallProblem &problem,
                         int evidence_strength = 24);

    uint8_t data1(int x, int y) const override;
    uint8_t data2(int x, int y, rsu::mrf::Label label) const override;

  private:
    const RecallProblem &problem_;
    uint8_t strength_;
};

/** MRF configuration for a recall problem (the data-term strength
 * is the RecallModel's). */
rsu::mrf::MrfConfig
recallConfig(const RecallProblem &problem, double temperature = 2.0,
             int doubleton_weight = 3);

} // namespace rsu::vision

#endif // RSU_VISION_RECALL_H
