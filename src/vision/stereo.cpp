#include "vision/stereo.h"

#include <stdexcept>

namespace rsu::vision {

StereoModel::StereoModel(const Image &left, const Image &right,
                         int num_disparities)
    : left_(left), right_(right), num_disparities_(num_disparities)
{
    if (num_disparities_ < 2 || num_disparities_ > 8)
        throw std::invalid_argument("StereoModel: disparities must "
                                    "be 2..8 (3-bit labels)");
    if (left_.width() != right_.width() ||
        left_.height() != right_.height())
        throw std::invalid_argument("StereoModel: image size "
                                    "mismatch");
}

uint8_t
StereoModel::data1(int x, int y) const
{
    return left_.at(x, y);
}

uint8_t
StereoModel::data2(int x, int y, rsu::mrf::Label label) const
{
    return right_.atClamped(x - static_cast<int>(label & 0x7), y);
}

rsu::mrf::MrfConfig
stereoConfig(const Image &left, int num_disparities,
             double temperature, int doubleton_weight)
{
    return rsu::mrf::scalarConfig(left.width(), left.height(),
                                  num_disparities, temperature,
                                  doubleton_weight);
}

} // namespace rsu::vision
