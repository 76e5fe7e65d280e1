#include "vision/denoise.h"

#include <stdexcept>

namespace rsu::vision {

DenoiseModel::DenoiseModel(const Image &noisy, int num_levels)
    : noisy_(noisy), num_levels_(num_levels)
{
    if (num_levels_ < 2 || num_levels_ > 8)
        throw std::invalid_argument("DenoiseModel: levels must be "
                                    "2..8 (3-bit labels)");
}

uint8_t
DenoiseModel::data1(int x, int y) const
{
    return noisy_.at(x, y);
}

uint8_t
DenoiseModel::data2(int, int, rsu::mrf::Label label) const
{
    return levelValue(label);
}

uint8_t
DenoiseModel::levelValue(rsu::mrf::Label label) const
{
    const int l = label & 0x7;
    return static_cast<uint8_t>((2 * l + 1) * 63 / (2 * num_levels_));
}

Image
DenoiseModel::reconstruct(
    const std::vector<rsu::mrf::Label> &labels) const
{
    Image out(noisy_.width(), noisy_.height(), 63);
    for (int i = 0; i < out.size(); ++i)
        out.pixels()[i] = levelValue(labels[i]);
    return out;
}

rsu::mrf::MrfConfig
denoiseConfig(const Image &noisy, int num_levels, double temperature,
              int doubleton_weight)
{
    return rsu::mrf::scalarConfig(noisy.width(), noisy.height(),
                                  num_levels, temperature,
                                  doubleton_weight);
}

} // namespace rsu::vision
