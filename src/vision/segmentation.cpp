#include "vision/segmentation.h"

#include "vision/synthetic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace rsu::vision {

SegmentationModel::SegmentationModel(const Image &image,
                                     std::vector<uint8_t> class_means)
    : image_(image), means_(std::move(class_means))
{
    if (means_.empty() || means_.size() > 8)
        throw std::invalid_argument("SegmentationModel: label count "
                                    "must be 1..8 (scalar labels are "
                                    "3-bit)");
    for (uint8_t m : means_) {
        if (m > 63)
            throw std::invalid_argument("SegmentationModel: means "
                                        "must be 6-bit");
    }
}

uint8_t
SegmentationModel::data1(int x, int y) const
{
    return image_.at(x, y);
}

uint8_t
SegmentationModel::data2(int, int, rsu::mrf::Label label) const
{
    return means_[label & 0x7];
}

std::vector<uint8_t>
SegmentationModel::evenMeans(int num_labels)
{
    std::vector<uint8_t> means(num_labels);
    for (int i = 0; i < num_labels; ++i) {
        means[i] = static_cast<uint8_t>((2 * i + 1) * 63 /
                                        (2 * num_labels));
    }
    return means;
}

std::vector<uint8_t>
SegmentationModel::kmeansMeans(const Image &image, int num_labels,
                               int iterations)
{
    // Histogram-based 1-D k-means: cheap and deterministic.
    std::array<uint32_t, 64> hist{};
    for (uint8_t p : image.pixels())
        ++hist[std::min<uint8_t>(p, 63)];

    std::vector<double> centers(num_labels);
    for (int i = 0; i < num_labels; ++i)
        centers[i] = (2.0 * i + 1.0) * 63.0 / (2.0 * num_labels);

    for (int it = 0; it < iterations; ++it) {
        std::vector<double> sum(num_labels, 0.0);
        std::vector<double> count(num_labels, 0.0);
        for (int v = 0; v < 64; ++v) {
            if (hist[v] == 0)
                continue;
            int best = 0;
            for (int c = 1; c < num_labels; ++c) {
                if (std::abs(v - centers[c]) <
                    std::abs(v - centers[best]))
                    best = c;
            }
            sum[best] += static_cast<double>(hist[v]) * v;
            count[best] += hist[v];
        }
        for (int c = 0; c < num_labels; ++c) {
            if (count[c] > 0.0)
                centers[c] = sum[c] / count[c];
        }
    }

    std::sort(centers.begin(), centers.end());
    std::vector<uint8_t> means(num_labels);
    for (int c = 0; c < num_labels; ++c)
        means[c] = clampPixel(centers[c], 63);
    return means;
}

rsu::mrf::MrfConfig
segmentationConfig(const Image &image, int num_labels,
                   double temperature, int doubleton_weight)
{
    return rsu::mrf::scalarConfig(image.width(), image.height(),
                                  num_labels, temperature,
                                  doubleton_weight);
}

} // namespace rsu::vision
