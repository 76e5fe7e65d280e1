#include "vision/recall.h"

#include <cmath>
#include <stdexcept>

namespace rsu::vision {

RecallProblem
corruptPattern(const std::vector<rsu::core::Label> &pattern,
               int width, int height, double erase_fraction,
               double flip_fraction, rsu::rng::Xoshiro256 &rng)
{
    if (static_cast<int>(pattern.size()) != width * height)
        throw std::invalid_argument("corruptPattern: size mismatch");
    if (erase_fraction < 0.0 || erase_fraction > 1.0 ||
        flip_fraction < 0.0 || flip_fraction > 1.0)
        throw std::invalid_argument("corruptPattern: fractions must "
                                    "be in [0, 1]");

    RecallProblem problem;
    problem.pattern = pattern;
    problem.width = width;
    problem.height = height;
    problem.observed.resize(pattern.size());
    problem.known.resize(pattern.size());
    for (size_t i = 0; i < pattern.size(); ++i) {
        if (rng.uniform() < erase_fraction) {
            problem.known[i] = false;
            problem.observed[i] = 0;
            continue;
        }
        problem.known[i] = true;
        const bool flip = rng.uniform() < flip_fraction;
        problem.observed[i] =
            flip ? (pattern[i] ^ 1) : (pattern[i] & 1);
    }
    return problem;
}

std::vector<rsu::core::Label>
makeBinaryPattern(int width, int height, rsu::rng::Xoshiro256 &rng)
{
    std::vector<rsu::core::Label> pattern(
        static_cast<size_t>(width) * height, 0);
    // A few overlapping discs plus a bar, mirroring the blobby
    // shapes associative recall demos use.
    for (int blob = 0; blob < 4; ++blob) {
        const double cx = rng.uniform() * width;
        const double cy = rng.uniform() * height;
        const double rad =
            (0.1 + 0.15 * rng.uniform()) * std::min(width, height);
        for (int y = 0; y < height; ++y) {
            for (int x = 0; x < width; ++x) {
                const double dx = x - cx, dy = y - cy;
                if (dx * dx + dy * dy <= rad * rad)
                    pattern[y * width + x] = 1;
            }
        }
    }
    const int bar_y = height / 2;
    for (int x = width / 8; x < width - width / 8; ++x)
        pattern[bar_y * width + x] = 1;
    return pattern;
}

RecallModel::RecallModel(const RecallProblem &problem,
                         int evidence_strength)
    : problem_(problem),
      strength_(static_cast<uint8_t>(evidence_strength))
{
    if (evidence_strength < 1 || evidence_strength > 63)
        throw std::invalid_argument("RecallModel: evidence strength "
                                    "must be 6-bit");
}

uint8_t
RecallModel::data1(int x, int y) const
{
    const size_t i = static_cast<size_t>(y) * problem_.width + x;
    if (!problem_.known[i])
        return 0;
    return problem_.observed[i] ? strength_ : 0;
}

uint8_t
RecallModel::data2(int x, int y, rsu::mrf::Label label) const
{
    const size_t i = static_cast<size_t>(y) * problem_.width + x;
    if (!problem_.known[i])
        return 0; // matches data1: erased pixels carry no evidence
    return (label & 1) ? strength_ : 0;
}

rsu::mrf::MrfConfig
recallConfig(const RecallProblem &problem, double temperature,
             int doubleton_weight)
{
    return rsu::mrf::scalarConfig(problem.width, problem.height, 2,
                                  temperature, doubleton_weight);
}

} // namespace rsu::vision
