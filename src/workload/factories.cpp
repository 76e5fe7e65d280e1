#include "workload/factories.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "rng/distributions.h"
#include "rng/splitmix64.h"
#include "rng/xoshiro256.h"
#include "vision/denoise.h"
#include "vision/metrics.h"
#include "vision/motion.h"
#include "vision/segmentation.h"
#include "vision/stereo.h"
#include "vision/synthetic.h"

namespace rsu::workload {

namespace {

using rsu::mrf::Label;
using rsu::vision::Image;

template <typename T>
T
pick(T value, T fallback)
{
    return value > 0 ? value : fallback;
}

double
pickSigma(double value, double fallback)
{
    return value >= 0.0 ? value : fallback;
}

/** A scene and the model built in place from it: the model
 * references images the scene owns, and the problem's model pointer
 * aliases into the bundle, so one allocation keeps the whole
 * instance alive. */
template <typename Scene, typename Model>
struct Bundle
{
    Scene scene;
    Model model;

    Bundle(const Bundle &) = delete; // the model references scene

    template <typename Build>
    Bundle(Scene s, Build build)
        : scene(std::move(s)), model(build(scene))
    {
    }
};

/** Bundle @p scene with the model @p build makes from it. */
template <typename Scene, typename Build>
auto
bundle(Scene scene, Build build)
{
    using Model = decltype(build(scene));
    return std::make_shared<Bundle<Scene, Model>>(std::move(scene),
                                                  build);
}

/** The fields every factory fills alike: names, config, the bundle's
 * model, and a workload-tuned geometric schedule starting at the
 * configured temperature. */
template <typename B>
InferenceProblem
assemble(const char *workload, rsu::mrf::MrfConfig config,
         double sigma, const std::shared_ptr<B> &b,
         const char *what = nullptr)
{
    char text[128];
    std::snprintf(text, sizeof text, "%s %dx%d, M=%d, sigma %.1f",
                  what ? what : workload, config.width, config.height,
                  config.num_labels, sigma);
    InferenceProblem problem;
    problem.workload = workload;
    problem.description = text;
    problem.default_annealing = {.start_temperature = config.temperature,
                                 .stop_temperature = 1.0,
                                 .cooling_factor = 0.7,
                                 .sweeps_per_stage = 5};
    problem.config = std::move(config);
    problem.singleton =
        std::shared_ptr<const rsu::mrf::SingletonModel>(b, &b->model);
    return problem;
}

/** Label accuracy against the truth the bundle's scene holds. */
template <typename B>
QualityMetric
accuracy(const std::shared_ptr<B> &b)
{
    return {"accuracy", true, [b](const std::vector<Label> &result) {
                return rsu::vision::labelAccuracy(result, b->scene.truth);
            }};
}

/** Render that paints each site with its class mean. */
template <typename B>
auto
paintMeans(const std::shared_ptr<B> &b, const rsu::mrf::MrfConfig &config)
{
    return [b, w = config.width,
            h = config.height](const std::vector<Label> &result) {
        Image out(w, h, 63);
        for (int i = 0; i < out.size(); ++i)
            out.pixels()[i] = b->model.means()[result[i] & 0x7];
        return out;
    };
}

/** Denoise's scene: the clean image and its noisy observation. */
struct DenoiseScene
{
    Image clean;
    Image noisy;
};

/** Deterministic pseudo-random data streams hashed from a seed —
 * arbitrary-size content for serving/scaling benchmarks. */
class SyntheticModel final : public rsu::mrf::SingletonModel
{
  public:
    explicit SyntheticModel(uint64_t seed) : seed_(seed) {}

    uint8_t
    data1(int x, int y) const override
    {
        return hash(x, y, 64);
    }

    uint8_t
    data2(int x, int y, Label label) const override
    {
        return hash(x, y, label & rsu::core::kLabelMask);
    }

  private:
    uint8_t
    hash(int x, int y, int tag) const
    {
        rsu::rng::SplitMix64 mix(
            seed_ ^ (static_cast<uint64_t>(x) * 0x100000001b3ULL) ^
            (static_cast<uint64_t>(y) * 0xc6a4a7935bd1e995ULL) ^
            (static_cast<uint64_t>(tag) << 48));
        return static_cast<uint8_t>(mix.next() & 0x3f);
    }

    uint64_t seed_;
};

} // namespace

InferenceProblem
makeSegmentation(const SceneOptions &options)
{
    const int labels = std::clamp(pick(options.labels, 5), 2, 8);
    const double sigma = pickSigma(options.noise_sigma, 3.0);

    rsu::rng::Xoshiro256 rng(options.seed);
    // True region means, so model label i corresponds to region i
    // and ground-truth accuracy is a straight label comparison.
    auto b = bundle(rsu::vision::makeSegmentationScene(
                        pick(options.width, 160),
                        pick(options.height, 120), labels, sigma, rng),
                    [](const rsu::vision::SegmentationScene &s) {
                        return rsu::vision::SegmentationModel(
                            s.image, s.region_means);
                    });
    auto problem = assemble(
        "segmentation",
        rsu::vision::segmentationConfig(
            b->scene.image, labels, pick(options.temperature, 6.0),
            pick(options.doubleton_weight, 6)),
        sigma, b);
    problem.ground_truth = b->scene.truth;
    problem.quality = accuracy(b);
    problem.render = paintMeans(b, problem.config);
    problem.observation = b->scene.image;
    return problem;
}

InferenceProblem
makeSegmentation(const rsu::vision::Image &image,
                 const SceneOptions &options)
{
    const int labels = std::clamp(pick(options.labels, 5), 2, 8);
    auto b = bundle(image, [labels](const Image &img) {
        return rsu::vision::SegmentationModel(
            img, rsu::vision::SegmentationModel::kmeansMeans(img, labels));
    });
    auto problem = assemble(
        "segmentation",
        rsu::vision::segmentationConfig(
            b->scene, labels, pick(options.temperature, 6.0),
            pick(options.doubleton_weight, 6)),
        0.0, b, "segmentation (input image)");
    problem.render = paintMeans(b, problem.config);
    problem.observation = b->scene;
    return problem;
}

InferenceProblem
makeStereo(const SceneOptions &options)
{
    const int disparities =
        std::clamp(pick(options.labels, 5), 2, 8);
    const double sigma = pickSigma(options.noise_sigma, 1.0);

    rsu::rng::Xoshiro256 rng(options.seed);
    auto b = bundle(rsu::vision::makeStereoScene(
                        pick(options.width, 128), pick(options.height, 96),
                        disparities, sigma, rng),
                    [](const rsu::vision::StereoScene &s) {
                        return rsu::vision::StereoModel(
                            s.left, s.right, s.num_disparities);
                    });
    auto problem = assemble(
        "stereo",
        rsu::vision::stereoConfig(b->scene.left, disparities,
                                  pick(options.temperature, 6.0),
                                  pick(options.doubleton_weight, 6)),
        sigma, b);
    problem.ground_truth = b->scene.truth;
    problem.quality = accuracy(b);
    const int span = std::max(1, disparities - 1);
    problem.render = [b, span](const std::vector<Label> &result) {
        Image out(b->scene.left.width(), b->scene.left.height(), 63);
        for (int i = 0; i < out.size(); ++i)
            out.pixels()[i] = static_cast<uint8_t>(
                (result[i] & 0x7) * 63 / span);
        return out;
    };
    problem.observation = b->scene.left;
    return problem;
}

InferenceProblem
makeMotion(const SceneOptions &options)
{
    // Accept a radius (1..3) or a window size (9/25/49) in
    // options.labels; anything else means the paper's 7x7 window.
    int radius = 3;
    if (options.labels >= 1 && options.labels <= 3)
        radius = options.labels;
    else if (options.labels == 9)
        radius = 1;
    else if (options.labels == 25)
        radius = 2;
    const double sigma = pickSigma(options.noise_sigma, 1.0);

    rsu::rng::Xoshiro256 rng(options.seed);
    auto b = bundle(rsu::vision::makeMotionScene(
                        pick(options.width, 96), pick(options.height, 72),
                        3, radius, sigma, rng),
                    [](const rsu::vision::MotionScene &s) {
                        return rsu::vision::MotionModel(
                            s.frame1, s.frame2, s.radius);
                    });
    auto problem = assemble(
        "motion",
        rsu::vision::motionConfig(b->scene.frame1, radius,
                                  pick(options.temperature, 4.0),
                                  pick(options.doubleton_weight, 2)),
        sigma, b);
    problem.ground_truth = b->scene.truth;
    problem.quality = {
        "epe_px", false, [b](const std::vector<Label> &result) {
            return rsu::vision::meanEndpointError(result,
                                                  b->scene.truth);
        }};
    problem.observation = b->scene.frame1;
    return problem;
}

InferenceProblem
makeDenoise(const SceneOptions &options)
{
    const int levels = std::clamp(pick(options.labels, 6), 2, 8);
    const double sigma = pickSigma(options.noise_sigma, 6.0);

    // Clean scene: piecewise-constant regions whose means are
    // exactly the restoration levels, so a perfect restoration
    // exists and the region map is the ground truth.
    rsu::rng::Xoshiro256 rng(options.seed);
    auto scene = rsu::vision::makeSegmentationScene(
        pick(options.width, 128), pick(options.height, 96), levels,
        0.0, rng);
    Image noisy = scene.image;
    for (auto &p : noisy.pixels())
        p = rsu::vision::clampPixel(
            p + rsu::rng::sampleNormal(rng, 0.0, sigma), 63);

    auto b = bundle(DenoiseScene{std::move(scene.image), std::move(noisy)},
                    [levels](const DenoiseScene &s) {
                        return rsu::vision::DenoiseModel(s.noisy, levels);
                    });
    auto problem = assemble(
        "denoise",
        rsu::vision::denoiseConfig(b->scene.noisy, levels,
                                   pick(options.temperature, 4.0),
                                   pick(options.doubleton_weight, 2)),
        sigma, b);
    problem.ground_truth = std::move(scene.truth);
    problem.quality = {
        "psnr_db", true, [b](const std::vector<Label> &result) {
            return rsu::vision::psnr(b->model.reconstruct(result),
                                     b->scene.clean);
        }};
    problem.render = [b](const std::vector<Label> &result) {
        return b->model.reconstruct(result);
    };
    problem.observation = b->scene.noisy;
    return problem;
}

InferenceProblem
makeSynthetic(const SceneOptions &options)
{
    auto b = bundle(options.seed,
                    [](uint64_t seed) { return SyntheticModel(seed); });
    return assemble(
        "synthetic",
        rsu::mrf::scalarConfig(pick(options.width, 96),
                               pick(options.height, 96),
                               std::clamp(pick(options.labels, 8), 2, 8),
                               pick(options.temperature, 8.0),
                               pick(options.doubleton_weight, 4)),
        0.0, b);
}

} // namespace rsu::workload
