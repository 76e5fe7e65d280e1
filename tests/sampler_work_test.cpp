/**
 * @file
 * SamplerWork accounting. A Gibbs chain keeps one number, the sites
 * it updated, and SweepCore::work() derives the other fields from
 * it: M energy evaluations and one random draw per site, plus M
 * exp() calls per site on software chains and none on device
 * chains, whose RSU-G races instead of exponentiating. Isa mode's
 * instruction count is checked against instructionsPerSample(M).
 */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "arch/accel_sim.h"
#include "core/rsu_g.h"
#include "core/rsu_isa.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "mrf/rsu_gibbs.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "vision/motion.h"
#include "vision/segmentation.h"
#include "vision/synthetic.h"

namespace {

using rsu::mrf::GridMrf;
using rsu::mrf::SamplerWork;

constexpr int kWidth = 19;
constexpr int kHeight = 11;
constexpr int kLabels = 5;
constexpr int kSweeps = 3;
constexpr uint64_t kSites = uint64_t{kWidth} * kHeight * kSweeps;

/** A segmentation model whose chain starts from its ML labelling. */
struct Problem
{
    rsu::vision::SegmentationScene scene;
    rsu::vision::SegmentationModel model;
    rsu::mrf::MrfConfig config;

    Problem()
        : scene(makeScene()), model(scene.image, scene.region_means),
          config(rsu::vision::segmentationConfig(scene.image, kLabels,
                                                 6.0, 6))
    {
    }

    static rsu::vision::SegmentationScene
    makeScene()
    {
        rsu::rng::Xoshiro256 rng(41);
        return rsu::vision::makeSegmentationScene(kWidth, kHeight,
                                                  kLabels, 3.0, rng);
    }
};

void
expectDeviceWork(const SamplerWork &work, const std::string &what)
{
    EXPECT_EQ(work.site_updates, kSites) << what;
    EXPECT_EQ(work.energy_evals, kLabels * kSites) << what;
    EXPECT_EQ(work.exp_calls, 0u) << what;
    EXPECT_EQ(work.random_draws, kSites) << what;
}

void
expectSoftwareWork(const SamplerWork &work, const std::string &what)
{
    EXPECT_EQ(work.site_updates, kSites) << what;
    EXPECT_EQ(work.energy_evals, kLabels * kSites) << what;
    EXPECT_EQ(work.exp_calls, kLabels * kSites) << what;
    EXPECT_EQ(work.random_draws, kSites) << what;
}

TEST(SamplerWorkDerivation, DeviceChainsCountNoExpCalls)
{
    const Problem p;
    for (const auto mode : {rsu::mrf::RsuGibbsSampler::Mode::Direct,
                            rsu::mrf::RsuGibbsSampler::Mode::Isa}) {
        GridMrf mrf(p.config, p.model);
        mrf.initializeMaximumLikelihood();
        rsu::core::RsuG unit(
            rsu::mrf::RsuGibbsSampler::unitConfigFor(mrf), 3);
        rsu::mrf::RsuGibbsSampler sampler(
            mrf, unit, rsu::mrf::Schedule::Checkerboard, mode);
        sampler.run(kSweeps);
        expectDeviceWork(sampler.work(),
                         mode == rsu::mrf::RsuGibbsSampler::Mode::Isa
                             ? "Isa"
                             : "Direct");
    }

    GridMrf chromatic_mrf(p.config, p.model);
    chromatic_mrf.initializeMaximumLikelihood();
    rsu::runtime::ThreadPool pool(2);
    rsu::runtime::ParallelSweepExecutor executor(pool, 2);
    rsu::runtime::ChromaticGibbsSampler chromatic(
        chromatic_mrf, executor, 3,
        rsu::runtime::SamplerKind::RsuGibbs);
    chromatic.run(kSweeps);
    expectDeviceWork(chromatic.work(), "chromatic RsuGibbs, S = 2");

    GridMrf accel_mrf(p.config, p.model);
    accel_mrf.initializeMaximumLikelihood();
    rsu::arch::AcceleratorSimConfig accel_config;
    accel_config.num_units = 4;
    rsu::arch::AcceleratorSim accel(accel_mrf, accel_config);
    accel.run(kSweeps);
    expectDeviceWork(accel.work(), "AcceleratorSim");
}

TEST(SamplerWorkDerivation, SoftwareChainsCountOneExpPerCandidate)
{
    const Problem p;
    for (const auto path :
         {rsu::mrf::SweepPath::Reference, rsu::mrf::SweepPath::Table,
          rsu::mrf::SweepPath::Simd}) {
        GridMrf mrf(p.config, p.model);
        mrf.initializeMaximumLikelihood();
        rsu::mrf::GibbsSampler sampler(
            mrf, 3, rsu::mrf::Schedule::Raster, path);
        sampler.run(kSweeps);
        expectSoftwareWork(sampler.work(),
                           "path " +
                               std::to_string(static_cast<int>(path)));
    }

    GridMrf mrf(p.config, p.model);
    mrf.initializeMaximumLikelihood();
    rsu::runtime::ThreadPool pool(2);
    rsu::runtime::ParallelSweepExecutor executor(pool, 2);
    rsu::runtime::ChromaticGibbsSampler chromatic(
        mrf, executor, 3, rsu::runtime::SamplerKind::SoftwareGibbs, {},
        rsu::mrf::SweepPath::Table);
    chromatic.run(kSweeps);
    expectSoftwareWork(chromatic.work(),
                       "chromatic SoftwareGibbs Table, S = 2");
}

TEST(IsaInstructionCount, MatchesInstructionsPerSampleBeyondOneWord)
{
    // Motion at window radius 1 and 3: M = 9 and 49 candidates, two
    // and seven SINGLETON_D words per site.
    EXPECT_EQ(rsu::core::instructionsPerSample(9), 6);
    EXPECT_EQ(rsu::core::instructionsPerSample(49), 11);
    for (const int radius : {1, 3}) {
        rsu::rng::Xoshiro256 rng(7);
        const auto scene =
            rsu::vision::makeMotionScene(kWidth, kHeight, 1, radius, 0.0,
                                         rng);
        rsu::vision::MotionModel model(scene.frame1, scene.frame2,
                                       radius);
        GridMrf mrf(rsu::vision::motionConfig(scene.frame1, radius),
                    model);
        mrf.initializeMaximumLikelihood();
        rsu::core::RsuG unit(
            rsu::mrf::RsuGibbsSampler::unitConfigFor(mrf), 5);
        rsu::mrf::RsuGibbsSampler sampler(
            mrf, unit, rsu::mrf::Schedule::Checkerboard,
            rsu::mrf::RsuGibbsSampler::Mode::Isa);
        sampler.run(kSweeps);
        const int m = mrf.numLabels();
        EXPECT_EQ(m, (2 * radius + 1) * (2 * radius + 1));
        EXPECT_EQ(sampler.rsuInstructions(),
                  kSites * rsu::core::instructionsPerSample(m))
            << "M = " << m;
        EXPECT_EQ(unit.stats().samples, kSites) << "M = " << m;
    }
}

} // namespace
