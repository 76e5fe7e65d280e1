/**
 * @file
 * Tests for the extension layer: the generic RSU family (RSU-E,
 * RSU-B), simulated annealing, associative pattern recall, and the
 * functional accelerator simulator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "arch/accel_sim.h"
#include "core/rsu_units.h"
#include "mrf/annealing.h"
#include "mrf/estimator.h"
#include "mrf/gibbs.h"
#include "mrf/rsu_gibbs.h"
#include "rng/stats.h"
#include "vision/metrics.h"
#include "vision/motion.h"
#include "vision/recall.h"
#include "vision/segmentation.h"
#include "vision/synthetic.h"

namespace {

using namespace rsu::core;

TEST(RsuExponential, AchievedRateIsNearestLadderPoint)
{
    RsuExponential rsu;
    EXPECT_GT(rsu.maxRate(), rsu.minRate());
    const double achieved = rsu.setRate(0.5);
    EXPECT_NEAR(achieved, 0.5, 0.5 * 0.35); // within a ladder step
    EXPECT_DOUBLE_EQ(achieved, rsu.achievedRate());
    EXPECT_THROW(rsu.setRate(0.0), std::invalid_argument);
}

TEST(RsuExponential, RateClampsAtLadderEdges)
{
    RsuExponential rsu;
    EXPECT_DOUBLE_EQ(rsu.setRate(1e-6), rsu.minRate());
    EXPECT_DOUBLE_EQ(rsu.setRate(1e6), rsu.maxRate());
}

TEST(RsuExponential, SamplesMatchTheOutputDistribution)
{
    RsuExponential rsu(rsu::ret::RetCircuitConfig{}, 77);
    rsu.setRate(0.4);
    const auto pmf = rsu.outputDistribution();
    ASSERT_EQ(pmf.size(), 256u);
    EXPECT_NEAR(std::accumulate(pmf.begin(), pmf.end(), 0.0), 1.0,
                1e-9);

    // Chi-square the low ticks, pool the tail.
    constexpr int kBins = 20;
    std::vector<uint64_t> counts(kBins + 1, 0);
    constexpr int kDraws = 80000;
    for (int i = 0; i < kDraws; ++i)
        counts[std::min<int>(rsu.sample(), kBins)] += 1;
    std::vector<double> expected(kBins + 1, 0.0);
    double tail = 1.0;
    for (int q = 0; q < kBins; ++q) {
        expected[q] = pmf[q];
        tail -= pmf[q];
    }
    expected[kBins] = tail;
    const double stat =
        rsu::rng::chiSquareStatistic(counts, expected);
    EXPECT_LT(stat, rsu::rng::chiSquareCritical(kBins, 0.001));
    EXPECT_EQ(rsu.samples(), static_cast<uint64_t>(kDraws));
}

TEST(RsuExponential, MeanScalesInverselyWithRate)
{
    RsuExponential rsu(rsu::ret::RetCircuitConfig{}, 3);
    rsu::rng::RunningMoments slow, fast;
    rsu.setRate(0.25);
    for (int i = 0; i < 40000; ++i)
        slow.add(rsu.sample() * rsu.tickNs());
    const double slow_rate = rsu.achievedRate();
    rsu.setRate(1.0);
    for (int i = 0; i < 40000; ++i)
        fast.add(rsu.sample() * rsu.tickNs());
    const double fast_rate = rsu.achievedRate();
    // Quantized means approximate 1/rate - tick/2 bias corrected
    // loosely; check the ratio instead of absolutes.
    EXPECT_NEAR(slow.mean() / fast.mean(),
                fast_rate / slow_rate, 0.2);
}

TEST(RsuBernoulli, AchievedProbabilityTracksRequest)
{
    RsuBernoulli rsu;
    for (double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
        const double achieved = rsu.setProbability(p);
        EXPECT_NEAR(achieved, p, 0.06) << "p = " << p;
    }
    EXPECT_THROW(rsu.setProbability(0.0), std::invalid_argument);
    EXPECT_THROW(rsu.setProbability(1.0), std::invalid_argument);
}

TEST(RsuBernoulli, EmpiricalBiasMatchesTheOracle)
{
    RsuBernoulli rsu(rsu::ret::RetCircuitConfig{}, 99);
    rsu.setProbability(0.3);
    const double oracle = rsu.achievedProbability();
    int ones = 0;
    constexpr int kDraws = 60000;
    for (int i = 0; i < kDraws; ++i)
        ones += rsu.sample();
    EXPECT_NEAR(ones / double(kDraws), oracle, 0.01);
}

TEST(Wear, UniformAgingPreservesRaceRatios)
{
    // Photobleaching scales every channel's rate equally, so the
    // race distribution drifts only through the TTF register's
    // absolute-time effects — mild for moderate aging.
    RsuGConfig config;
    config.circuit.wear.bleach_per_cycle = 1e-6;
    RsuG aged(config, 1);
    aged.initialize(4, 16.0);
    for (int lane = 0; lane < 1; ++lane) {
        for (int rep = 0; rep < 4; ++rep)
            aged.circuit(lane, rep).network().age(200000);
    }
    RsuG fresh(RsuGConfig{}, 1);
    fresh.initialize(4, 16.0);

    EnergyInputs in;
    in.neighbors = {0, 1, 2, 3};
    in.data1 = 30;
    uint8_t data2[4] = {28, 33, 20, 45};
    const auto a = aged.raceDistribution(in, data2);
    const auto f = fresh.raceDistribution(in, data2);
    double tv = 0.0;
    for (int i = 0; i < 4; ++i)
        tv += std::abs(a[i] - f[i]);
    EXPECT_LT(0.5 * tv, 0.02);
    EXPECT_LT(aged.circuit(0, 0).network().survivingFraction(),
              1.0);
    // refresh() restores the fresh distribution exactly.
    for (int rep = 0; rep < 4; ++rep)
        aged.circuit(0, rep).network().refresh();
    const auto r = aged.raceDistribution(in, data2);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(r[i], f[i], 1e-12);
}

TEST(Annealing, ScheduleGeneratesDecreasingStages)
{
    rsu::mrf::AnnealingSchedule schedule;
    schedule.start_temperature = 16.0;
    schedule.stop_temperature = 2.0;
    schedule.cooling_factor = 0.5;
    const auto stages = schedule.temperatures();
    ASSERT_GE(stages.size(), 4u);
    for (size_t i = 1; i < stages.size(); ++i)
        EXPECT_LT(stages[i], stages[i - 1]);
    EXPECT_DOUBLE_EQ(stages.front(), 16.0);
    EXPECT_DOUBLE_EQ(stages.back(), 2.0);

    rsu::mrf::AnnealingSchedule bad = schedule;
    bad.cooling_factor = 1.5;
    EXPECT_THROW(bad.temperatures(), std::invalid_argument);
    bad = schedule;
    bad.stop_temperature = 32.0;
    EXPECT_THROW(bad.temperatures(), std::invalid_argument);

    // Non-finite parameters must be rejected too: an infinite start
    // would cool forever, and NaN passes every range comparison.
    bad = schedule;
    bad.start_temperature =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(bad.temperatures(), std::invalid_argument);
    bad = schedule;
    bad.stop_temperature =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(bad.temperatures(), std::invalid_argument);
    bad = schedule;
    bad.cooling_factor =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(bad.temperatures(), std::invalid_argument);
}

TEST(Annealing, ReachesLowerEnergyThanFixedTemperature)
{
    rsu::rng::Xoshiro256 rng(41);
    const auto scene =
        rsu::vision::makeSegmentationScene(32, 28, 4, 3.0, rng);
    rsu::vision::SegmentationModel model(scene.image,
                                         scene.region_means);
    const auto config =
        rsu::vision::segmentationConfig(scene.image, 4, 12.0, 6);

    // Fixed high temperature.
    rsu::mrf::GridMrf fixed(config, model);
    fixed.initializeMaximumLikelihood();
    rsu::mrf::GibbsSampler fixed_sampler(fixed, 5);
    fixed_sampler.run(40);

    // Annealed from the same start.
    rsu::mrf::GridMrf cooled(config, model);
    cooled.initializeMaximumLikelihood();
    rsu::mrf::GibbsSampler sampler(cooled, 5);
    rsu::mrf::AnnealingSchedule schedule;
    schedule.start_temperature = 12.0;
    schedule.stop_temperature = 1.5;
    schedule.cooling_factor = 0.7;
    schedule.sweeps_per_stage = 6;
    const int64_t best = rsu::mrf::anneal(
        cooled, schedule,
        [&](double t) { cooled.setTemperature(t); },
        [&] { sampler.sweep(); });

    EXPECT_LT(best, fixed.totalEnergy());
    EXPECT_EQ(best, cooled.totalEnergy());
}

TEST(Annealing, RsuSamplerRebuildsTheLutPerStage)
{
    rsu::rng::Xoshiro256 rng(43);
    const auto scene =
        rsu::vision::makeSegmentationScene(24, 20, 3, 3.0, rng);
    rsu::vision::SegmentationModel model(scene.image,
                                         scene.region_means);
    const auto config =
        rsu::vision::segmentationConfig(scene.image, 3, 12.0, 6);
    rsu::mrf::GridMrf mrf(config, model);
    mrf.initializeMaximumLikelihood();

    rsu::core::RsuG unit(
        rsu::mrf::RsuGibbsSampler::unitConfigFor(mrf), 11);
    rsu::mrf::RsuGibbsSampler sampler(mrf, unit);

    rsu::mrf::AnnealingSchedule schedule;
    schedule.start_temperature = 12.0;
    schedule.stop_temperature = 2.0;
    schedule.cooling_factor = 0.6;
    schedule.sweeps_per_stage = 4;
    rsu::mrf::anneal(
        mrf, schedule,
        [&](double t) { sampler.setTemperature(t); },
        [&] { sampler.sweep(); });

    EXPECT_DOUBLE_EQ(unit.temperature(), 2.0);
    EXPECT_GT(rsu::vision::labelAccuracy(mrf.labels(), scene.truth),
              0.85);
}

TEST(Recall, CorruptionRespectsFractions)
{
    rsu::rng::Xoshiro256 rng(3);
    const auto pattern = rsu::vision::makeBinaryPattern(40, 30, rng);
    const auto problem = rsu::vision::corruptPattern(
        pattern, 40, 30, 0.3, 0.1, rng);

    int erased = 0, flipped = 0, kept = 0;
    for (size_t i = 0; i < pattern.size(); ++i) {
        if (!problem.known[i]) {
            ++erased;
        } else if (problem.observed[i] != (pattern[i] & 1)) {
            ++flipped;
        } else {
            ++kept;
        }
    }
    EXPECT_NEAR(erased / 1200.0, 0.3, 0.05);
    EXPECT_NEAR(flipped / (1200.0 * 0.7), 0.1, 0.04);
    EXPECT_GT(kept, 700);
}

TEST(Recall, ErasedPixelsCarryNoEvidence)
{
    rsu::rng::Xoshiro256 rng(5);
    const auto pattern = rsu::vision::makeBinaryPattern(10, 10, rng);
    auto problem =
        rsu::vision::corruptPattern(pattern, 10, 10, 1.0, 0.0, rng);
    const rsu::vision::RecallModel model(problem);
    for (int l = 0; l < 2; ++l)
        EXPECT_EQ(model.data1(3, 3),
                  model.data2(3, 3, static_cast<Label>(l)));
}

TEST(Recall, CompletesACorruptedPattern)
{
    rsu::rng::Xoshiro256 rng(7);
    const auto pattern = rsu::vision::makeBinaryPattern(48, 40, rng);
    const auto problem = rsu::vision::corruptPattern(
        pattern, 48, 40, 0.4, 0.05, rng);

    const rsu::vision::RecallModel model(problem);
    const auto config = rsu::vision::recallConfig(problem);
    rsu::mrf::GridMrf mrf(config, model);
    mrf.initializeMaximumLikelihood();

    const double before =
        rsu::vision::labelAccuracy(mrf.labels(), pattern);

    rsu::core::RsuG unit(
        rsu::mrf::RsuGibbsSampler::unitConfigFor(mrf), 13);
    rsu::mrf::RsuGibbsSampler sampler(mrf, unit);
    rsu::mrf::MarginalMapEstimator est(mrf, 10);
    est.run(50, [&] { sampler.sweep(); });

    const double after =
        rsu::vision::labelAccuracy(est.estimate(), pattern);
    EXPECT_GT(after, 0.93);
    EXPECT_GT(after, before);
}

TEST(AcceleratorSim, MatchesSingleUnitStatistics)
{
    rsu::rng::Xoshiro256 rng(11);
    const auto scene =
        rsu::vision::makeSegmentationScene(32, 24, 4, 2.5, rng);
    rsu::vision::SegmentationModel model(scene.image,
                                         scene.region_means);
    const auto config =
        rsu::vision::segmentationConfig(scene.image, 4, 6.0, 6);
    rsu::mrf::GridMrf mrf(config, model);
    mrf.initializeMaximumLikelihood();

    rsu::arch::AcceleratorSimConfig sim_config;
    sim_config.num_units = 16;
    rsu::arch::AcceleratorSim sim(mrf, sim_config);
    sim.run(40);

    EXPECT_GT(rsu::vision::labelAccuracy(mrf.labels(), scene.truth),
              0.9);
}

TEST(AcceleratorSim, CriticalPathShrinksWithUnits)
{
    rsu::rng::Xoshiro256 rng(13);
    const auto scene =
        rsu::vision::makeSegmentationScene(32, 24, 4, 2.5, rng);
    rsu::vision::SegmentationModel model(scene.image,
                                         scene.region_means);
    const auto config =
        rsu::vision::segmentationConfig(scene.image, 4, 6.0, 6);

    uint64_t prev_cycles = 0;
    for (int units : {1, 4, 16}) {
        rsu::mrf::GridMrf mrf(config, model);
        mrf.initializeMaximumLikelihood();
        rsu::arch::AcceleratorSimConfig sim_config;
        sim_config.num_units = units;
        rsu::arch::AcceleratorSim sim(mrf, sim_config);
        const auto stats = sim.sweep();
        if (prev_cycles != 0) {
            EXPECT_LT(stats.critical_cycles, prev_cycles);
            // Near-linear scaling: within 30% of ideal.
            EXPECT_NEAR(static_cast<double>(prev_cycles) /
                            stats.critical_cycles,
                        4.0, 1.2);
        }
        prev_cycles = stats.critical_cycles;
        EXPECT_GT(sim.lastUtilization(), 0.9);
    }
}

TEST(AcceleratorSim, ByteAccountingMatchesThePaper)
{
    rsu::rng::Xoshiro256 rng(17);
    // Segmentation: data2 is per-label (class means) -> 5 + M.
    const auto seg_scene =
        rsu::vision::makeSegmentationScene(16, 16, 5, 2.5, rng);
    rsu::vision::SegmentationModel seg_model(seg_scene.image,
                                             seg_scene.region_means);
    const auto seg_config =
        rsu::vision::segmentationConfig(seg_scene.image, 5);
    rsu::mrf::GridMrf seg(seg_config, seg_model);
    rsu::arch::AcceleratorSimConfig sim_config;
    sim_config.num_units = 4;
    rsu::arch::AcceleratorSim seg_sim(seg, sim_config);
    // Class means are global constants the accelerator caches, but
    // the general accounting charges per-candidate streams only
    // when data2 varies per label; the motion figure is the
    // paper-pinned one.
    const auto motion_scene =
        rsu::vision::makeMotionScene(16, 16, 1, 3, 0.0, rng);
    rsu::vision::MotionModel motion_model(motion_scene.frame1,
                                          motion_scene.frame2, 3);
    const auto motion_config =
        rsu::vision::motionConfig(motion_scene.frame1, 3);
    rsu::mrf::GridMrf motion(motion_config, motion_model);
    rsu::arch::AcceleratorSim motion_sim(motion, sim_config);
    EXPECT_EQ(motion_sim.bytesPerSite(), 54); // paper section 8.2
}

TEST(AcceleratorSim, OneUnitMatchesRsuGibbsSamplerDirect)
{
    // A one-unit farm is the single-chain device sweep: same labels
    // as RsuGibbsSampler (Direct) on an identically seeded unit, and
    // its critical path is that unit's busy cycles.
    const auto check = [](const rsu::mrf::MrfConfig &config,
                          const rsu::mrf::SingletonModel &model,
                          uint64_t seed) {
        rsu::mrf::GridMrf sim_mrf(config, model);
        sim_mrf.initializeMaximumLikelihood();
        rsu::arch::AcceleratorSimConfig sim_config;
        sim_config.num_units = 1;
        sim_config.seed = seed;
        rsu::arch::AcceleratorSim sim(sim_mrf, sim_config);
        const auto stats = sim.run(5);

        rsu::mrf::GridMrf mrf(config, model);
        mrf.initializeMaximumLikelihood();
        rsu::core::RsuG unit(
            rsu::mrf::RsuGibbsSampler::unitConfigFor(mrf), seed);
        rsu::mrf::RsuGibbsSampler sampler(mrf, unit);
        sampler.run(5);

        EXPECT_EQ(sim_mrf.labels(), mrf.labels());
        EXPECT_EQ(stats.critical_cycles,
                  unit.stats().issue_cycles + unit.stats().stall_cycles);
        EXPECT_GT(stats.critical_cycles, 0u);
    };

    rsu::rng::Xoshiro256 rng(29);
    const auto seg_scene =
        rsu::vision::makeSegmentationScene(24, 16, 4, 2.5, rng);
    rsu::vision::SegmentationModel seg_model(seg_scene.image,
                                             seg_scene.region_means);
    check(rsu::vision::segmentationConfig(seg_scene.image, 4, 6.0, 6),
          seg_model, 31);

    const auto motion_scene =
        rsu::vision::makeMotionScene(16, 16, 1, 3, 0.0, rng);
    rsu::vision::MotionModel motion_model(motion_scene.frame1,
                                          motion_scene.frame2, 3);
    check(rsu::vision::motionConfig(motion_scene.frame1, 3),
          motion_model, 37);
}

TEST(AcceleratorSim, MemoryFloorAppearsAtHighUnitCounts)
{
    rsu::rng::Xoshiro256 rng(19);
    const auto scene =
        rsu::vision::makeSegmentationScene(48, 32, 4, 2.5, rng);
    rsu::vision::SegmentationModel model(scene.image,
                                         scene.region_means);
    const auto config =
        rsu::vision::segmentationConfig(scene.image, 4, 6.0, 6);
    rsu::mrf::GridMrf mrf(config, model);

    rsu::arch::AcceleratorSimConfig sim_config;
    sim_config.num_units = 512;
    sim_config.mem_bw_gbs = 1.0; // starved
    rsu::arch::AcceleratorSim sim(mrf, sim_config);
    const auto stats = sim.sweep();
    EXPECT_GT(stats.memory_seconds, stats.compute_seconds);
    EXPECT_DOUBLE_EQ(stats.seconds(), stats.memory_seconds);
}

} // namespace
