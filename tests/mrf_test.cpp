/**
 * @file
 * Unit tests for the MRF substrate: lattice model, samplers,
 * solvers, the exact oracle, and the estimator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "mrf/estimator.h"
#include "mrf/exact.h"
#include "mrf/gibbs.h"
#include "mrf/icm.h"
#include "mrf/metropolis.h"
#include "mrf/rsu_gibbs.h"
#include "mrf/schedule.h"
#include "rng/stats.h"

namespace {

using namespace rsu::mrf;

/** data1 = a fixed per-pixel value; data2 = 8 * label code. */
class ToySingleton : public SingletonModel
{
  public:
    explicit ToySingleton(int width) : width_(width) {}

    uint8_t
    data1(int x, int y) const override
    {
        return static_cast<uint8_t>((x + y * width_) * 5 % 40);
    }

    uint8_t
    data2(int, int, Label label) const override
    {
        return static_cast<uint8_t>((label * 8) & 0x3f);
    }

  private:
    int width_;
};

MrfConfig
toyConfig(int w, int h, int labels, double t = 16.0)
{
    MrfConfig config;
    config.width = w;
    config.height = h;
    config.num_labels = labels;
    config.temperature = t;
    config.energy.singleton_shift = 4;
    return config;
}

TEST(GridMrf, NeighborExtractionHandlesBorders)
{
    ToySingleton singleton(3);
    GridMrf mrf(toyConfig(3, 3, 4), singleton);
    mrf.fillLabels(2);
    mrf.setLabel(1, 0, 1); // north of centre
    mrf.setLabel(1, 2, 3); // south of centre

    const EnergyInputs centre = mrf.inputsAt(1, 1);
    // Order: N, S, W, E.
    EXPECT_EQ(centre.neighbors[0], 1);
    EXPECT_EQ(centre.neighbors[1], 3);
    EXPECT_EQ(centre.neighbors[2], 2);
    EXPECT_EQ(centre.neighbors[3], 2);
    for (bool v : centre.neighbor_valid)
        EXPECT_TRUE(v);

    const EnergyInputs corner = mrf.inputsAt(0, 0);
    EXPECT_FALSE(corner.neighbor_valid[0]); // no north
    EXPECT_TRUE(corner.neighbor_valid[1]);
    EXPECT_FALSE(corner.neighbor_valid[2]); // no west
    EXPECT_TRUE(corner.neighbor_valid[3]);
}

TEST(GridMrf, ConditionalDistributionIsSoftmaxOfEnergies)
{
    ToySingleton singleton(2);
    GridMrf mrf(toyConfig(2, 2, 3, 10.0), singleton);
    mrf.fillLabels(1);
    const auto dist = mrf.conditionalDistribution(0, 1);
    ASSERT_EQ(dist.size(), 3u);
    double z = 0.0;
    std::vector<double> expected(3);
    for (int i = 0; i < 3; ++i) {
        const Energy e = mrf.conditionalEnergy(0, 1, mrf.codeOf(i));
        expected[i] = std::exp(-e / 10.0);
        z += expected[i];
    }
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(dist[i], expected[i] / z, 1e-12);
    EXPECT_NEAR(std::accumulate(dist.begin(), dist.end(), 0.0), 1.0,
                1e-12);
}

TEST(GridMrf, TotalEnergyHandComputed)
{
    // 2x1 lattice, 2 labels, singleton shift 0 for clarity.
    class TinySingleton : public SingletonModel
    {
      public:
        uint8_t data1(int x, int) const override { return x ? 4 : 2; }
        uint8_t
        data2(int, int, Label l) const override
        {
            return l ? 6 : 1;
        }
    };
    TinySingleton singleton;
    MrfConfig config = toyConfig(2, 1, 2);
    config.energy.singleton_shift = 0;
    GridMrf mrf(config, singleton);
    mrf.setLabel(0, 0, 0);
    mrf.setLabel(1, 0, 1);
    // Singletons: (2-1)^2 + (4-6)^2 = 5; edge doubleton (0-1)^2 = 1.
    EXPECT_EQ(mrf.totalEnergy(), 6);
}

TEST(GridMrf, LabelCodeTablesValidate)
{
    ToySingleton singleton(2);
    MrfConfig config = toyConfig(2, 2, 3);
    config.label_codes = {1, 9, 17};
    GridMrf mrf(config, singleton);
    EXPECT_EQ(mrf.codeOf(2), 17);
    EXPECT_EQ(mrf.indexOfCode(9), 1);
    EXPECT_EQ(mrf.indexOfCode(5), -1);

    config.label_codes = {1, 1, 2};
    EXPECT_THROW(GridMrf(config, singleton), std::invalid_argument);
    config.label_codes = {1, 2};
    EXPECT_THROW(GridMrf(config, singleton), std::invalid_argument);
}

TEST(GridMrf, SetLabelsRejectsLabelsOutsideTheCodes)
{
    ToySingleton singleton(2);
    MrfConfig config = toyConfig(2, 2, 3);
    config.label_codes = {1, 9, 17};
    GridMrf mrf(config, singleton);
    mrf.setLabels({1, 9, 17, 1});
    EXPECT_EQ(mrf.labels(), (std::vector<Label>{1, 9, 17, 1}));

    // 5 is no code; 65 and 255 alias code 1 once masked to 6 bits.
    for (const Label bad : {5, 65, 255}) {
        EXPECT_THROW(mrf.setLabels({1, 9, bad, 1}),
                     std::invalid_argument)
            << "label=" << int(bad);
        EXPECT_EQ(mrf.labels(), (std::vector<Label>{1, 9, 17, 1}));
    }
    EXPECT_THROW(mrf.setLabels({1, 9, 17}), std::invalid_argument);
}

TEST(GridMrf, RejectsBadConfigs)
{
    ToySingleton singleton(2);
    EXPECT_THROW(GridMrf(toyConfig(0, 2, 2), singleton),
                 std::invalid_argument);
    EXPECT_THROW(GridMrf(toyConfig(2, 2, 0), singleton),
                 std::invalid_argument);
    EXPECT_THROW(GridMrf(toyConfig(2, 2, 65), singleton),
                 std::invalid_argument);
    EXPECT_THROW(GridMrf(toyConfig(2, 2, 2, -1.0), singleton),
                 std::invalid_argument);
}

TEST(Schedule, CheckerboardVisitsEverySiteOnce)
{
    std::vector<int> visits(12, 0);
    int parity_flips = 0;
    int last_parity = 0;
    bool first = true;
    forEachSite(4, 3, Schedule::Checkerboard, [&](int x, int y) {
        ++visits[y * 4 + x];
        const int parity = (x + y) & 1;
        if (first) {
            EXPECT_EQ(parity, 0);
            first = false;
        } else if (parity != last_parity) {
            ++parity_flips;
        }
        last_parity = parity;
    });
    for (int v : visits)
        EXPECT_EQ(v, 1);
    EXPECT_EQ(parity_flips, 1); // all evens, then all odds
}

TEST(GibbsSampler, SingleSiteUpdatesMatchConditional)
{
    ToySingleton singleton(3);
    GridMrf mrf(toyConfig(3, 3, 4, 12.0), singleton);
    mrf.fillLabels(1);
    GibbsSampler sampler(mrf, 321);

    const auto expected = mrf.conditionalDistribution(1, 1);
    std::vector<uint64_t> counts(4, 0);
    constexpr int kDraws = 60000;
    for (int i = 0; i < kDraws; ++i) {
        const Label l = sampler.updateSite(1, 1);
        ++counts[mrf.indexOfCode(l)];
        mrf.setLabel(1, 1, 1); // restore state
    }
    const double stat =
        rsu::rng::chiSquareStatistic(counts, expected);
    EXPECT_LT(stat, rsu::rng::chiSquareCritical(3, 0.001));
    EXPECT_EQ(sampler.work().site_updates, kDraws);
    EXPECT_EQ(sampler.work().energy_evals, kDraws * 4u);
}

TEST(GibbsSampler, LongRunMatchesExactMarginals)
{
    ToySingleton singleton(3);
    GridMrf mrf(toyConfig(3, 3, 3, 12.0), singleton);
    const ExactInference exact(mrf);

    GibbsSampler sampler(mrf, 99);
    MarginalMapEstimator est(mrf, 50);
    est.run(4050, [&] { sampler.sweep(); });

    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 3; ++x) {
            const auto truth = exact.marginal(x, y);
            const auto emp = est.empiricalMarginal(x, y);
            for (int l = 0; l < 3; ++l) {
                EXPECT_NEAR(emp[l], truth[l], 0.04)
                    << "site (" << x << "," << y << ") label " << l;
            }
        }
    }
}

TEST(MetropolisSampler, LongRunMatchesExactMarginals)
{
    ToySingleton singleton(2);
    GridMrf mrf(toyConfig(2, 2, 3, 12.0), singleton);
    const ExactInference exact(mrf);

    MetropolisSampler sampler(mrf, 17);
    MarginalMapEstimator est(mrf, 200);
    est.run(12200, [&] { sampler.sweep(); });

    EXPECT_GT(sampler.acceptanceRate(), 0.2);
    for (int y = 0; y < 2; ++y) {
        for (int x = 0; x < 2; ++x) {
            const auto truth = exact.marginal(x, y);
            const auto emp = est.empiricalMarginal(x, y);
            for (int l = 0; l < 3; ++l)
                EXPECT_NEAR(emp[l], truth[l], 0.05);
        }
    }
}

TEST(IcmSolver, ReachesAFixedPointAndLowersEnergy)
{
    ToySingleton singleton(6);
    GridMrf mrf(toyConfig(6, 6, 4), singleton);
    rsu::rng::Xoshiro256 rng(3);
    mrf.randomizeLabels(rng);
    const int64_t before = mrf.totalEnergy();

    IcmSolver solver(mrf);
    const int sweeps = solver.solve(50);
    EXPECT_LT(sweeps, 50);
    const int64_t after = mrf.totalEnergy();
    EXPECT_LE(after, before);
    // Fixed point: another sweep changes nothing.
    EXPECT_EQ(solver.sweep(), 0);
}

TEST(ExactInference, MatchesHandEnumerationOnTwoSites)
{
    // 2 sites, 2 labels, hand-computable joint.
    class FlatSingleton : public SingletonModel
    {
      public:
        uint8_t data1(int, int) const override { return 0; }
        uint8_t
        data2(int, int, Label l) const override
        {
            return l ? 4 : 0;
        }
    };
    FlatSingleton singleton;
    MrfConfig config = toyConfig(2, 1, 2, 8.0);
    config.energy.singleton_shift = 0;
    GridMrf mrf(config, singleton);
    const ExactInference exact(mrf);

    // E(l0,l1) = l0^2*16? No: singleton (0 - 4l)^2 = 16 l; edge
    // (l0-l1)^2. E(0,0)=0, E(0,1)=17, E(1,0)=17, E(1,1)=32.
    const double t = 8.0;
    const double w00 = 1.0, w01 = std::exp(-17 / t),
                 w10 = std::exp(-17 / t), w11 = std::exp(-32 / t);
    const double z = w00 + w01 + w10 + w11;
    EXPECT_NEAR(exact.partition(), z, 1e-9);
    EXPECT_NEAR(exact.marginal(0, 0)[0], (w00 + w01) / z, 1e-9);
    EXPECT_NEAR(exact.marginal(1, 0)[1], (w01 + w11) / z, 1e-9);
    EXPECT_EQ(exact.mapLabels()[0], 0);
    EXPECT_EQ(exact.mapLabels()[1], 0);
    const double mean_e =
        (0 * w00 + 17 * w01 + 17 * w10 + 32 * w11) / z;
    EXPECT_NEAR(exact.meanEnergy(), mean_e, 1e-9);
}

TEST(ExactInference, EnforcesStateBudget)
{
    ToySingleton singleton(4);
    GridMrf mrf(toyConfig(4, 4, 8), singleton);
    EXPECT_THROW(ExactInference(mrf, 1000), std::invalid_argument);
}

TEST(Estimator, BurnInIsDiscarded)
{
    ToySingleton singleton(2);
    GridMrf mrf(toyConfig(2, 2, 2), singleton);
    MarginalMapEstimator est(mrf, 10);
    int calls = 0;
    est.run(25, [&] { ++calls; });
    EXPECT_EQ(calls, 25);
    EXPECT_EQ(est.retained(), 15);
    EXPECT_EQ(est.energyTrajectory().size(), 25u);
}

TEST(RsuGibbs, DirectModeMatchesSoftwareGibbsDistribution)
{
    // On a single site with fixed neighbours, the RSU sampler's
    // empirical distribution must agree exactly with the device
    // race oracle and approximately with the software conditional
    // (the gap is the device's limited-precision quantization).
    ToySingleton singleton(3);
    GridMrf mrf(toyConfig(3, 3, 4, 12.0), singleton);
    mrf.fillLabels(1);

    rsu::core::RsuG unit(rsu::core::RsuGConfig{}, 55);
    RsuGibbsSampler sampler(mrf, unit);

    const auto softmax = mrf.conditionalDistribution(1, 1);
    const auto inputs = mrf.referencedInputsAt(1, 1);
    std::vector<uint8_t> data2(4);
    mrf.data2At(1, 1, data2.data());
    const auto race = unit.raceDistribution(inputs, data2.data());

    std::vector<uint64_t> counts(4, 0);
    constexpr int kDraws = 40000;
    for (int i = 0; i < kDraws; ++i) {
        const Label l = sampler.updateSite(1, 1);
        ++counts[mrf.indexOfCode(l)];
        mrf.setLabel(1, 1, 1);
    }
    const double stat = rsu::rng::chiSquareStatistic(counts, race);
    EXPECT_LT(stat, rsu::rng::chiSquareCritical(3, 0.001));
    for (int l = 0; l < 4; ++l) {
        EXPECT_NEAR(counts[l] / double(kDraws), softmax[l], 0.12)
            << "label " << l;
    }
}

TEST(RsuGibbs, TwoPassReferencingTightensTheConditional)
{
    // Two-pass min-referencing removes the clamp distortion of the
    // single-pass current-label reference: the race should track
    // the softmax closely even when several candidates beat the
    // current label.
    ToySingleton singleton(3);
    GridMrf mrf(toyConfig(3, 3, 4, 12.0), singleton);
    mrf.fillLabels(1);

    const auto softmax = mrf.conditionalDistribution(1, 1);
    const auto inputs = mrf.referencedInputsAt(1, 1);
    std::vector<uint8_t> data2(4);
    mrf.data2At(1, 1, data2.data());

    auto tv_distance = [&](rsu::core::RsuG &unit) {
        const auto race =
            unit.raceDistribution(inputs, data2.data());
        double tv = 0.0;
        for (int l = 0; l < 4; ++l)
            tv += std::abs(race[l] - softmax[l]);
        return 0.5 * tv;
    };

    rsu::core::RsuG single(rsu::core::RsuGConfig{}, 58);
    RsuGibbsSampler s1(mrf, single);
    const double tv_single = tv_distance(single);

    rsu::core::RsuGConfig config;
    config.two_pass_offset = true;
    rsu::core::RsuG two(config, 58);
    RsuGibbsSampler s2(mrf, two);
    const double tv_two = tv_distance(two);

    EXPECT_LT(tv_two, tv_single);
    EXPECT_LT(tv_two, 0.10); // residual is timer-tick bias
    // And the second pass is charged in the timing model.
    EXPECT_EQ(two.latencyCycles(), single.latencyCycles() + 4);
}

TEST(RsuGibbs, IsaModeCountsInstructions)
{
    ToySingleton singleton(3);
    GridMrf mrf(toyConfig(3, 3, 4, 12.0), singleton);
    rsu::core::RsuG unit(rsu::core::RsuGConfig{}, 56);
    RsuGibbsSampler sampler(mrf, unit, Schedule::Checkerboard,
                            RsuGibbsSampler::Mode::Isa);
    sampler.sweep();
    // Per pixel: NEIGHBORS + SINGLETON_A + ENERGY_OFFSET + 1
    // packed SINGLETON_D (4 labels fit one write) + read = 5
    // instructions.
    EXPECT_EQ(sampler.rsuInstructions(), 9u * 5u);
    EXPECT_EQ(unit.stats().samples, 9u);
}

TEST(RsuGibbs, IsaAndDirectModesAgreeStatistically)
{
    ToySingleton singleton(3);

    auto run_mode = [&](RsuGibbsSampler::Mode mode, uint64_t seed) {
        GridMrf mrf(toyConfig(3, 3, 3, 12.0), singleton);
        mrf.fillLabels(0);
        rsu::core::RsuG unit(rsu::core::RsuGConfig{}, seed);
        RsuGibbsSampler sampler(mrf, unit, Schedule::Checkerboard,
                                mode);
        std::vector<uint64_t> counts(3, 0);
        for (int i = 0; i < 20000; ++i) {
            const Label l = sampler.updateSite(1, 1);
            ++counts[mrf.indexOfCode(l)];
            mrf.setLabel(1, 1, 0);
        }
        return counts;
    };

    const auto direct =
        run_mode(RsuGibbsSampler::Mode::Direct, 1001);
    const auto isa = run_mode(RsuGibbsSampler::Mode::Isa, 2002);
    for (int l = 0; l < 3; ++l) {
        EXPECT_NEAR(direct[l] / 20000.0, isa[l] / 20000.0, 0.02)
            << "label " << l;
    }
}

TEST(RsuGibbs, SweepLowersEnergyFromRandomInit)
{
    ToySingleton singleton(8);
    GridMrf mrf(toyConfig(8, 8, 4, 6.0), singleton);
    rsu::rng::Xoshiro256 rng(9);
    mrf.randomizeLabels(rng);
    const int64_t before = mrf.totalEnergy();

    rsu::core::RsuG unit(rsu::core::RsuGConfig{}, 77);
    RsuGibbsSampler sampler(mrf, unit);
    sampler.run(10);
    EXPECT_LT(mrf.totalEnergy(), before);
}

} // namespace
