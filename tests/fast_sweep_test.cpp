/**
 * @file
 * Table-driven fast sweep path tests.
 *
 * The headline contract: because every energy in the system is an
 * exact integer, the fast path's lookups are bit-identical to the
 * reference sampler's recomputation — same label field, same RNG
 * consumption — for every (seed, schedule, shard count, temperature
 * schedule). These tests enforce that contract, plus unit-level
 * equivalence of each table, ExpTable invalidation on
 * setTemperature(), border correctness on degenerate lattices, and
 * the logical SamplerWork accounting.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/simd.h"
#include "core/tables.h"
#include "core/types.h"
#include "mrf/annealing.h"
#include "mrf/fast_sweep.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "mrf/schedule.h"
#include "mrf/sweep_core.h"
#include "rng/streams.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "vision/segmentation.h"
#include "vision/synthetic.h"

namespace {

using rsu::core::DoubletonTable;
using rsu::core::EnergyConfig;
using rsu::core::EnergyUnit;
using rsu::core::ExpTable;
using rsu::core::Label;
using rsu::core::LabelMode;
using rsu::core::SimdIsa;
using rsu::mrf::GibbsSampler;
using rsu::mrf::GridMrf;
using rsu::mrf::MrfConfig;
using rsu::mrf::Schedule;
using rsu::mrf::SweepPath;
using rsu::runtime::ChromaticGibbsSampler;
using rsu::runtime::ParallelSweepExecutor;
using rsu::runtime::SamplerKind;
using rsu::runtime::ThreadPool;

/** A small segmentation problem with deterministic content. */
struct Problem
{
    rsu::vision::SegmentationScene scene;
    rsu::vision::SegmentationModel model;
    MrfConfig config;

    Problem(int width, int height, int labels, uint64_t seed)
        : scene(makeScene(width, height, labels, seed)),
          model(scene.image, scene.region_means),
          config(rsu::vision::segmentationConfig(scene.image, labels))
    {
    }

    static rsu::vision::SegmentationScene
    makeScene(int width, int height, int labels, uint64_t seed)
    {
        rsu::rng::Xoshiro256 rng(seed);
        return rsu::vision::makeSegmentationScene(width, height,
                                                  labels, 3.0, rng);
    }
};

void
expectSameWork(const rsu::mrf::SamplerWork &a,
               const rsu::mrf::SamplerWork &b)
{
    EXPECT_EQ(a.site_updates, b.site_updates);
    EXPECT_EQ(a.energy_evals, b.energy_evals);
    EXPECT_EQ(a.exp_calls, b.exp_calls);
    EXPECT_EQ(a.random_draws, b.random_draws);
}

TEST(ExpTableTest, MatchesStdExpBitwise)
{
    ExpTable table;
    for (double t : {16.0, 8.0, 2.5, 0.7}) {
        table.rebuild(t);
        for (int e = 0; e <= rsu::core::kEnergyMax; ++e)
            EXPECT_EQ(table.at(e),
                      std::exp(-static_cast<double>(e) / t))
                << "e=" << e << " t=" << t;
    }
    EXPECT_THROW(table.rebuild(0.0), std::invalid_argument);
}

TEST(DoubletonTableTest, MatchesEnergyUnitForAllCodePairs)
{
    std::vector<EnergyConfig> configs(4);
    configs[1].doubleton_weight = 8;
    configs[2].doubleton_cap = 4;
    configs[2].doubleton_weight = 3;
    configs[3].mode = LabelMode::Vector;
    configs[3].doubleton_cap = 9;

    // Every 3rd code (22 candidates) and every 5th (13), unpadded.
    for (const int step : {3, 5}) {
        std::vector<Label> codes;
        for (int c = 0; c < rsu::core::kMaxLabels; c += step)
            codes.push_back(static_cast<Label>(c));
        const int n = static_cast<int>(codes.size());
        for (const auto &config : configs) {
            const EnergyUnit unit(config);
            const DoubletonTable table(unit, codes);
            ASSERT_EQ(table.numCandidates(), n);
            ASSERT_EQ(table.paddedCandidates(), n);
            for (int c = 0; c < rsu::core::kMaxLabels; ++c) {
                const auto code = static_cast<Label>(c);
                for (int i = 0; i < n; ++i)
                    ASSERT_EQ(table.at(code, i),
                              unit.doubleton(codes[i], code))
                        << "step=" << step << " c=" << c << " i=" << i;
            }
        }
    }
    EXPECT_THROW(DoubletonTable(EnergyUnit(EnergyConfig{}), {}),
                 std::invalid_argument);
}

TEST(TransposedDoubletonTableTest, MatchesTransposeWithZeroPad)
{
    // The table is neighbour-major: row `code` holds the doubleton
    // energy of every candidate against that neighbour code, i.e. the
    // transpose of a candidate-major layout, with the lanes past the
    // candidate count padded with zero energy.
    std::vector<EnergyConfig> configs(3);
    configs[1].doubleton_weight = 8;
    configs[2].mode = LabelMode::Vector;
    configs[2].doubleton_cap = 9;

    std::vector<Label> codes;
    for (int c = 0; c < rsu::core::kMaxLabels; c += 5)
        codes.push_back(static_cast<Label>(c));
    const int n = static_cast<int>(codes.size());

    for (const int padded : {16, 24}) { // lane multiples above 13 codes
        for (const auto &config : configs) {
            const EnergyUnit unit(config);
            const DoubletonTable table(unit, codes, padded);
            ASSERT_EQ(table.numCandidates(), n);
            ASSERT_EQ(table.paddedCandidates(), padded);
            for (int c = 0; c < rsu::core::kMaxLabels; ++c) {
                const auto code = static_cast<Label>(c);
                for (int i = 0; i < n; ++i)
                    ASSERT_EQ(table.at(code, i),
                              unit.doubleton(codes[i], code))
                        << "padded=" << padded << " c=" << c
                        << " i=" << i;
                for (int i = n; i < padded; ++i)
                    ASSERT_EQ(table.at(code, i), 0);
            }
        }
    }
    EXPECT_THROW(DoubletonTable(EnergyUnit(EnergyConfig{}), codes, 4),
                 std::invalid_argument);
    EXPECT_THROW(DoubletonTable(EnergyUnit(EnergyConfig{}), codes, n - 1),
                 std::invalid_argument);
}

TEST(SingletonTableTest, MatchesModelAndDrivesMlInit)
{
    Problem p(19, 13, 5, 7);
    GridMrf mrf(p.config, p.model);
    const auto table = mrf.buildSingletonTable();

    for (int y = 0; y < mrf.height(); ++y) {
        for (int x = 0; x < mrf.width(); ++x) {
            const int site = mrf.index(x, y);
            for (int i = 0; i < mrf.numLabels(); ++i)
                ASSERT_EQ(table.at(site, i),
                          mrf.energyUnit().singleton(
                              p.model.data1(x, y),
                              p.model.data2(x, y, mrf.codeOf(i))));
        }
    }

    // ML init = per-site argmin of the table, first minimum wins.
    mrf.initializeMaximumLikelihood();
    for (int y = 0; y < mrf.height(); ++y) {
        for (int x = 0; x < mrf.width(); ++x) {
            const int site = mrf.index(x, y);
            int best = 0;
            for (int i = 1; i < mrf.numLabels(); ++i)
                if (table.at(site, i) < table.at(site, best))
                    best = i;
            EXPECT_EQ(mrf.label(x, y), mrf.codeOf(best));
        }
    }
}

TEST(Data2TableTest, RowsMatchData2At)
{
    Problem p(11, 9, 4, 3);
    GridMrf mrf(p.config, p.model);
    const auto staged = mrf.buildData2Table();
    std::vector<uint8_t> direct(mrf.numLabels());
    for (int y = 0; y < mrf.height(); ++y) {
        for (int x = 0; x < mrf.width(); ++x) {
            mrf.data2At(x, y, direct.data());
            const uint8_t *row = staged.row(mrf.index(x, y));
            for (int i = 0; i < mrf.numLabels(); ++i)
                ASSERT_EQ(row[i], direct[i]);
        }
    }
}

TEST(FastSweepTest, BitExactAcrossSeedsAndSchedules)
{
    Problem p(29, 22, 6, 17);
    for (const uint64_t seed : {1ull, 7ull, 42ull}) {
        for (const Schedule schedule :
             {Schedule::Raster, Schedule::Checkerboard}) {
            GridMrf ref_mrf(p.config, p.model);
            ref_mrf.initializeMaximumLikelihood();
            GibbsSampler reference(ref_mrf, seed, schedule);

            GridMrf fast_mrf(p.config, p.model);
            fast_mrf.initializeMaximumLikelihood();
            GibbsSampler fast(fast_mrf, seed, schedule,
                              SweepPath::Table);

            for (int sweep = 0; sweep < 4; ++sweep) {
                reference.sweep();
                fast.sweep();
                ASSERT_EQ(ref_mrf.labels(), fast_mrf.labels())
                    << "seed=" << seed << " sweep=" << sweep;
            }
            expectSameWork(reference.work(), fast.work());
        }
    }
}

TEST(FastSweepTest, BitExactOnVectorModeCodes)
{
    // Motion-style model: vector labels on a 3x3 window, codes
    // packed with stride 8 (non-contiguous), truncated-quadratic
    // doubleton.
    class WarpModel : public rsu::mrf::SingletonModel
    {
      public:
        uint8_t
        data1(int x, int y) const override
        {
            return static_cast<uint8_t>((3 * x + 5 * y) & 63);
        }
        uint8_t
        data2(int x, int y, Label label) const override
        {
            return static_cast<uint8_t>(
                (x + 2 * y + 7 * rsu::core::labelX1(label) +
                 11 * rsu::core::labelX2(label)) &
                63);
        }
    };

    MrfConfig config;
    config.width = 17;
    config.height = 12;
    config.num_labels = 9;
    for (int dy = 0; dy < 3; ++dy)
        for (int dx = 0; dx < 3; ++dx)
            config.label_codes.push_back(
                rsu::core::packVectorLabel(dx, dy));
    config.energy.mode = LabelMode::Vector;
    config.energy.doubleton_weight = 4;
    config.energy.doubleton_cap = 5;
    config.temperature = 6.0;

    const WarpModel model;
    GridMrf ref_mrf(config, model);
    ref_mrf.initializeMaximumLikelihood();
    GibbsSampler reference(ref_mrf, 19);

    GridMrf fast_mrf(config, model);
    fast_mrf.initializeMaximumLikelihood();
    GibbsSampler fast(fast_mrf, 19, Schedule::Checkerboard,
                      SweepPath::Table);

    reference.run(5);
    fast.run(5);
    EXPECT_EQ(ref_mrf.labels(), fast_mrf.labels());
    expectSameWork(reference.work(), fast.work());
}

TEST(FastSweepTest, BitExactAcrossRuntimeShardCounts)
{
    Problem p(37, 26, 5, 29);
    for (const int shards : {1, 2, 4, 8}) {
        GridMrf ref_mrf(p.config, p.model);
        ref_mrf.initializeMaximumLikelihood();
        ThreadPool ref_pool(2);
        ParallelSweepExecutor ref_executor(ref_pool, shards);
        ChromaticGibbsSampler reference(ref_mrf, ref_executor, 99);

        GridMrf fast_mrf(p.config, p.model);
        fast_mrf.initializeMaximumLikelihood();
        ThreadPool fast_pool(3); // pool size must not matter
        ParallelSweepExecutor fast_executor(fast_pool, shards);
        ChromaticGibbsSampler fast(fast_mrf, fast_executor, 99,
                                   SamplerKind::SoftwareGibbs, {},
                                   SweepPath::Table);
        ASSERT_EQ(fast.path(), SweepPath::Table);

        for (int sweep = 0; sweep < 3; ++sweep) {
            reference.sweep();
            fast.sweep();
            ASSERT_EQ(ref_mrf.labels(), fast_mrf.labels())
                << "shards=" << shards << " sweep=" << sweep;
        }
        expectSameWork(reference.work(), fast.work());
    }
}

TEST(FastSweepTest, OneShardTableMatchesSequentialTable)
{
    Problem p(23, 18, 4, 47);

    GridMrf sequential(p.config, p.model);
    sequential.initializeMaximumLikelihood();
    GibbsSampler reference(sequential, 5, Schedule::Checkerboard,
                           SweepPath::Table);
    reference.run(4);

    GridMrf parallel(p.config, p.model);
    parallel.initializeMaximumLikelihood();
    ThreadPool pool(2);
    ParallelSweepExecutor executor(pool, 1);
    ChromaticGibbsSampler sampler(parallel, executor, 5,
                                  SamplerKind::SoftwareGibbs, {},
                                  SweepPath::Table);
    sampler.run(4);

    EXPECT_EQ(sequential.labels(), parallel.labels());
}

TEST(FastSweepTest, AnnealingRampInvalidatesExpTable)
{
    Problem p(21, 16, 4, 13);

    // Sequential samplers under an explicit temperature ramp.
    GridMrf ref_mrf(p.config, p.model);
    ref_mrf.initializeMaximumLikelihood();
    GibbsSampler reference(ref_mrf, 31);

    GridMrf fast_mrf(p.config, p.model);
    fast_mrf.initializeMaximumLikelihood();
    GibbsSampler fast(fast_mrf, 31, Schedule::Checkerboard,
                      SweepPath::Table);
    ASSERT_NE(fast.core().tableSet(), nullptr);

    double t = p.config.temperature;
    for (int stage = 0; stage < 5; ++stage) {
        reference.setTemperature(t);
        fast.setTemperature(t);
        reference.run(2);
        fast.run(2);
        ASSERT_EQ(ref_mrf.labels(), fast_mrf.labels())
            << "stage=" << stage << " t=" << t;
        // The fast path's exp table must have followed the ramp.
        for (int e = 0; e <= rsu::core::kEnergyMax; ++e)
            ASSERT_EQ(fast.core().expTable().at(e),
                      std::exp(-static_cast<double>(e) / t))
                << "stage=" << stage << " e=" << e;
        t *= 0.6;
    }

    // Same ramp through the chromatic runtime's setTemperature.
    for (const int shards : {1, 3}) {
        GridMrf a_mrf(p.config, p.model);
        a_mrf.initializeMaximumLikelihood();
        ThreadPool a_pool(2);
        ParallelSweepExecutor a_executor(a_pool, shards);
        ChromaticGibbsSampler a(a_mrf, a_executor, 77);

        GridMrf b_mrf(p.config, p.model);
        b_mrf.initializeMaximumLikelihood();
        ThreadPool b_pool(2);
        ParallelSweepExecutor b_executor(b_pool, shards);
        ChromaticGibbsSampler b(b_mrf, b_executor, 77,
                                SamplerKind::SoftwareGibbs, {},
                                SweepPath::Table);

        double stage_t = p.config.temperature;
        for (int stage = 0; stage < 4; ++stage) {
            a.setTemperature(stage_t);
            b.setTemperature(stage_t);
            a.run(2);
            b.run(2);
            ASSERT_EQ(a_mrf.labels(), b_mrf.labels())
                << "shards=" << shards << " stage=" << stage;
            stage_t *= 0.5;
        }
    }
}

TEST(FastSweepTest, MismatchedTableSetIsRejected)
{
    Problem p(14, 10, 4, 19);
    GridMrf mrf(p.config, p.model);
    ThreadPool pool(1);
    ParallelSweepExecutor executor(pool, 1);
    const auto bind = [&](const MrfConfig &config) {
        GridMrf other(config, p.model);
        auto set = std::make_shared<const rsu::mrf::SweepTableSet>(other);
        ChromaticGibbsSampler sampler(mrf, executor, 3,
                                      SamplerKind::SoftwareGibbs, {},
                                      SweepPath::Table, set);
    };

    EXPECT_NO_THROW(bind(p.config));
    MrfConfig config = p.config;
    config.height -= 1; // fewer rows than the model
    EXPECT_THROW(bind(config), std::invalid_argument);
    config = p.config;
    config.width -= 1;
    EXPECT_THROW(bind(config), std::invalid_argument);
    config = p.config;
    config.num_labels = 3;
    EXPECT_THROW(bind(config), std::invalid_argument);
    config = p.config;
    config.label_codes = {0, 1, 3, 2}; // same codes, other order
    EXPECT_THROW(bind(config), std::invalid_argument);
}

TEST(FastSweepTest, BitExactOnDegenerateLattices)
{
    // 1xN and Nx1 lattices: every site is a border site, exercising
    // each neighbour-validity combination the border path handles.
    // The w x h grid adds every shape from no interior site up to a
    // 7x5 interior, so the row kernel's interior/border split is
    // pinned on each; the warm runs move most labels off their ML
    // start, where a misclassified site would show.
    std::vector<std::pair<int, int>> dims = {
        {1, 24}, {24, 1}, {1, 1}, {2, 15}, {15, 2}};
    for (const int w : {1, 2, 3, 9})
        for (const int h : {1, 2, 7})
            dims.emplace_back(w, h);
    for (const auto &[w, h] : dims) {
        Problem p(w, h, 3, 61);
        const double cold = p.config.temperature;
        for (const double t : {cold, 4.0 * cold}) {
            p.config.temperature = t;
            for (const Schedule schedule :
                 {Schedule::Raster, Schedule::Checkerboard}) {
                GridMrf ref_mrf(p.config, p.model);
                ref_mrf.initializeMaximumLikelihood();
                GibbsSampler reference(ref_mrf, 3, schedule);

                GridMrf fast_mrf(p.config, p.model);
                fast_mrf.initializeMaximumLikelihood();
                GibbsSampler fast(fast_mrf, 3, schedule,
                                  SweepPath::Table);

                reference.run(6);
                fast.run(6);
                ASSERT_EQ(ref_mrf.labels(), fast_mrf.labels())
                    << w << "x" << h << " T=" << t;
                expectSameWork(reference.work(), fast.work());
            }
        }
    }
}

TEST(FastSweepTest, SingleSiteUpdatesMatchReference)
{
    Problem p(9, 7, 4, 5);
    GridMrf ref_mrf(p.config, p.model);
    ref_mrf.initializeMaximumLikelihood();
    GibbsSampler reference(ref_mrf, 71);

    GridMrf fast_mrf(p.config, p.model);
    fast_mrf.initializeMaximumLikelihood();
    GibbsSampler fast(fast_mrf, 71, Schedule::Checkerboard,
                      SweepPath::Table);

    // Mixed interior and border single-site updates.
    const std::pair<int, int> sites[] = {
        {0, 0}, {4, 3}, {8, 6}, {1, 1}, {0, 3}, {4, 0}, {8, 2}};
    for (const auto &[x, y] : sites)
        EXPECT_EQ(reference.updateSite(x, y), fast.updateSite(x, y))
            << "(" << x << ", " << y << ")";
    EXPECT_EQ(ref_mrf.labels(), fast_mrf.labels());
}

static_assert(alignof(rsu::mrf::SweepChain) >= 64,
              "each sweep chain must start a cache line of its own");

TEST(SweepChainTest, NeighbouringChainsNeverShareACacheLine)
{
    // Every field a chain writes per site, as a byte range.
    struct Range
    {
        const void *p;
        std::size_t bytes;
    };
    const auto hot = [](const rsu::mrf::SweepChain &c) {
        return std::vector<Range>{
            {&c.rng, sizeof(c.rng)},
            {c.weights.data(), c.weights.size() * sizeof(double)},
            {c.fixed_weights.data(),
             c.fixed_weights.size() * sizeof(uint32_t)},
            {&c.block, sizeof(c.block)},
            {&c.work, sizeof(c.work)}};
    };
    const auto first_line = [](const Range &r) {
        return reinterpret_cast<std::uintptr_t>(r.p) / 64;
    };
    const auto last_line = [](const Range &r) {
        return (reinterpret_cast<std::uintptr_t>(r.p) + r.bytes - 1) /
               64;
    };

    for (const SweepPath path :
         {SweepPath::Reference, SweepPath::Table, SweepPath::Simd}) {
        for (const int labels : {2, 5}) {
            Problem p(16, 12, labels, 3);
            GridMrf mrf(p.config, p.model);
            rsu::mrf::SweepCore core(
                mrf, rsu::rng::splitStreams(7, 8), path);
            for (int c = 0; c + 1 < core.chains(); ++c) {
                for (const Range &a : hot(core.chain(c)))
                    for (const Range &b : hot(core.chain(c + 1)))
                        ASSERT_TRUE(last_line(a) < first_line(b) ||
                                    last_line(b) < first_line(a))
                            << "chains " << c << " and " << c + 1
                            << " share a line (labels=" << labels
                            << ")";
            }
        }
    }
}

/**
 * Singleton data that overflows the 8-bit datapath at
 * singleton_shift = 0: on every third site all candidates cost more
 * than kEnergyMax, with the cheapest one rarely candidate 0; the
 * other sites mix small and large energies.
 */
class SaturatingModel : public rsu::mrf::SingletonModel
{
  public:
    static bool
    allOver(int x, int y)
    {
        return (x + y) % 3 == 0;
    }

    uint8_t
    data1(int x, int y) const override
    {
        return allOver(x, y)
                   ? 0
                   : static_cast<uint8_t>((5 * x + 3 * y) & 63);
    }

    uint8_t
    data2(int x, int y, Label label) const override
    {
        if (allOver(x, y)) // (>= 20)^2 = 400 > 255 for every label
            return static_cast<uint8_t>(20 + 7 * ((label + x) % 6));
        return static_cast<uint8_t>((11 * label + x + y) & 63);
    }
};

MrfConfig
saturatingConfig()
{
    MrfConfig config;
    config.width = 23;
    config.height = 17;
    config.num_labels = 6;
    config.energy.singleton_shift = 0;
    config.temperature = 24.0;
    return config;
}

TEST(SingletonTableTest, SaturatesAndKeepsTheUnclampedArgmin)
{
    const SaturatingModel model;
    GridMrf mrf(saturatingConfig(), model);
    const auto table = mrf.buildSingletonTable(8, {});

    int saturated_sites = 0;
    int nonzero_argmins = 0;
    for (int y = 0; y < mrf.height(); ++y) {
        for (int x = 0; x < mrf.width(); ++x) {
            const int site = mrf.index(x, y);
            int best = 0;
            int best_e = 0;
            bool all_over = true;
            for (int i = 0; i < mrf.numLabels(); ++i) {
                const int e = mrf.energyUnit().singleton(
                    model.data1(x, y),
                    model.data2(x, y, mrf.codeOf(i)));
                ASSERT_EQ(table.at(site, i),
                          std::min(e, rsu::core::kEnergyMax))
                    << "site " << site << " candidate " << i;
                if (i == 0 || e < best_e) {
                    best = i;
                    best_e = e;
                }
                all_over = all_over && e > rsu::core::kEnergyMax;
            }
            for (int i = mrf.numLabels(); i < 8; ++i)
                ASSERT_EQ(table.at(site, i), rsu::core::kEnergyMax);
            ASSERT_EQ(table.argminRow(site), best) << "site " << site;
            ASSERT_EQ(all_over, SaturatingModel::allOver(x, y));
            saturated_sites += all_over;
            nonzero_argmins += all_over && best != 0;
        }
    }
    // The clamped rows of these sites are all kEnergyMax, so only a
    // recorded argmin can find their ML label.
    EXPECT_GT(saturated_sites, 100);
    EXPECT_GT(nonzero_argmins, 50);

    GridMrf ml(saturatingConfig(), model);
    ml.initializeMaximumLikelihood(table);
    for (int site = 0; site < ml.size(); ++site)
        ASSERT_EQ(ml.labels()[site], ml.codeOf(table.argminRow(site)));
}

TEST(FastSweepTest, BitExactWithSaturatedSingletons)
{
    const SaturatingModel model;
    const MrfConfig config = saturatingConfig();

    // Table == Reference, sequential.
    {
        GridMrf ref_mrf(config, model);
        ref_mrf.initializeMaximumLikelihood();
        GibbsSampler reference(ref_mrf, 13);
        GridMrf fast_mrf(config, model);
        fast_mrf.initializeMaximumLikelihood();
        GibbsSampler fast(fast_mrf, 13, Schedule::Checkerboard,
                          SweepPath::Table);
        for (int sweep = 0; sweep < 4; ++sweep) {
            reference.sweep();
            fast.sweep();
            ASSERT_EQ(ref_mrf.labels(), fast_mrf.labels())
                << "sweep " << sweep;
        }
    }

    // Table == Reference, chromatic at S = 4.
    const auto chromatic = [&](SweepPath path, SimdIsa isa) {
        GridMrf mrf(config, model);
        mrf.initializeMaximumLikelihood();
        ThreadPool pool(4);
        ParallelSweepExecutor executor(pool, 4);
        ChromaticGibbsSampler sampler(mrf, executor, 31,
                                      SamplerKind::SoftwareGibbs, {},
                                      path);
        sampler.setSimdIsa(isa);
        sampler.run(4);
        return mrf.labels();
    };
    const SimdIsa widest = rsu::core::activeSimdIsa();
    EXPECT_EQ(chromatic(SweepPath::Reference, widest),
              chromatic(SweepPath::Table, widest));

    // Scalar == the widest Simd kernel, sequential and at S = 4.
    const auto sequential_simd = [&](SimdIsa isa) {
        GridMrf mrf(config, model);
        mrf.initializeMaximumLikelihood();
        GibbsSampler sampler(mrf, 13, Schedule::Checkerboard,
                             SweepPath::Simd);
        sampler.setSimdIsa(isa);
        sampler.run(4);
        return mrf.labels();
    };
    EXPECT_EQ(sequential_simd(SimdIsa::Scalar), sequential_simd(widest));
    EXPECT_EQ(chromatic(SweepPath::Simd, SimdIsa::Scalar),
              chromatic(SweepPath::Simd, widest));
}

TEST(GridMrfTest, RowParallelTotalEnergyMatchesSequential)
{
    ThreadPool pool(4);
    const auto rows = rsu::runtime::parallelRowRunner(pool);
    for (const int height : {1, 3, 1024}) {
        Problem p(7, height, 5, 11 + height);
        GridMrf mrf(p.config, p.model);
        rsu::rng::Xoshiro256 rng(height);
        mrf.randomizeLabels(rng);
        EXPECT_EQ(mrf.totalEnergy(rows), mrf.totalEnergy())
            << "height " << height;
    }
}

TEST(FastSweepTest, AnnealingWithRowRunnerIsIdentical)
{
    Problem p(31, 24, 5, 9);
    rsu::mrf::AnnealingSchedule schedule;
    schedule.start_temperature = 12.0;
    schedule.stop_temperature = 2.0;
    schedule.cooling_factor = 0.6;
    schedule.sweeps_per_stage = 2;

    ThreadPool pool(4);
    const auto run = [&](const rsu::core::RowParallelFor &rows) {
        GridMrf mrf(p.config, p.model);
        mrf.initializeMaximumLikelihood();
        GibbsSampler sampler(mrf, 23, Schedule::Checkerboard,
                             SweepPath::Table);
        const int64_t best = rsu::mrf::anneal(
            mrf, schedule,
            [&](double t) { sampler.setTemperature(t); },
            [&] { sampler.sweep(); }, rows);
        return std::make_pair(best, mrf.labels());
    };
    EXPECT_EQ(run({}), run(rsu::runtime::parallelRowRunner(pool)));
}

} // namespace
