/**
 * @file
 * Simd sweep path tests.
 *
 * The Simd path's contract differs from the Table path's: it is NOT
 * bit-identical to the reference sampler (weights are Q32-quantized)
 * but it IS self-deterministic — the AVX2 and scalar kernels must
 * produce *identical* label fields for the same (seed,
 * schedule, shard count). These tests enforce that lane-equivalence
 * contract across the sequential and chromatic drivers, pin the
 * draw itself against an independent replay of one sweep, check
 * each new table/kernel building block against its definition,
 * establish
 * statistical correctness of the fixed-point draw with chi-square
 * tests against the exact conditional distribution, and cover the
 * engine's cross-job SweepTableSet cache.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/simd.h"
#include "core/tables.h"
#include "core/types.h"
#include "mrf/fast_sweep.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "mrf/schedule.h"
#include "mrf/simd_kernels.h"
#include "rng/block.h"
#include "rng/streams.h"
#include "rng/xoshiro256.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/inference_engine.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "vision/segmentation.h"
#include "vision/synthetic.h"

namespace {

using rsu::core::FixedExpTable;
using rsu::core::Label;
using rsu::core::LabelMode;
using rsu::core::SimdIsa;
using rsu::mrf::GibbsSampler;
using rsu::mrf::GridMrf;
using rsu::mrf::MrfConfig;
using rsu::mrf::Schedule;
using rsu::mrf::SweepPath;
using rsu::mrf::SweepTableSet;
using rsu::runtime::ChromaticGibbsSampler;
using rsu::runtime::InferenceEngine;
using rsu::runtime::InferenceJob;
using rsu::runtime::ParallelSweepExecutor;
using rsu::runtime::SamplerKind;
using rsu::runtime::ThreadPool;

/** A small segmentation problem with deterministic content. */
struct Problem
{
    rsu::vision::SegmentationScene scene;
    rsu::vision::SegmentationModel model;
    MrfConfig config;

    /** @p noise is the scene's pixel noise sigma: at the default
     * temperature a low-noise scene barely leaves its ML start. */
    Problem(int width, int height, int labels, uint64_t seed,
            double noise = 3.0)
        : scene(makeScene(width, height, labels, seed, noise)),
          model(scene.image, scene.region_means),
          config(rsu::vision::segmentationConfig(scene.image, labels))
    {
    }

    static rsu::vision::SegmentationScene
    makeScene(int width, int height, int labels, uint64_t seed,
              double noise)
    {
        rsu::rng::Xoshiro256 rng(seed);
        return rsu::vision::makeSegmentationScene(width, height,
                                                  labels, noise, rng);
    }

    /** Non-owning view for job submission; the Problem outlives
     * every future in these tests. */
    std::shared_ptr<const rsu::mrf::SingletonModel>
    modelPtr() const
    {
        return {std::shared_ptr<const void>(), &model};
    }
};

/** Labels after @p sweeps sequential Simd sweeps on @p isa. */
std::vector<Label>
runSimdSequential(const Problem &p, uint64_t seed,
                  Schedule schedule, SimdIsa isa, int sweeps)
{
    GridMrf mrf(p.config, p.model);
    mrf.initializeMaximumLikelihood();
    GibbsSampler sampler(mrf, seed, schedule, SweepPath::Simd);
    sampler.setSimdIsa(isa);
    sampler.run(sweeps);
    return mrf.labels();
}

/** Labels after @p sweeps chromatic Simd sweeps on @p isa. */
std::vector<Label>
runSimdChromatic(const Problem &p, uint64_t seed, int shards,
                 int pool_threads, SimdIsa isa, int sweeps)
{
    GridMrf mrf(p.config, p.model);
    mrf.initializeMaximumLikelihood();
    ThreadPool pool(pool_threads);
    ParallelSweepExecutor executor(pool, shards);
    ChromaticGibbsSampler sampler(mrf, executor, seed,
                                  SamplerKind::SoftwareGibbs, {},
                                  SweepPath::Simd);
    sampler.setSimdIsa(isa);
    sampler.run(sweeps);
    return mrf.labels();
}

/**
 * One sequential checkerboard Simd sweep of @p start, written out
 * from the path's definition rather than through the sweep core: per
 * site, the clamped sum of the singleton row and the in-lattice
 * neighbours' doubleton rows, renormalized by the site minimum,
 * looked up in the Q32 table and drawn with selectCandidateFixed
 * from GibbsSampler's one stream for @p seed, buffered.
 */
std::vector<Label>
replaySimdCheckerboardSweep(const GridMrf &start, uint64_t seed)
{
    const SweepTableSet set(start);
    FixedExpTable fixed;
    fixed.rebuild(start.temperature());
    rsu::rng::Xoshiro256 rng = rsu::rng::splitStreams(seed, 1)[0];
    rsu::rng::BlockRng block;
    std::vector<Label> labels = start.labels();
    const int w = set.width();
    const int h = set.height();
    const int m = set.numLabels();
    std::vector<int> energies(m);
    std::vector<uint32_t> weights(m);
    for (int parity = 0; parity < 2; ++parity)
        for (int y = 0; y < h; ++y)
            for (int x = (parity ^ y) & 1; x < w; x += 2) {
                const int site = y * w + x;
                std::vector<int> neighbours;
                if (y > 0)
                    neighbours.push_back(site - w);
                if (y + 1 < h)
                    neighbours.push_back(site + w);
                if (x > 0)
                    neighbours.push_back(site - 1);
                if (x + 1 < w)
                    neighbours.push_back(site + 1);
                const uint8_t *s = set.singleton().row(site);
                int emin = rsu::core::kEnergyMax;
                for (int i = 0; i < m; ++i) {
                    int e = s[i];
                    for (const int n : neighbours)
                        e += set.doubleton().row(labels[n])[i];
                    energies[i] = std::min(e, rsu::core::kEnergyMax);
                    emin = std::min(emin, energies[i]);
                }
                for (int i = 0; i < m; ++i)
                    weights[i] = fixed.at(energies[i] - emin);
                const int choice = rsu::mrf::detail::selectCandidateFixed(
                    block.next(rng), weights.data(), m);
                labels[site] = set.codes()[choice];
            }
    return labels;
}

/** Pearson statistic of @p counts against @p probs * @p n. */
double
chiSquareStat(const std::vector<int> &counts,
              const std::vector<double> &probs, int n)
{
    double stat = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        const double expected = probs[i] * n;
        if (expected < 1e-9) {
            EXPECT_EQ(counts[i], 0) << "impossible candidate drawn";
            continue;
        }
        const double d = counts[i] - expected;
        stat += d * d / expected;
    }
    return stat;
}

/** Wilson-Hilferty upper critical value; z = 3.0902 is the
 * standard-normal quantile for alpha = 1e-3. The draws are seeded,
 * so a pass is reproducible, not probabilistic. */
double
chiSquareCritical(int df, double z = 3.0902)
{
    const double a = 2.0 / (9.0 * df);
    const double c = 1.0 - a + z * std::sqrt(a);
    return df * c * c * c;
}

TEST(SimdIsaTest, ActiveIsaFollowsCpuid)
{
    EXPECT_STREQ(rsu::core::simdIsaName(SimdIsa::Scalar), "scalar");
    EXPECT_STREQ(rsu::core::simdIsaName(SimdIsa::Avx2), "avx2");
    const SimdIsa active = rsu::core::activeSimdIsa();
#if (defined(__x86_64__) || defined(__i386__)) &&                   \
    (defined(__GNUC__) || defined(__clang__))
    EXPECT_EQ(active == SimdIsa::Avx2,
              __builtin_cpu_supports("avx2") != 0);
#else
    EXPECT_EQ(active, SimdIsa::Scalar);
#endif
}

TEST(BlockRngTest, BufferedSequenceIdenticalToDirect)
{
    for (const int capacity : {1, 7, 256}) {
        rsu::rng::Xoshiro256 direct(91), buffered(91);
        rsu::rng::BlockRng block(capacity);
        for (int i = 0; i < 600; ++i)
            ASSERT_EQ(block.next(buffered), direct())
                << "capacity=" << capacity << " i=" << i;
    }
}

TEST(BlockRngTest, BulkDrawsIdenticalToSingleDraws)
{
    // The site-parallel kernel takes its 8 variates in one call,
    // straddling refills whenever the buffer holds fewer than 8.
    for (const int capacity : {1, 7, 8, 256}) {
        rsu::rng::Xoshiro256 direct(93), buffered(93);
        rsu::rng::BlockRng block(capacity);
        uint64_t out[8];
        for (int i = 0; i < 300; ++i) {
            const int n = 1 + i % 8;
            block.next(buffered, out, n);
            for (int k = 0; k < n; ++k)
                ASSERT_EQ(out[k], direct())
                    << "capacity=" << capacity << " i=" << i;
        }
    }
    rsu::rng::Xoshiro256 direct(95), filled(95);
    std::vector<uint64_t> values(37);
    filled.fill(values.data(), values.size());
    for (const uint64_t v : values)
        ASSERT_EQ(v, direct());
    EXPECT_EQ(filled(), direct()); // the state advanced alike
}

TEST(FixedExpTableTest, QuantizesExpWithUnitFloor)
{
    FixedExpTable table;
    for (const double t : {16.0, 8.0, 2.5, 0.7}) {
        table.rebuild(t);
        // exp(0) = 1 maps to the full scale.
        EXPECT_EQ(table.at(0), 4294967295u);
        for (int e = 0; e <= rsu::core::kEnergyMax; ++e) {
            const long long q = std::llround(
                std::exp(-static_cast<double>(e) / t) *
                FixedExpTable::kScale);
            const uint32_t expected =
                static_cast<uint32_t>(q < 1 ? 1 : q);
            ASSERT_EQ(table.at(e), expected) << "e=" << e;
            ASSERT_GE(table.at(e), 1u); // nonzero-probability floor
        }
        // Monotone non-increasing in energy.
        for (int e = 1; e <= rsu::core::kEnergyMax; ++e)
            ASSERT_LE(table.at(e), table.at(e - 1));
    }
    EXPECT_THROW(table.rebuild(0.0), std::invalid_argument);
}

TEST(PaddedSingletonTest, PadLanesSaturateAndParallelBuildMatches)
{
    Problem p(23, 17, 5, 11);
    GridMrf mrf(p.config, p.model);
    const int padded = 8; // 5 labels padded to one 8-lane block

    const auto sequential = mrf.buildSingletonTable(padded, {});
    EXPECT_EQ(sequential.numLabels(), 5);
    EXPECT_EQ(sequential.paddedLabels(), padded);

    ThreadPool pool(3);
    const auto parallel = mrf.buildSingletonTable(
        padded, rsu::runtime::parallelRowRunner(pool));

    const auto unpadded = mrf.buildSingletonTable();
    for (int site = 0; site < mrf.size(); ++site) {
        for (int i = 0; i < 5; ++i) {
            ASSERT_EQ(sequential.at(site, i), unpadded.at(site, i));
            ASSERT_EQ(parallel.at(site, i), unpadded.at(site, i));
        }
        for (int i = 5; i < padded; ++i) {
            // Pad energies saturate so the shared clamp keeps them
            // at the bottom of the weight table.
            ASSERT_EQ(sequential.at(site, i), rsu::core::kEnergyMax);
            ASSERT_EQ(parallel.at(site, i), rsu::core::kEnergyMax);
        }
        ASSERT_EQ(sequential.argminRow(site),
                  parallel.argminRow(site));
    }
}

TEST(SimdLaneEquivalence, SequentialAcrossSeedsAndSchedules)
{
    const SimdIsa widest = rsu::core::activeSimdIsa();
    Problem p(29, 22, 6, 17);
    for (const uint64_t seed : {1ull, 7ull, 42ull}) {
        for (const Schedule schedule :
             {Schedule::Raster, Schedule::Checkerboard}) {
            const auto scalar = runSimdSequential(
                p, seed, schedule, SimdIsa::Scalar, 5);
            const auto vector =
                runSimdSequential(p, seed, schedule, widest, 5);
            ASSERT_EQ(scalar, vector)
                << "seed=" << seed << " widest="
                << rsu::core::simdIsaName(widest);
        }
    }
}

TEST(SimdLaneEquivalence, ChromaticAcrossShardCounts)
{
    const SimdIsa widest = rsu::core::activeSimdIsa();
    Problem p(37, 26, 5, 29);
    for (const int shards : {1, 2, 4, 8}) {
        const auto scalar = runSimdChromatic(
            p, 99, shards, 2, SimdIsa::Scalar, 3);
        // Pool size must not matter either.
        const auto vector =
            runSimdChromatic(p, 99, shards, 3, widest, 3);
        ASSERT_EQ(scalar, vector) << "shards=" << shards;
    }
}

TEST(SimdLaneEquivalence, OneShardChromaticMatchesSequential)
{
    Problem p(23, 18, 4, 47);
    const SimdIsa widest = rsu::core::activeSimdIsa();
    const auto sequential = runSimdSequential(
        p, 5, Schedule::Checkerboard, widest, 4);
    const auto chromatic =
        runSimdChromatic(p, 5, 1, 2, widest, 4);
    EXPECT_EQ(sequential, chromatic);
}

TEST(SimdLaneEquivalence, UnderAnnealingRamp)
{
    const SimdIsa widest = rsu::core::activeSimdIsa();
    Problem p(21, 16, 4, 13);

    GridMrf a_mrf(p.config, p.model);
    a_mrf.initializeMaximumLikelihood();
    GibbsSampler a(a_mrf, 31, Schedule::Checkerboard,
                   SweepPath::Simd);
    a.setSimdIsa(SimdIsa::Scalar);

    GridMrf b_mrf(p.config, p.model);
    b_mrf.initializeMaximumLikelihood();
    GibbsSampler b(b_mrf, 31, Schedule::Checkerboard,
                   SweepPath::Simd);
    b.setSimdIsa(widest);

    double t = p.config.temperature;
    for (int stage = 0; stage < 5; ++stage) {
        a.setTemperature(t);
        b.setTemperature(t);
        a.run(2);
        b.run(2);
        ASSERT_EQ(a_mrf.labels(), b_mrf.labels())
            << "stage=" << stage << " t=" << t;
        // The fixed-point table must have followed the ramp.
        FixedExpTable expected;
        expected.rebuild(t);
        for (int e = 0; e <= rsu::core::kEnergyMax; ++e)
            ASSERT_EQ(a.core().fixedExpTable().at(e),
                      expected.at(e))
                << "stage=" << stage << " e=" << e;
        t *= 0.6;
    }
}

TEST(SimdEdgeCases, PaddedLabelCounts)
{
    // M = 2 (six pad lanes) and M = 8 (no pad lanes): both must
    // sweep correctly and stay lane-equivalent.
    const SimdIsa widest = rsu::core::activeSimdIsa();
    for (const int labels : {2, 8}) {
        Problem p(19, 14, labels, 53);
        GridMrf probe(p.config, p.model);
        SweepTableSet tables(probe);
        EXPECT_EQ(tables.paddedLabels(), 8);

        const auto scalar = runSimdSequential(
            p, 23, Schedule::Checkerboard, SimdIsa::Scalar, 5);
        const auto vector = runSimdSequential(
            p, 23, Schedule::Checkerboard, widest, 5);
        ASSERT_EQ(scalar, vector) << "labels=" << labels;
        // Pad lanes must never be selected: every drawn label is a
        // valid candidate code.
        for (const Label l : vector)
            ASSERT_GE(probe.indexOfCode(l), 0);
    }
}

TEST(SimdEdgeCases, VectorModeLargeM)
{
    // Vector-mode codes at large M: M = 9 and 17 leave a partial
    // final 8-lane block, 16 and 17 straddle the AVX2 kernel's
    // switch from register-resident to the generic block loop, and
    // 64 fills every code with no pad lanes. The motion-style 7x7
    // window (49 non-contiguous codes, padded to 56) rounds it off.
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

    std::vector<std::vector<Label>> code_sets;
    for (const int m : {9, 16, 17, 49, 64}) {
        std::vector<Label> codes;
        for (int i = 0; i < m; ++i)
            codes.push_back(rsu::core::packVectorLabel(i % 8, i / 8));
        code_sets.push_back(codes);
    }
    code_sets.emplace_back();
    for (int dy = 0; dy < 7; ++dy)
        for (int dx = 0; dx < 7; ++dx)
            code_sets.back().push_back(
                rsu::core::packVectorLabel(dx, dy));

    const WarpModel model;
    const SimdIsa widest = rsu::core::activeSimdIsa();
    for (const auto &codes : code_sets) {
        const int m = static_cast<int>(codes.size());
        MrfConfig config;
        config.width = 15;
        config.height = 11;
        config.num_labels = m;
        config.label_codes = codes;
        config.energy.mode = LabelMode::Vector;
        config.energy.doubleton_weight = 4;
        config.energy.doubleton_cap = 5;
        config.temperature = 6.0;

        GridMrf probe(config, model);
        SweepTableSet tables(probe);
        EXPECT_EQ(tables.paddedLabels(), (m + 7) / 8 * 8);

        const auto run = [&](SweepPath path, SimdIsa isa) {
            GridMrf mrf(config, model);
            mrf.initializeMaximumLikelihood();
            GibbsSampler sampler(mrf, 19, Schedule::Checkerboard,
                                 path);
            sampler.setSimdIsa(isa);
            sampler.run(5);
            return mrf.labels();
        };
        const auto scalar = run(SweepPath::Simd, SimdIsa::Scalar);
        EXPECT_EQ(scalar, run(SweepPath::Simd, widest)) << "M=" << m;
        EXPECT_EQ(run(SweepPath::Table, widest),
                  run(SweepPath::Reference, widest))
            << "M=" << m;
        for (const Label l : scalar)
            ASSERT_GE(probe.indexOfCode(l), 0) << "M=" << m;
    }
}

TEST(SimdEdgeCases, DegenerateLattices)
{
    // 1xN / Nx1 / tiny lattices: every site is a border site.
    // The w x h grid adds every shape from no interior site up to a
    // 7x5 interior, each also at 4x the temperature.
    const SimdIsa widest = rsu::core::activeSimdIsa();
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
                const auto scalar = runSimdSequential(
                    p, 3, schedule, SimdIsa::Scalar, 6);
                const auto vector =
                    runSimdSequential(p, 3, schedule, widest, 6);
                ASSERT_EQ(scalar, vector)
                    << w << "x" << h << " T=" << t;
            }
        }
    }
}

TEST(SimdOracle, CheckerboardSweepMatchesIndependentReplay)
{
    // Scalar == AVX2 only shows the two kernels agree; this pins what
    // they draw. The thin lattices are all border sites, 15x11 mixes
    // both kinds, and the warmer temperature makes most draws
    // genuinely random.
    const SimdIsa widest = rsu::core::activeSimdIsa();
    const std::pair<int, int> dims[] = {
        {1, 24}, {24, 1}, {2, 15}, {15, 11}};
    for (const auto &[w, h] : dims)
        for (const int labels : {2, 5, 8}) {
            Problem p(w, h, labels, 71);
            const double cold = p.config.temperature;
            for (const double t : {cold, 4.0 * cold}) {
                p.config.temperature = t;
                GridMrf start(p.config, p.model);
                start.initializeMaximumLikelihood();
                const auto expected =
                    replaySimdCheckerboardSweep(start, 29);
                for (const SimdIsa isa : {SimdIsa::Scalar, widest}) {
                    GridMrf mrf(p.config, p.model);
                    mrf.initializeMaximumLikelihood();
                    GibbsSampler sampler(mrf, 29,
                                         Schedule::Checkerboard,
                                         SweepPath::Simd);
                    sampler.setSimdIsa(isa);
                    sampler.sweep();
                    ASSERT_EQ(mrf.labels(), expected)
                        << w << "x" << h << " M=" << labels
                        << " T=" << t << " isa="
                        << rsu::core::simdIsaName(isa);
                }
            }
        }
}

/** The ML start of @p p, the labelling every run here begins from. */
std::vector<Label>
mlStart(const Problem &p)
{
    GridMrf mrf(p.config, p.model);
    mrf.initializeMaximumLikelihood();
    return mrf.labels();
}

/**
 * Widths at M = 2 that give the site-parallel kernel (8 interior
 * same-colour sites per call) 0, 1, 2 and 4 calls per row, and
 * every per-site remainder length 0-7 after them: a run's interior
 * part covers its colour's sites in [1, width - 2], i.e.
 * (width - 1) / 2 sites from x = 1 and (width - 2) / 2 from x = 2.
 */
constexpr int kPairWidths[] = {15, 16, 17, 18, 20, 22, 28, 33, 40, 41, 67};

/** Pixel noise that leaves enough ambiguous sites for an M = 2
 * chain to move at the scene's own temperature. */
constexpr double kNoisy = 12.0;

TEST(SimdSiteParallel, SequentialAcrossWidthsAndTemperatures)
{
    const SimdIsa widest = rsu::core::activeSimdIsa();
    for (const int w : kPairWidths) {
        Problem p(w, 9, 2, 89, kNoisy);
        const double cold = p.config.temperature;
        for (const double t : {cold, 4.0 * cold}) {
            p.config.temperature = t;
            const auto start = mlStart(p);
            for (const Schedule schedule :
                 {Schedule::Checkerboard, Schedule::Raster}) {
                const auto scalar = runSimdSequential(
                    p, 13, schedule, SimdIsa::Scalar, 6);
                const auto vector =
                    runSimdSequential(p, 13, schedule, widest, 6);
                ASSERT_EQ(scalar, vector)
                    << w << "x9 T=" << t << " raster="
                    << (schedule == Schedule::Raster);
                // A chain frozen at its start would pass the
                // identity above with any kernel.
                EXPECT_NE(vector, start) << w << "x9 T=" << t;
            }
        }
    }
}

TEST(SimdSiteParallel, ChromaticAcrossWidthsShardsAndPools)
{
    const SimdIsa widest = rsu::core::activeSimdIsa();
    for (const int w : kPairWidths) {
        Problem p(w, 9, 2, 97, kNoisy);
        const double cold = p.config.temperature;
        for (const double t : {cold, 4.0 * cold}) {
            p.config.temperature = t;
            const auto start = mlStart(p);
            for (const int shards : {1, 2, 4, 8}) {
                const auto scalar = runSimdChromatic(
                    p, 41, shards, 2, SimdIsa::Scalar, 4);
                const auto vector =
                    runSimdChromatic(p, 41, shards, 3, widest, 4);
                ASSERT_EQ(scalar, vector)
                    << w << "x9 T=" << t << " shards=" << shards;
                EXPECT_NE(vector, start)
                    << w << "x9 T=" << t << " shards=" << shards;
            }
        }
    }
}

TEST(SimdOracle, SiteParallelRowsMatchIndependentReplay)
{
    // 41 wide: runs starting at x = 1 take two 8-site calls, runs
    // starting at x = 2 one call plus a 7-site per-site remainder.
    const SimdIsa widest = rsu::core::activeSimdIsa();
    Problem p(41, 9, 2, 73, kNoisy);
    const double cold = p.config.temperature;
    for (const double t : {cold, 4.0 * cold}) {
        p.config.temperature = t;
        GridMrf start(p.config, p.model);
        start.initializeMaximumLikelihood();
        const auto expected = replaySimdCheckerboardSweep(start, 31);
        EXPECT_NE(expected, start.labels()) << "T=" << t;
        for (const SimdIsa isa : {SimdIsa::Scalar, widest}) {
            GridMrf mrf(p.config, p.model);
            mrf.initializeMaximumLikelihood();
            GibbsSampler sampler(mrf, 31, Schedule::Checkerboard,
                                 SweepPath::Simd);
            sampler.setSimdIsa(isa);
            sampler.sweep();
            ASSERT_EQ(mrf.labels(), expected)
                << "T=" << t
                << " isa=" << rsu::core::simdIsaName(isa);
        }
    }
}

TEST(SimdWorkCounters, SiteParallelCountsMatchReference)
{
    // M = 2 on a lattice wide enough that most interior sites go
    // through the site-parallel kernel: it must count 8 updates per
    // call, exactly as the per-site path does.
    Problem p(67, 13, 2, 79, kNoisy);
    GridMrf ref_mrf(p.config, p.model);
    ref_mrf.initializeMaximumLikelihood();
    GibbsSampler reference(ref_mrf, 7);
    reference.run(3);

    GridMrf simd_mrf(p.config, p.model);
    simd_mrf.initializeMaximumLikelihood();
    GibbsSampler simd(simd_mrf, 7, Schedule::Checkerboard,
                      SweepPath::Simd);
    simd.run(3);
    EXPECT_NE(simd_mrf.labels(), mlStart(p));

    EXPECT_EQ(reference.work().site_updates,
              simd.work().site_updates);
    EXPECT_EQ(reference.work().energy_evals,
              simd.work().energy_evals);
    EXPECT_EQ(reference.work().exp_calls, simd.work().exp_calls);
    EXPECT_EQ(reference.work().random_draws,
              simd.work().random_draws);
}

TEST(SimdWorkCounters, LogicalCostsMatchReference)
{
    Problem p(17, 13, 5, 37);
    GridMrf ref_mrf(p.config, p.model);
    ref_mrf.initializeMaximumLikelihood();
    GibbsSampler reference(ref_mrf, 7);
    reference.run(3);

    GridMrf simd_mrf(p.config, p.model);
    simd_mrf.initializeMaximumLikelihood();
    GibbsSampler simd(simd_mrf, 7, Schedule::Checkerboard,
                      SweepPath::Simd);
    simd.run(3);

    // The Simd path replaces the arithmetic, not the workload: the
    // architecture cost models must see identical logical counts.
    EXPECT_EQ(reference.work().site_updates,
              simd.work().site_updates);
    EXPECT_EQ(reference.work().energy_evals,
              simd.work().energy_evals);
    EXPECT_EQ(reference.work().exp_calls, simd.work().exp_calls);
    EXPECT_EQ(reference.work().random_draws,
              simd.work().random_draws);
}

TEST(SimdChiSquare, ConditionalDrawsMatchExactDistribution)
{
    // Repeated single-site updates with frozen neighbours are i.i.d.
    // draws from the site's full conditional (a site's conditional
    // does not depend on its own label). Compare the empirical
    // histogram against GridMrf::conditionalDistribution — the
    // exact double-precision softmax — at alpha = 1e-3. Seeded, so
    // deterministic: this can only fail if the fixed-point draw is
    // actually biased beyond quantization noise.
    Problem p(11, 9, 5, 67);
    const int n = 60000;
    const std::pair<int, int> sites[] = {
        {5, 4},  // interior: vectorized kernel
        {0, 0},  // corner: border kernel, 2 neighbours
        {5, 0},  // edge: border kernel, 3 neighbours
    };
    for (const auto &[x, y] : sites) {
        GridMrf mrf(p.config, p.model);
        mrf.initializeMaximumLikelihood();
        const auto probs = mrf.conditionalDistribution(x, y);
        GibbsSampler sampler(mrf, 101, Schedule::Checkerboard,
                             SweepPath::Simd);
        std::vector<int> counts(mrf.numLabels(), 0);
        for (int i = 0; i < n; ++i) {
            const Label l = sampler.updateSite(x, y);
            const int idx = mrf.indexOfCode(l);
            ASSERT_GE(idx, 0);
            ++counts[idx];
        }
        const double stat = chiSquareStat(counts, probs, n);
        const double crit = chiSquareCritical(mrf.numLabels() - 1);
        EXPECT_LT(stat, crit) << "site (" << x << ", " << y << ")";
    }
}

TEST(SimdChiSquare, ScalarKernelDrawsMatchToo)
{
    // Same check through the forced-scalar kernel: lane equivalence
    // already proves scalar == vector draws, but this pins the
    // statistical contract directly on the portable code path every
    // platform runs.
    Problem p(11, 9, 4, 71);
    const int n = 60000;
    GridMrf mrf(p.config, p.model);
    mrf.initializeMaximumLikelihood();
    const auto probs = mrf.conditionalDistribution(4, 4);
    GibbsSampler sampler(mrf, 103, Schedule::Checkerboard,
                         SweepPath::Simd);
    sampler.setSimdIsa(SimdIsa::Scalar);
    std::vector<int> counts(mrf.numLabels(), 0);
    for (int i = 0; i < n; ++i)
        ++counts[mrf.indexOfCode(sampler.updateSite(4, 4))];
    EXPECT_LT(chiSquareStat(counts, probs, n),
              chiSquareCritical(mrf.numLabels() - 1));
}

TEST(SimdEnergyTrajectory, TracksTablePathWithinTolerance)
{
    // Simd is a different chain than Table (quantized weights draw
    // different variates) but samples the same stationary
    // distribution, so both must relax to statistically equal
    // energies. Deterministic seeds make the comparison exact and
    // repeatable.
    Problem p(48, 36, 6, 83);
    auto relax = [&](SweepPath path) {
        GridMrf mrf(p.config, p.model);
        mrf.initializeMaximumLikelihood();
        GibbsSampler sampler(mrf, 59, Schedule::Checkerboard, path);
        sampler.run(20); // burn-in
        double mean = 0.0;
        const int probes = 10;
        for (int i = 0; i < probes; ++i) {
            sampler.run(2);
            mean += static_cast<double>(mrf.totalEnergy());
        }
        return mean / probes;
    };
    const double table = relax(SweepPath::Table);
    const double simd = relax(SweepPath::Simd);
    EXPECT_NEAR(simd, table, 0.03 * table)
        << "table=" << table << " simd=" << simd;
}

TEST(EngineTableCache, RepeatJobsHitAndSkipRebuild)
{
    Problem p(33, 25, 5, 19);
    rsu::runtime::EngineOptions options;
    options.threads = 2;
    options.max_concurrent_jobs = 1; // serialize: hit is guaranteed
    InferenceEngine engine(options);

    InferenceJob job;
    job.config = p.config;
    job.singleton = p.modelPtr();
    job.sweeps = 3;
    job.sweep_path = SweepPath::Simd;
    job.seed = 11;
    job.shards = 2;

    const auto first = engine.submit(job).get();
    EXPECT_FALSE(first.table_cache_hit);
    EXPECT_GE(first.table_build_seconds, 0.0);

    const auto second = engine.submit(job).get();
    EXPECT_TRUE(second.table_cache_hit);
    EXPECT_EQ(second.table_build_seconds, 0.0);

    // Same model + same seed => same chain, cached tables or not.
    EXPECT_EQ(first.labels, second.labels);
    EXPECT_EQ(first.final_energy, second.final_energy);

    // Table and Simd jobs share one static set (same key).
    job.sweep_path = SweepPath::Table;
    const auto third = engine.submit(job).get();
    EXPECT_TRUE(third.table_cache_hit);

    const auto stats = engine.tableCacheStats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1);
}

TEST(EngineTableCache, MatchesDirectChromaticSampler)
{
    Problem p(27, 21, 4, 23);
    rsu::runtime::EngineOptions options;
    options.threads = 2;
    InferenceEngine engine(options);

    InferenceJob job;
    job.config = p.config;
    job.singleton = p.modelPtr();
    job.sweeps = 4;
    job.sweep_path = SweepPath::Simd;
    job.seed = 77;
    job.shards = 2;
    const auto result = engine.submit(job).get();

    const auto direct = runSimdChromatic(
        p, 77, 2, 2, rsu::core::activeSimdIsa(), 4);
    EXPECT_EQ(result.labels, direct);
}

TEST(EngineTableCache, DistinctModelsGetDistinctEntries)
{
    Problem a(21, 15, 4, 29);
    Problem b(21, 15, 4, 31); // same shape, different model object
    rsu::runtime::EngineOptions options;
    options.threads = 2;
    options.max_concurrent_jobs = 1;
    InferenceEngine engine(options);

    InferenceJob job;
    job.sweeps = 2;
    job.sweep_path = SweepPath::Table;
    job.seed = 5;
    job.shards = 1;

    job.config = a.config;
    job.singleton = a.modelPtr();
    engine.submit(job).get();
    job.config = b.config;
    job.singleton = b.modelPtr();
    engine.submit(job).get();

    const auto stats = engine.tableCacheStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 2);
}

TEST(EngineTableCache, CapacityBoundsEntriesWithLruEviction)
{
    // One more distinct model than the cache holds (a deque: the
    // models must not move once a job has seen them).
    constexpr int capacity = InferenceEngine::kTableCacheCapacity;
    std::deque<Problem> problems;
    for (int i = 0; i <= capacity; ++i)
        problems.emplace_back(19, 13, 4, 37 + i);
    rsu::runtime::EngineOptions options;
    options.threads = 2;
    options.max_concurrent_jobs = 1;
    InferenceEngine engine(options);

    InferenceJob job;
    job.sweeps = 2;
    job.sweep_path = SweepPath::Table;
    job.seed = 5;
    job.shards = 1;

    auto submit = [&](const Problem &p) {
        job.config = p.config;
        job.singleton = p.modelPtr();
        return engine.submit(job).get();
    };

    // Every first submission misses; the last one evicts problems[0].
    for (const auto &p : problems)
        EXPECT_FALSE(submit(p).table_cache_hit);
    EXPECT_FALSE(submit(problems[0]).table_cache_hit); // evicted
    EXPECT_TRUE(submit(problems[0]).table_cache_hit);  // now cached
    const auto stats = engine.tableCacheStats();
    EXPECT_EQ(stats.entries, capacity);
    EXPECT_EQ(stats.misses, static_cast<uint64_t>(capacity + 2));
    EXPECT_EQ(stats.hits, 1u);
}

TEST(EngineTableCache, ReferencePathBypassesCache)
{
    Problem p(17, 12, 3, 43);
    rsu::runtime::EngineOptions options;
    options.threads = 2;
    options.max_concurrent_jobs = 1;
    InferenceEngine engine(options);

    InferenceJob job;
    job.config = p.config;
    job.singleton = p.modelPtr();
    job.sweeps = 2;
    job.seed = 5;
    job.shards = 1;

    // Reference jobs never touch tables at all.
    job.sweep_path = SweepPath::Reference;
    const auto ref = engine.submit(job).get();
    EXPECT_FALSE(ref.table_cache_hit);
    EXPECT_EQ(ref.table_build_seconds, 0.0);

    const auto stats = engine.tableCacheStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 0);
}

} // namespace
