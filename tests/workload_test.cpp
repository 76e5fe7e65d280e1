/**
 * @file
 * Workload-layer tests: the InferenceProblem factories, the
 * registry, and the engine-vs-direct contract.
 *
 * The load-bearing guarantee: for every workload factory, an engine
 * submission at one shard on the Table path is bit-identical to
 * solveDirect()'s sequential sampler — the cross-check behind the
 * examples' --reference flag. On top of that: problems own their
 * models (jobs outlive their problems), repeat multi-shard
 * submissions hit the engine's table cache, and every factory's
 * quality metric carries the right name, direction, and range.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/inference_engine.h"
#include "workload/factories.h"
#include "workload/problem.h"
#include "workload/registry.h"

namespace {

using rsu::mrf::Label;
using rsu::runtime::InferenceEngine;
using rsu::workload::InferenceProblem;
using rsu::workload::SceneOptions;
using rsu::workload::SubmitOptions;
using rsu::workload::WorkloadRegistry;

/** Small instances so every test runs in milliseconds. */
SceneOptions
smallScene()
{
    SceneOptions scene;
    scene.width = 32;
    scene.height = 24;
    return scene;
}

SubmitOptions
shortRun(int shards = 1)
{
    SubmitOptions options;
    options.sweeps = 6;
    options.seed = 5;
    options.shards = shards;
    return options;
}

TEST(WorkloadRegistry, BuiltinNamesAndDescriptions)
{
    const auto &registry = WorkloadRegistry::builtin();
    const std::vector<std::string> expected = {
        "segmentation", "motion", "stereo", "denoise", "synthetic"};
    EXPECT_EQ(registry.names(), expected);
    for (const auto &name : expected) {
        EXPECT_TRUE(registry.contains(name));
        EXPECT_FALSE(registry.description(name).empty());
    }
    EXPECT_FALSE(registry.contains("no-such-workload"));
    EXPECT_THROW(registry.make("no-such-workload"),
                 std::out_of_range);
    EXPECT_THROW(registry.description("no-such-workload"),
                 std::out_of_range);
}

TEST(WorkloadProblem, FactoriesProduceSelfContainedProblems)
{
    const auto &registry = WorkloadRegistry::builtin();
    for (const auto &name : registry.names()) {
        const auto problem = registry.make(name, smallScene());
        EXPECT_EQ(problem.workload, name);
        EXPECT_FALSE(problem.description.empty());
        ASSERT_TRUE(problem.singleton) << name;
        EXPECT_EQ(problem.config.width, 32) << name;
        EXPECT_EQ(problem.config.height, 24) << name;
        // The default schedule must start where the config runs and
        // pass the guard in AnnealingSchedule::temperatures().
        EXPECT_DOUBLE_EQ(
            problem.default_annealing.start_temperature,
            problem.config.temperature);
        EXPECT_FALSE(
            problem.default_annealing.temperatures().empty());
        if (!problem.ground_truth.empty()) {
            EXPECT_EQ(static_cast<int>(problem.ground_truth.size()),
                      32 * 24)
                << name;
        }
    }
}

TEST(WorkloadProblem, MakeJobRequiresAModel)
{
    const InferenceProblem empty;
    EXPECT_THROW(makeJob(empty), std::invalid_argument);
    EXPECT_THROW(solveDirect(empty), std::invalid_argument);
}

// The contract behind the examples' --reference flag: at one shard
// on the Table (and Reference) path, the engine's result is
// bit-identical to the directly constructed sequential sampler —
// for every registered workload.
TEST(WorkloadEngineContract, TablePathMatchesDirectPerWorkload)
{
    InferenceEngine engine;
    const auto &registry = WorkloadRegistry::builtin();
    for (const auto &name : registry.names()) {
        const auto problem = registry.make(name, smallScene());
        const auto options = shortRun(1);
        const auto direct = solveDirect(problem, options);
        const auto result =
            engine.submit(makeJob(problem, options)).get();
        EXPECT_EQ(result.labels, direct) << name;
        EXPECT_EQ(result.shards, 1) << name;
        // The chain must have moved, or the identity above would
        // hold for any sampler that leaves the ML start untouched.
        rsu::mrf::GridMrf start(problem.config, *problem.singleton);
        start.initializeMaximumLikelihood();
        EXPECT_NE(result.labels, start.labels()) << name;
    }
}

TEST(WorkloadEngineContract, ReferencePathMatchesDirect)
{
    InferenceEngine engine;
    const auto problem =
        rsu::workload::makeStereo(smallScene());
    auto options = shortRun(1);
    options.sweep_path = rsu::mrf::SweepPath::Reference;
    const auto direct = solveDirect(problem, options);
    const auto result =
        engine.submit(makeJob(problem, options)).get();
    EXPECT_EQ(result.labels, direct);
}

TEST(WorkloadEngineContract, AnnealedRunMatchesDirect)
{
    InferenceEngine engine;
    const auto problem =
        rsu::workload::makeSegmentation(smallScene());
    auto options = shortRun(1);
    options.anneal = true;
    const auto direct = solveDirect(problem, options);
    const auto result =
        engine.submit(makeJob(problem, options)).get();
    EXPECT_EQ(result.labels, direct);
    // Annealed jobs report the best labelling's energy.
    EXPECT_LE(result.final_energy, result.initial_energy);
}

// The default segmentation scene barely leaves its ML start, so an
// identity on it shows little. At noise sigma 12 the chain moves:
// each case first asserts that a quarter of the sites left the start
// (about 43% do), then that the engine reproduces solveDirect()
// label for label.
TEST(WorkloadEngineContract, MovingSegmentationMatchesDirect)
{
    auto scene = smallScene();
    scene.noise_sigma = 12.0;
    const auto problem = rsu::workload::makeSegmentation(scene);
    rsu::mrf::GridMrf start(problem.config, *problem.singleton);
    start.initializeMaximumLikelihood();

    using rsu::mrf::SweepPath;
    struct Case
    {
        const char *name;
        SweepPath path;
        bool anneal;
    };
    InferenceEngine engine;
    for (const Case c : {Case{"Reference", SweepPath::Reference, false},
                         Case{"Table", SweepPath::Table, false},
                         Case{"Table annealed", SweepPath::Table, true}}) {
        auto options = shortRun(1);
        options.sweep_path = c.path;
        options.anneal = c.anneal;
        const auto direct = solveDirect(problem, options);
        int moved = 0;
        for (std::size_t i = 0; i < direct.size(); ++i)
            moved += direct[i] != start.labels()[i];
        ASSERT_GT(moved, static_cast<int>(direct.size()) / 4)
            << c.name;
        const auto result =
            engine.submit(makeJob(problem, options)).get();
        EXPECT_EQ(result.labels, direct) << c.name;
    }
}

TEST(WorkloadEngineContract, RepeatSubmissionHitsTableCache)
{
    InferenceEngine engine;
    const auto problem =
        rsu::workload::makeDenoise(smallScene());
    const auto options = shortRun(4);
    const auto first =
        engine.submit(makeJob(problem, options)).get();
    const auto second =
        engine.submit(makeJob(problem, options)).get();
    EXPECT_FALSE(first.table_cache_hit);
    EXPECT_TRUE(second.table_cache_hit);
    // Same (seed, shards) -> same chain, cached tables or not.
    EXPECT_EQ(first.labels, second.labels);
    const auto stats = engine.tableCacheStats();
    EXPECT_GE(stats.hits, 1u);
    EXPECT_GE(stats.misses, 1u);
    EXPECT_GE(stats.entries, 1);
}

TEST(EngineTableCache, HitAndMissJobsReportTheMlStartEnergy)
{
    // The cache keeps each model's ML start energy beside its
    // tables: a hit must report what a miss scanned, and both what
    // the start labelling's energy actually is.
    rsu::runtime::EngineOptions engine_options;
    engine_options.max_concurrent_jobs = 1; // serialize: hit is sure
    InferenceEngine engine(engine_options);
    const auto &registry = WorkloadRegistry::builtin();
    for (const auto &name : registry.names()) {
        const auto problem = registry.make(name, smallScene());
        const auto job = makeJob(problem, shortRun(2));
        const auto miss = engine.submit(job).get();
        const auto hit = engine.submit(job).get();
        ASSERT_FALSE(miss.table_cache_hit) << name;
        ASSERT_TRUE(hit.table_cache_hit) << name;
        rsu::mrf::GridMrf start(problem.config, *problem.singleton);
        start.initializeMaximumLikelihood();
        EXPECT_EQ(miss.initial_energy, start.totalEnergy()) << name;
        EXPECT_EQ(hit.initial_energy, start.totalEnergy()) << name;
        EXPECT_EQ(hit.labels, miss.labels) << name;
    }
}

TEST(WorkloadQuality, MetricsCarryNameDirectionAndRange)
{
    InferenceEngine engine;
    const auto &registry = WorkloadRegistry::builtin();
    for (const auto &name : registry.names()) {
        const auto problem = registry.make(name, smallScene());
        const auto result =
            engine.submit(makeJob(problem, shortRun(1))).get();
        if (name == "synthetic") {
            EXPECT_FALSE(problem.quality);
            EXPECT_FALSE(result.quality.has_value());
            continue;
        }
        ASSERT_TRUE(problem.quality) << name;
        ASSERT_TRUE(result.quality.has_value()) << name;
        if (name == "motion") {
            EXPECT_EQ(problem.quality.name, "epe_px");
            EXPECT_FALSE(problem.quality.higher_is_better);
            EXPECT_GE(*result.quality, 0.0);
            // The ground truth itself has zero endpoint error.
            EXPECT_DOUBLE_EQ(
                problem.quality.evaluate(problem.ground_truth),
                0.0);
        } else if (name == "denoise") {
            EXPECT_EQ(problem.quality.name, "psnr_db");
            EXPECT_TRUE(problem.quality.higher_is_better);
            EXPECT_GT(*result.quality, 0.0);
        } else {
            EXPECT_EQ(problem.quality.name, "accuracy");
            EXPECT_TRUE(problem.quality.higher_is_better);
            EXPECT_GE(*result.quality, 0.0);
            EXPECT_LE(*result.quality, 1.0);
            EXPECT_DOUBLE_EQ(
                problem.quality.evaluate(problem.ground_truth),
                1.0);
        }
    }
}

// Ownership: a job made from a problem keeps the model (and the
// quality closure's captures) alive after the problem is gone —
// the raw "must outlive the future" contract is dead.
TEST(WorkloadOwnership, JobOutlivesItsProblem)
{
    rsu::runtime::InferenceJob job;
    std::vector<Label> direct;
    {
        const auto problem =
            rsu::workload::makeMotion(smallScene());
        const auto options = shortRun(1);
        direct = solveDirect(problem, options);
        job = makeJob(problem, options);
    } // problem destroyed; the job owns everything it needs
    InferenceEngine engine;
    const auto result = engine.submit(std::move(job)).get();
    EXPECT_EQ(result.labels, direct);
    ASSERT_TRUE(result.quality.has_value());
}

TEST(WorkloadFactories, ImageOverloadServesRealDataWithoutTruth)
{
    const auto synthetic =
        rsu::workload::makeSegmentation(smallScene());
    SceneOptions scene = smallScene();
    scene.labels = 4;
    const auto problem = rsu::workload::makeSegmentation(
        synthetic.observation, scene);
    ASSERT_TRUE(problem.singleton);
    EXPECT_TRUE(problem.ground_truth.empty());
    EXPECT_FALSE(problem.quality);
    EXPECT_EQ(problem.config.num_labels, 4);

    InferenceEngine engine;
    const auto options = shortRun(1);
    const auto result =
        engine.submit(makeJob(problem, options)).get();
    EXPECT_EQ(result.labels, solveDirect(problem, options));
    EXPECT_FALSE(result.quality.has_value());
    // The render hook paints class means back into an image.
    const auto rendered = problem.render(result.labels);
    EXPECT_EQ(rendered.width(), 32);
    EXPECT_EQ(rendered.height(), 24);
}

/** 64-bit FNV-1a over the bytes of each value added. */
class Fnv1a
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        unsigned char bytes[sizeof value];
        std::memcpy(bytes, &value, sizeof value);
        for (const unsigned char b : bytes)
            hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }

    template <typename T>
    void
    addAll(const std::vector<T> &values)
    {
        add(values.size());
        for (const T &v : values)
            add(v);
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Hash of everything a factory puts in @p problem: config and label
 * codes, every site's data1 and candidate data2, ground truth,
 * observation, the render of the ML labelling, and the quality of
 * the ground truth (by bit pattern: denoise's PSNR against its own
 * truth is infinite). */
uint64_t
contentHash(const InferenceProblem &problem)
{
    Fnv1a h;
    for (const char c : problem.workload + '|' + problem.description)
        h.add(c);
    const auto &config = problem.config;
    h.add(config.width);
    h.add(config.height);
    h.add(config.num_labels);
    h.add(config.temperature);
    h.add(config.energy.mode);
    h.add(config.energy.doubleton_weight);
    h.add(config.energy.doubleton_cap);
    h.add(config.energy.singleton_shift);
    h.addAll(config.label_codes);
    const auto &schedule = problem.default_annealing;
    h.add(schedule.start_temperature);
    h.add(schedule.stop_temperature);
    h.add(schedule.cooling_factor);
    h.add(schedule.sweeps_per_stage);

    rsu::mrf::GridMrf mrf(config, *problem.singleton);
    h.addAll(mrf.labelCodes());
    for (int y = 0; y < config.height; ++y) {
        for (int x = 0; x < config.width; ++x) {
            h.add(problem.singleton->data1(x, y));
            for (const Label code : mrf.labelCodes())
                h.add(problem.singleton->data2(x, y, code));
        }
    }
    h.addAll(problem.ground_truth);
    h.add(problem.observation.width());
    h.add(problem.observation.height());
    h.addAll(problem.observation.pixels());

    mrf.initializeMaximumLikelihood();
    h.add(static_cast<bool>(problem.render));
    if (problem.render) {
        // Held in a local: iterating a temporary's pixels() would
        // read a destroyed image.
        const rsu::vision::Image rendered = problem.render(mrf.labels());
        h.add(rendered.width());
        h.add(rendered.height());
        h.addAll(rendered.pixels());
    }
    h.add(static_cast<bool>(problem.quality));
    if (problem.quality && !problem.ground_truth.empty()) {
        for (const char c : problem.quality.name)
            h.add(c);
        h.add(problem.quality.higher_is_better);
        h.add(problem.quality.evaluate(problem.ground_truth));
    }
    return h.value();
}

// Pins what every factory builds, byte for byte: each builtin at two
// non-default sizes plus the image-input segmentation overload. The
// hashes were recorded from the factories before they were folded
// onto one shared assembly, so a refactor that changes any content
// fails here.
TEST(WorkloadFactories, ContentMatchesRecordedHashes)
{
    struct Expected
    {
        const char *name;
        int width, height;
        uint64_t hash;
    };
    const Expected expected[] = {
        {"segmentation", 24, 19, 0xe51d78beeda41895ULL},
        {"segmentation", 33, 28, 0xc727de39218c37cfULL},
        {"motion", 24, 19, 0xfca678df7dc7342aULL},
        {"motion", 33, 28, 0x5e7455ed7f17c2e3ULL},
        {"stereo", 24, 19, 0x8e39f7e81fb88a43ULL},
        {"stereo", 33, 28, 0xe7a4325b43665675ULL},
        {"denoise", 24, 19, 0x823604d1d1811b99ULL},
        {"denoise", 33, 28, 0x36db6f711a29ebd5ULL},
        {"synthetic", 24, 19, 0x547c76369f0cfb90ULL},
        {"synthetic", 33, 28, 0x98b5c68cb9f56977ULL},
        {"image", 24, 19, 0xeeae289138d4545fULL},
    };
    const auto &registry = WorkloadRegistry::builtin();
    for (const auto &e : expected) {
        SceneOptions scene;
        scene.width = e.width;
        scene.height = e.height;
        scene.seed = 77;
        InferenceProblem problem;
        if (std::string(e.name) == "image") {
            const auto source = rsu::workload::makeSegmentation(scene);
            scene.labels = 4;
            problem = rsu::workload::makeSegmentation(source.observation,
                                                      scene);
        } else {
            problem = registry.make(e.name, scene);
        }
        const uint64_t hash = contentHash(problem);
        char got[32];
        std::snprintf(got, sizeof got, "0x%016llxULL",
                      static_cast<unsigned long long>(hash));
        EXPECT_EQ(hash, e.hash)
            << e.name << ' ' << e.width << 'x' << e.height << ": "
            << got;
    }
}

} // namespace
