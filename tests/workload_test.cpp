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

#include <future>
#include <memory>
#include <stdexcept>
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

TEST(WorkloadRegistry, RejectsDuplicatesAndEmptyFactories)
{
    WorkloadRegistry registry;
    registry.add("custom", "test workload",
                 [](const SceneOptions &options) {
                     return rsu::workload::makeSynthetic(options);
                 });
    EXPECT_TRUE(registry.contains("custom"));
    EXPECT_THROW(registry.add("custom", "again",
                              [](const SceneOptions &options) {
                                  return rsu::workload::
                                      makeSynthetic(options);
                              }),
                 std::invalid_argument);
    EXPECT_THROW(registry.add("empty", "no factory", {}),
                 std::invalid_argument);
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

} // namespace
