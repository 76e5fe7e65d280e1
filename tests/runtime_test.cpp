/**
 * @file
 * Chromatic runtime tests: shard partitioning, the pool's fork-join,
 * determinism of the parallel chain (including bit-equality with the
 * sequential samplers at one shard), chromatic phase safety, and the
 * inference-engine job layer.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rsu_g.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "mrf/rsu_gibbs.h"
#include "mrf/schedule.h"
#include "rng/streams.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/inference_engine.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "vision/segmentation.h"
#include "vision/synthetic.h"

namespace {

using rsu::mrf::GridMrf;
using rsu::mrf::Label;
using rsu::runtime::ChromaticGibbsSampler;
using rsu::runtime::InferenceEngine;
using rsu::runtime::InferenceJob;
using rsu::runtime::ParallelSweepExecutor;
using rsu::runtime::SamplerKind;
using rsu::runtime::shardRows;
using rsu::runtime::ThreadPool;

/** A small segmentation problem with deterministic content. */
struct Problem
{
    rsu::vision::SegmentationScene scene;
    rsu::vision::SegmentationModel model;
    rsu::mrf::MrfConfig config;

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

    /** Non-owning view for job submission; the Problem outlives
     * every future in these tests. */
    std::shared_ptr<const rsu::mrf::SingletonModel>
    modelPtr() const
    {
        return {std::shared_ptr<const void>(), &model};
    }
};

TEST(ShardRows, PartitionCoversDisjointBalanced)
{
    for (int height : {1, 7, 24, 100}) {
        for (int shards : {1, 2, 3, 8, 150}) {
            const auto bands = shardRows(height, shards);
            ASSERT_EQ(static_cast<int>(bands.size()), shards);
            int y = 0, min_rows = height, max_rows = 0;
            for (const auto &band : bands) {
                EXPECT_EQ(band.y0, y);
                EXPECT_GE(band.rows(), 0);
                y = band.y1;
                min_rows = std::min(min_rows, band.rows());
                max_rows = std::max(max_rows, band.rows());
            }
            EXPECT_EQ(y, height);
            EXPECT_LE(max_rows - min_rows, 1);
        }
    }
    EXPECT_THROW(shardRows(10, 0), std::invalid_argument);
}

TEST(ThreadPoolTest, RunExecutesEachIndexOnce)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.size(), threads);
        for (int n : {0, 1, 100}) {
            std::vector<std::atomic<int>> hits(n);
            pool.run(n, [&](int i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (int i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "threads " << threads << " n " << n << " i "
                    << i;
        }
    }
}

TEST(ThreadPoolTest, RunRethrowsOnlyAfterEveryTaskFinished)
{
    ThreadPool pool(4);
    std::atomic<int> finished{0};
    EXPECT_THROW(pool.run(100,
                          [&](int i) {
                              if (i == 0)
                                  throw std::runtime_error("task 0");
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(200));
                              finished.fetch_add(1);
                          }),
                 std::runtime_error);
    // run() returned: no task may still be in flight.
    EXPECT_EQ(finished.load(), 99);

    // The pool still works, and so does the row runner built on it.
    std::atomic<int> sum{0};
    pool.run(10, [&](int i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 45);

    const auto rows = rsu::runtime::parallelRowRunner(pool);
    EXPECT_THROW(rows(64,
                      [](int i) {
                          if (i == 63)
                              throw std::runtime_error("row 63");
                      }),
                 std::runtime_error);
    std::vector<int> filled(64, 0);
    rows(64, [&](int i) { filled[i] = i + 1; });
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(filled[i], i + 1);
}

TEST(ThreadPoolTest, IndexZeroRunsOnTheCaller)
{
    ThreadPool pool(3);
    const std::thread::id caller = std::this_thread::get_id();
    for (int n : {1, 2, 7}) {
        std::vector<std::thread::id> ran_on(n);
        pool.run(n, [&](int i) {
            ran_on[i] = std::this_thread::get_id();
        });
        EXPECT_EQ(ran_on[0], caller) << "n " << n;
        for (int i = 1; i < n; ++i)
            EXPECT_NE(ran_on[i], caller) << "n " << n << " i " << i;
    }

    int calls = 0;
    pool.run(0, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, CallerThrowWaitsForTheWorkers)
{
    // Index 0 throws at once on the caller; the rethrow must still
    // wait for the slow worker indices that reference this frame.
    ThreadPool pool(4);
    std::vector<std::atomic<bool>> finished(4);
    EXPECT_THROW(pool.run(4,
                          [&](int i) {
                              if (i == 0)
                                  throw std::runtime_error("index 0");
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(30));
                              finished[i].store(true);
                          }),
                 std::runtime_error);
    for (int i = 1; i < 4; ++i)
        EXPECT_TRUE(finished[i].load()) << "index " << i;
}

TEST(Schedule, ForEachSiteInRowsMatchesWholeLatticeSweep)
{
    const int w = 9, h = 7;
    std::vector<std::pair<int, int>> whole;
    rsu::mrf::forEachSite(w, h, rsu::mrf::Schedule::Checkerboard,
                          [&](int x, int y) {
                              whole.emplace_back(x, y);
                          });

    std::vector<std::pair<int, int>> by_rows;
    for (int parity = 0; parity < 2; ++parity)
        rsu::mrf::forEachSiteInRows(w, 0, h, parity,
                                    [&](int x, int y) {
                                        by_rows.emplace_back(x, y);
                                    });
    EXPECT_EQ(whole, by_rows);

    // A banded visit covers each colour class exactly once, and
    // every visited site has the phase's parity.
    const auto bands = shardRows(h, 3);
    for (int parity = 0; parity < 2; ++parity) {
        std::set<std::pair<int, int>> visited;
        for (const auto &band : bands)
            rsu::mrf::forEachSiteInRows(
                w, band.y0, band.y1, parity, [&](int x, int y) {
                    EXPECT_EQ((x + y) & 1, parity);
                    EXPECT_TRUE(visited.emplace(x, y).second);
                });
        EXPECT_EQ(static_cast<int>(visited.size()),
                  (w * h + (parity == 0 ? 1 : 0)) / 2);
    }
}

TEST(Streams, SplitStreamsAreDisjointAndAnchored)
{
    auto streams = rsu::rng::splitStreams(77, 4);
    rsu::rng::Xoshiro256 reference(77);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(streams[0](), reference());

    // Distinct streams should not produce identical outputs.
    EXPECT_NE(streams[1](), streams[2]());

    const auto seeds = rsu::rng::splitSeeds(77, 3);
    EXPECT_EQ(seeds[0], 77u);
    EXPECT_NE(seeds[1], seeds[2]);
}

TEST(ChromaticSampler, OneShardMatchesSequentialGibbs)
{
    Problem p(33, 26, 4, 11);

    GridMrf sequential(p.config, p.model);
    sequential.initializeMaximumLikelihood();
    rsu::mrf::GibbsSampler reference(sequential, 5);
    reference.run(4);

    GridMrf parallel(p.config, p.model);
    parallel.initializeMaximumLikelihood();
    ThreadPool pool(2);
    ParallelSweepExecutor executor(pool, 1);
    ChromaticGibbsSampler sampler(parallel, executor, 5);
    sampler.run(4);

    EXPECT_EQ(sequential.labels(), parallel.labels());
    EXPECT_EQ(reference.work().random_draws,
              sampler.work().random_draws);
}

TEST(ChromaticSampler, OneShardMatchesSequentialRsuGibbs)
{
    Problem p(24, 18, 3, 23);

    GridMrf sequential(p.config, p.model);
    sequential.initializeMaximumLikelihood();
    rsu::core::RsuG unit(
        rsu::mrf::RsuGibbsSampler::unitConfigFor(sequential), 9);
    rsu::mrf::RsuGibbsSampler reference(sequential, unit);
    reference.run(3);

    GridMrf parallel(p.config, p.model);
    parallel.initializeMaximumLikelihood();
    ThreadPool pool(2);
    ParallelSweepExecutor executor(pool, 1);
    ChromaticGibbsSampler sampler(parallel, executor, 9,
                                  SamplerKind::RsuGibbs);
    sampler.run(3);

    EXPECT_EQ(sequential.labels(), parallel.labels());
}

TEST(ChromaticSampler, UnitAccessorChecksKindAndIndex)
{
    Problem p(16, 12, 3, 5);
    GridMrf mrf(p.config, p.model);
    ThreadPool pool(1);
    ParallelSweepExecutor executor(pool, 2);

    // A software chain has no device: a logic error, not a range one.
    ChromaticGibbsSampler software(mrf, executor, 1);
    EXPECT_THROW(software.unit(0), std::logic_error);
    try {
        software.unit(0);
    } catch (const std::out_of_range &) {
        ADD_FAILURE() << "software unit(0) reported a bad index";
    } catch (const std::logic_error &) {
    }

    ChromaticGibbsSampler device(mrf, executor, 1,
                                 SamplerKind::RsuGibbs);
    EXPECT_EQ(device.unit(1).numLabels(), mrf.numLabels());
    EXPECT_THROW(device.unit(2), std::out_of_range);
    EXPECT_THROW(device.unit(-1), std::out_of_range);
}

TEST(ChromaticSampler, DeterministicPerSeedAndShardCount)
{
    Problem p(40, 31, 5, 3);

    const auto run = [&](int shards, int pool_threads,
                         SamplerKind kind) {
        GridMrf mrf(p.config, p.model);
        mrf.initializeMaximumLikelihood();
        ThreadPool pool(pool_threads);
        ParallelSweepExecutor executor(pool, shards);
        ChromaticGibbsSampler sampler(mrf, executor, 123, kind);
        sampler.run(3);
        return mrf.labels();
    };

    for (SamplerKind kind :
         {SamplerKind::SoftwareGibbs, SamplerKind::RsuGibbs}) {
        for (int shards : {1, 2, 4, 8}) {
            const auto a = run(shards, 2, kind);
            const auto b = run(shards, 2, kind);
            EXPECT_EQ(a, b) << "shards=" << shards;
            // Pool size must not affect the result — only the
            // (seed, shard count) pair identifies the chain.
            const auto c = run(shards, 5, kind);
            EXPECT_EQ(a, c) << "shards=" << shards;
        }
    }
}

TEST(ParallelSweep, NoSamePhaseNeighbourUpdates)
{
    // Instrumented sweep: stamp each site with the phase in which it
    // was updated; a chromatic violation would be a neighbour already
    // stamped with the current phase. Runs many shards on several
    // threads to give interleavings a chance to expose bugs.
    const int w = 31, h = 23;
    ThreadPool pool(4);
    ParallelSweepExecutor executor(pool, 8);
    std::vector<std::atomic<int>> stamp(w * h);
    for (auto &s : stamp)
        s.store(-1, std::memory_order_relaxed);

    std::atomic<int> violations{0};
    std::atomic<int> updates{0};
    for (int sweep = 0; sweep < 3; ++sweep) {
        // The executor runs both phases inside one sweep() call;
        // the phase a site was updated in is derivable from its
        // parity, giving every update a unique phase stamp.
        executor.sweep(h, [&](int, int y, int parity) {
            for (int x = (parity ^ y) & 1; x < w; x += 2) {
                const int current = 2 * sweep + ((x + y) & 1);
                const int dx[] = {1, -1, 0, 0};
                const int dy[] = {0, 0, 1, -1};
                for (int k = 0; k < 4; ++k) {
                    const int nx = x + dx[k], ny = y + dy[k];
                    if (nx < 0 || nx >= w || ny < 0 || ny >= h)
                        continue;
                    if (stamp[ny * w + nx].load() == current)
                        violations.fetch_add(1);
                }
                stamp[y * w + x].store(current);
                updates.fetch_add(1);
            }
        });
    }
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(updates.load(), 3 * w * h);
    EXPECT_EQ(executor.timing().sweeps, 3u);
    EXPECT_GT(executor.timing().total(), 0.0);
}

TEST(InferenceEngineTest, JobsAreReproducibleAndIsolated)
{
    Problem p(30, 22, 4, 41);

    InferenceEngine::Options options;
    options.threads = 3;
    options.max_concurrent_jobs = 2;
    InferenceEngine engine(options);
    EXPECT_EQ(engine.threads(), 3);

    const auto make_job = [&](uint64_t seed, int shards) {
        InferenceJob job;
        job.config = p.config;
        job.singleton = p.modelPtr();
        job.sweeps = 3;
        job.seed = seed;
        job.shards = shards;
        return job;
    };

    // Several concurrent jobs, two of them identical: identical jobs
    // must agree bit-for-bit even while unrelated jobs share the
    // pool, and each must match a directly driven chain.
    std::vector<rsu::runtime::JobHandle> handles;
    handles.push_back(engine.submit(make_job(100, 2)));
    handles.push_back(engine.submit(make_job(200, 4)));
    handles.push_back(engine.submit(make_job(100, 2)));
    handles.push_back(engine.submit(make_job(300, 1)));

    std::vector<rsu::runtime::InferenceResult> results;
    for (auto &handle : handles)
        results.push_back(handle.get());
    EXPECT_EQ(engine.pendingJobs(), 0);

    EXPECT_EQ(results[0].labels, results[2].labels);
    EXPECT_EQ(results[0].final_energy, results[2].final_energy);
    EXPECT_NE(handles[0].id(), handles[2].id());

    GridMrf direct(p.config, p.model);
    direct.initializeMaximumLikelihood();
    ThreadPool pool(2);
    ParallelSweepExecutor executor(pool, 2);
    ChromaticGibbsSampler sampler(direct, executor, 100);
    sampler.run(3);
    EXPECT_EQ(results[0].labels, direct.labels());

    for (const auto &result : results) {
        EXPECT_EQ(static_cast<int>(result.labels.size()),
                  p.config.width * p.config.height);
        EXPECT_EQ(result.sweeps_run, 3);
        EXPECT_EQ(result.work.site_updates,
                  static_cast<uint64_t>(3 * p.config.width *
                                        p.config.height));
        EXPECT_EQ(result.phase_timing.sweeps, 3u);
    }
}

TEST(InferenceEngineTest, AnnealingJobTracksBestLabelling)
{
    Problem p(26, 20, 3, 57);

    InferenceEngine engine({.threads = 2, .max_concurrent_jobs = 1});

    InferenceJob job;
    job.config = p.config;
    job.singleton = p.modelPtr();
    job.seed = 5;
    job.shards = 2;
    rsu::mrf::AnnealingSchedule schedule;
    schedule.start_temperature = p.config.temperature;
    schedule.stop_temperature = 1.0;
    schedule.cooling_factor = 0.5;
    schedule.sweeps_per_stage = 2;
    job.annealing = schedule;

    auto result = engine.submit(std::move(job)).get();
    EXPECT_LE(result.final_energy, result.initial_energy);
    EXPECT_EQ(result.shards, 2);
    EXPECT_EQ(
        result.sweeps_run,
        static_cast<int>(schedule.temperatures().size()) *
            schedule.sweeps_per_stage);

    // The returned labels are the best-seen configuration.
    GridMrf check(p.config, p.model);
    check.setLabels(result.labels);
    EXPECT_EQ(check.totalEnergy(), result.final_energy);
}

TEST(InferenceEngineTest, RejectsBadJobs)
{
    InferenceEngine engine({.threads = 1});
    InferenceJob job;
    EXPECT_THROW(engine.submit(std::move(job)),
                 std::invalid_argument);
}

} // namespace
