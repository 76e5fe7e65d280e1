/**
 * @file
 * Fault-tolerant serving tests: cancellation, deadlines,
 * backpressure, shutdown promise hygiene, hardened exception paths,
 * and RSU device-fault injection with graceful degradation.
 *
 * The contracts pinned here (see DESIGN.md section 12):
 *  - cancellation/deadline stop at sweep granularity — a job
 *    observed to cancel after sweep k holds exactly k sweeps'
 *    labels, bit-identical to a direct chain run for k sweeps;
 *  - every submitted future resolves, with a value or an
 *    EngineError — never a std::future_error — in both shutdown
 *    modes;
 *  - a failed RSU device degrades the job onto the software Table
 *    path mid-run instead of losing it.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/energy_unit.h"
#include "core/rsu_g.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "ret/fault_injection.h"
#include "rng/stats.h"
#include "runtime/cancellation.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/inference_engine.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "vision/segmentation.h"
#include "vision/synthetic.h"

namespace {

using rsu::mrf::GridMrf;
using rsu::runtime::BackpressurePolicy;
using rsu::runtime::CancellationToken;
using rsu::runtime::ChromaticGibbsSampler;
using rsu::runtime::EngineError;
using rsu::runtime::EngineErrorCode;
using rsu::runtime::InferenceEngine;
using rsu::runtime::InferenceJob;
using rsu::runtime::JobOutcome;
using rsu::runtime::JobStatus;
using rsu::runtime::ParallelSweepExecutor;
using rsu::runtime::SamplerKind;
using rsu::runtime::shardRows;
using rsu::runtime::ShutdownMode;
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

InferenceJob
baseJob(const Problem &p, int sweeps, uint64_t seed = 11,
        int shards = 2)
{
    InferenceJob job;
    job.config = p.config;
    job.singleton = p.modelPtr();
    job.sweeps = sweeps;
    job.seed = seed;
    job.shards = shards;
    return job;
}

// ---------------------------------------------------------------
// shardRows precondition regressions (satellite: the guard accepts
// height == 0 — the message "need height >= 0" is the behaviour).
// ---------------------------------------------------------------

TEST(ShardRowsRobustness, ZeroHeightYieldsEmptyBands)
{
    const auto bands = shardRows(0, 4);
    ASSERT_EQ(bands.size(), 4u);
    for (const auto &band : bands) {
        EXPECT_EQ(band.y0, 0);
        EXPECT_EQ(band.y1, 0);
        EXPECT_EQ(band.rows(), 0);
    }
}

TEST(ShardRowsRobustness, NegativeHeightAndBadShardsThrow)
{
    EXPECT_THROW(shardRows(-1, 2), std::invalid_argument);
    EXPECT_THROW(shardRows(10, 0), std::invalid_argument);
    EXPECT_THROW(shardRows(10, -3), std::invalid_argument);
    EXPECT_THROW(shardRows(0, 0), std::invalid_argument);
    try {
        shardRows(-5, 2);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "shardRows: need height >= 0");
    }
}

// ---------------------------------------------------------------
// Cancellation and deadline semantics
// ---------------------------------------------------------------

TEST(Cancellation, InertTokenCostsNothingAndNeverCancels)
{
    CancellationToken inert;
    EXPECT_FALSE(inert.cancellable());
    EXPECT_FALSE(inert.cancelled());
    inert.cancel(); // no-op
    EXPECT_FALSE(inert.cancelled());

    auto live = CancellationToken::make();
    EXPECT_TRUE(live.cancellable());
    EXPECT_FALSE(live.cancelled());
    CancellationToken copy = live;
    copy.cancel();
    EXPECT_TRUE(live.cancelled());
}

TEST(Cancellation, CancelAfterKSweepsIsBitExact)
{
    const Problem p(24, 18, 3, 5);
    constexpr int kCancelAt = 3;

    InferenceEngine::Options options;
    options.threads = 2;
    InferenceEngine engine(options);

    auto job = baseJob(p, 50);
    auto token = CancellationToken::make();
    job.cancel = token;
    job.on_sweep = [token](int done) mutable {
        if (done >= kCancelAt)
            token.cancel();
    };
    auto handle = engine.submit(std::move(job));
    const auto result = handle.get();

    EXPECT_EQ(result.outcome, JobOutcome::Cancelled);
    EXPECT_EQ(result.sweeps_run, kCancelAt);
    EXPECT_EQ(handle.status(), JobStatus::Done);
    EXPECT_EQ(handle.sweepsDone(), kCancelAt);

    // The partial labelling must be *exactly* the chain after
    // kCancelAt sweeps: same model, seed, shards, Table path.
    GridMrf direct(p.config, p.model);
    direct.initializeMaximumLikelihood();
    ThreadPool pool(2);
    ParallelSweepExecutor executor(pool, 2);
    ChromaticGibbsSampler sampler(direct, executor, 11,
                                  SamplerKind::SoftwareGibbs, {},
                                  rsu::mrf::SweepPath::Table);
    sampler.run(kCancelAt);
    EXPECT_EQ(result.labels, direct.labels());
    EXPECT_EQ(result.final_energy, direct.totalEnergy());
}

TEST(Cancellation, CancelledWhileQueuedIsTypedError)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    options.max_concurrent_jobs = 1;
    InferenceEngine engine(options);

    // Occupy the single dispatcher until released.
    std::atomic<bool> go{false};
    auto blocker = baseJob(p, 1);
    blocker.on_sweep = [&go](int) {
        while (!go.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    };
    auto blocker_handle = engine.submit(std::move(blocker));

    auto queued_handle = engine.submit(baseJob(p, 5));
    queued_handle.cancel();
    go.store(true);

    EXPECT_NO_THROW(blocker_handle.get());
    try {
        queued_handle.get();
        FAIL() << "expected EngineError";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), EngineErrorCode::Cancelled);
    }
    EXPECT_EQ(queued_handle.status(), JobStatus::Cancelled);
}

TEST(Deadline, ExpiredInQueueIsTypedError)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    options.max_concurrent_jobs = 1;
    InferenceEngine engine(options);

    std::atomic<bool> go{false};
    auto blocker = baseJob(p, 1);
    blocker.on_sweep = [&go](int) {
        while (!go.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    };
    auto blocker_handle = engine.submit(std::move(blocker));

    auto doomed = baseJob(p, 5);
    doomed.deadline_seconds = 0.02;
    auto doomed_handle = engine.submit(std::move(doomed));

    // Let the deadline lapse while the job is stuck in the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    go.store(true);

    EXPECT_NO_THROW(blocker_handle.get());
    try {
        doomed_handle.get();
        FAIL() << "expected EngineError";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), EngineErrorCode::DeadlineExceeded);
    }
    EXPECT_EQ(doomed_handle.status(), JobStatus::Cancelled);
}

TEST(Deadline, MidRunDeadlineReturnsPartialResult)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    InferenceEngine engine(options);

    auto job = baseJob(p, 1000);
    job.deadline_seconds = 0.03;
    job.on_sweep = [](int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    const auto result = engine.submit(std::move(job)).get();

    EXPECT_EQ(result.outcome, JobOutcome::DeadlineExceeded);
    EXPECT_GT(result.sweeps_run, 0);
    EXPECT_LT(result.sweeps_run, 1000);
    EXPECT_EQ(result.labels.size(),
              static_cast<std::size_t>(16 * 16));
}

TEST(Deadline, NanBudgetIsRejectedAtSubmit)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    InferenceEngine engine(options);

    auto job = baseJob(p, 3);
    job.deadline_seconds = std::nan("");
    EXPECT_THROW(engine.submit(std::move(job)), std::invalid_argument);
    EXPECT_EQ(engine.pendingJobs(), 0);
}

TEST(Deadline, BudgetBeyondClockRangeMeansNoDeadline)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    InferenceEngine engine(options);

    // +inf and 1e10 s overflow steady_clock's nanosecond range from
    // now; 5 s fits. Every one of them must run all its sweeps.
    for (double seconds :
         {std::numeric_limits<double>::infinity(), 1e10, 5.0}) {
        auto job = baseJob(p, 4);
        job.deadline_seconds = seconds;
        const auto result = engine.submit(std::move(job)).get();
        EXPECT_EQ(result.outcome, JobOutcome::Completed) << seconds;
        EXPECT_EQ(result.sweeps_run, 4) << seconds;
    }
}

// ---------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------

TEST(Backpressure, RejectNewestThrowsQueueFull)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    options.max_concurrent_jobs = 1;
    options.max_queued_jobs = 1;
    options.backpressure = BackpressurePolicy::RejectNewest;
    InferenceEngine engine(options);

    std::atomic<bool> go{false};
    auto blocker = baseJob(p, 1);
    blocker.on_sweep = [&go](int) {
        while (!go.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    };
    auto blocker_handle = engine.submit(std::move(blocker));
    // Wait until the blocker leaves the queue and runs.
    while (blocker_handle.status() != JobStatus::Running)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    auto queued_handle = engine.submit(baseJob(p, 2)); // fills queue
    try {
        engine.submit(baseJob(p, 2));
        FAIL() << "expected EngineError";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), EngineErrorCode::QueueFull);
    }

    go.store(true);
    EXPECT_NO_THROW(blocker_handle.get());
    EXPECT_NO_THROW(queued_handle.get());
}

TEST(Backpressure, BlockWaitsForSpaceThenCompletes)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    options.max_concurrent_jobs = 1;
    options.max_queued_jobs = 1;
    options.backpressure = BackpressurePolicy::Block;
    InferenceEngine engine(options);

    std::atomic<bool> go{false};
    auto blocker = baseJob(p, 1);
    blocker.on_sweep = [&go](int) {
        while (!go.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    };
    auto blocker_handle = engine.submit(std::move(blocker));
    while (blocker_handle.status() != JobStatus::Running)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto queued_handle = engine.submit(baseJob(p, 2));

    // The third submit must block until the dispatcher frees a
    // queue slot, then succeed.
    std::atomic<bool> submitted{false};
    std::future<rsu::runtime::InferenceResult> third;
    std::thread submitter([&] {
        auto handle = engine.submit(baseJob(p, 2));
        submitted.store(true);
        third = std::move(handle.future);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(submitted.load()); // still blocked on backpressure

    go.store(true);
    submitter.join();
    EXPECT_TRUE(submitted.load());
    EXPECT_NO_THROW(blocker_handle.get());
    EXPECT_NO_THROW(queued_handle.get());
    EXPECT_NO_THROW(third.get());
    EXPECT_EQ(engine.pendingJobs(), 0);
}

// ---------------------------------------------------------------
// Shutdown / destructor promise hygiene (satellite: queued futures
// must resolve with EngineError, never std::future_error)
// ---------------------------------------------------------------

TEST(Shutdown, CancelAllResolvesQueuedAndRunningFutures)
{
    const Problem p(16, 16, 3, 6);
    std::future<rsu::runtime::InferenceResult> running;
    std::vector<std::future<rsu::runtime::InferenceResult>> queued;
    {
        InferenceEngine::Options options;
        options.threads = 2;
        options.max_concurrent_jobs = 1;
        InferenceEngine engine(options);

        // The running job parks until its own token trips (which
        // CancelAll does), then finishes as a partial result.
        auto blocker = baseJob(p, 50);
        auto token = CancellationToken::make();
        blocker.cancel = token;
        blocker.on_sweep = [token](int) {
            while (!token.cancelled())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        };
        auto blocker_handle = engine.submit(std::move(blocker));
        while (blocker_handle.status() != JobStatus::Running)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        running = std::move(blocker_handle.future);

        for (int i = 0; i < 3; ++i)
            queued.push_back(
                engine.submit(baseJob(p, 5)).future);
        engine.shutdown(ShutdownMode::CancelAll);
    }

    // The running job resolved with a partial value.
    const auto partial = running.get();
    EXPECT_EQ(partial.outcome, JobOutcome::Cancelled);

    // Every queued-but-unstarted future resolved with the typed
    // error — not std::future_error from a broken promise.
    for (auto &future : queued) {
        try {
            future.get();
            FAIL() << "expected EngineError";
        } catch (const EngineError &e) {
            EXPECT_EQ(e.code(), EngineErrorCode::Cancelled);
        } catch (const std::future_error &) {
            FAIL() << "broken promise leaked to the caller";
        }
    }
}

TEST(Shutdown, DrainRunsEverythingToCompletion)
{
    const Problem p(16, 16, 3, 6);
    std::atomic<bool> go{false};
    std::vector<std::future<rsu::runtime::InferenceResult>> futures;
    std::thread releaser;
    {
        InferenceEngine::Options options;
        options.threads = 2;
        options.max_concurrent_jobs = 1;
        InferenceEngine engine(options);

        auto blocker = baseJob(p, 1);
        blocker.on_sweep = [&go](int) {
            while (!go.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        };
        futures.push_back(engine.submit(std::move(blocker)).future);
        for (int i = 0; i < 3; ++i)
            futures.push_back(
                engine.submit(baseJob(p, 3)).future);

        releaser = std::thread([&go] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(30));
            go.store(true);
        });
        // Drain destructor: blocks until all four jobs ran.
    }
    releaser.join();
    for (auto &future : futures) {
        const auto result = future.get();
        EXPECT_EQ(result.outcome, JobOutcome::Completed);
    }
}

TEST(Shutdown, SubmitAfterShutdownIsTypedError)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    InferenceEngine engine(options);
    engine.shutdown();
    engine.shutdown(); // idempotent
    try {
        engine.submit(baseJob(p, 1));
        FAIL() << "expected EngineError";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), EngineErrorCode::Cancelled);
    }
}

// ---------------------------------------------------------------
// Hardened exception paths
// ---------------------------------------------------------------

TEST(ExceptionPaths, ThrowingSweepKernelRethrowsAndPoolSurvives)
{
    ThreadPool pool(2);
    ParallelSweepExecutor executor(pool, 2);

    EXPECT_THROW(executor.sweep(8,
                                [](int, int y, int parity) {
                                    for (int x = (parity ^ y) & 1;
                                         x < 8; x += 2)
                                        if (x == 3 && y == 3)
                                            throw std::runtime_error(
                                                "kernel fault");
                                }),
                 std::runtime_error);

    // The pool and executor must still work: no wedged fork-join, no
    // poisoned workers.
    std::atomic<int> visits{0};
    executor.sweep(8, [&](int, int y, int parity) {
        for (int x = (parity ^ y) & 1; x < 8; x += 2)
            visits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(visits.load(), 64);
}

TEST(ExceptionPaths, ThrowingJobResolvesFutureEngineSurvives)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    InferenceEngine engine(options);

    auto bad = baseJob(p, 3);
    bad.on_sweep = [](int) {
        throw std::runtime_error("job hook fault");
    };
    EXPECT_THROW(engine.submit(std::move(bad)).get(),
                 std::runtime_error);

    // The dispatcher that ran the bad job must still serve others.
    const auto result = engine.submit(baseJob(p, 3)).get();
    EXPECT_EQ(result.outcome, JobOutcome::Completed);
    EXPECT_EQ(engine.pendingJobs(), 0);
}

TEST(ExceptionPaths, ThrowingQualityHookIsAdvisory)
{
    const Problem p(16, 16, 3, 6);
    InferenceEngine::Options options;
    options.threads = 2;
    InferenceEngine engine(options);

    auto job = baseJob(p, 3);
    job.quality = [](const std::vector<rsu::mrf::Label> &) -> double {
        throw std::runtime_error("metric exploded");
    };
    const auto result = engine.submit(std::move(job)).get();

    EXPECT_EQ(result.outcome, JobOutcome::Completed);
    EXPECT_FALSE(result.quality.has_value());
    EXPECT_EQ(result.quality_error, "metric exploded");
    EXPECT_FALSE(result.labels.empty());
}

// ---------------------------------------------------------------
// Device fault injection (RET / RSU-G layer)
// ---------------------------------------------------------------

TEST(FaultInjection, PlanExpansionIsDeterministicAndValidated)
{
    rsu::ret::FaultPlan plan;
    plan.seed = 42;
    plan.stuck_led_fraction = 0.5;
    plan.dead_spad_fraction = 0.3;
    plan.dark_unit_fraction = 0.5;
    plan.dark_rate_per_ns = 0.25;
    plan.ttf_saturation_fraction = 0.1;
    EXPECT_TRUE(plan.anyFaults());

    const auto a = plan.faultsFor(3, 8);
    const auto b = plan.faultsFor(3, 8);
    EXPECT_EQ(a.led_stuck_high, b.led_stuck_high);
    EXPECT_EQ(a.led_stuck_low, b.led_stuck_low);
    EXPECT_EQ(a.dead_spad, b.dead_spad);
    EXPECT_EQ(a.dark_rate_per_ns, b.dark_rate_per_ns);
    EXPECT_EQ(a.force_ttf_saturation, b.force_ttf_saturation);

    // A lane is stuck high or low, never both; masks stay in the
    // 4-bit LED code.
    for (std::size_t lane = 0; lane < a.led_stuck_high.size();
         ++lane) {
        EXPECT_FALSE(a.led_stuck_high[lane] != 0 &&
                     a.led_stuck_low[lane] != 0);
        EXPECT_EQ(a.led_stuck_high[lane] & ~0xF, 0);
        EXPECT_EQ(a.led_stuck_low[lane] & ~0xF, 0);
    }

    EXPECT_THROW(plan.faultsFor(-1, 4), std::invalid_argument);
    EXPECT_THROW(plan.faultsFor(0, 0), std::invalid_argument);

    EXPECT_FALSE(rsu::ret::FaultPlan{}.anyFaults());
    EXPECT_FALSE(rsu::ret::UnitFaults{}.any());
}

TEST(FaultInjection, UnafflictedSliceLeavesUnitBitIdentical)
{
    // A plan slice that happened to break nothing must not disturb
    // the unit's entropy stream: same seed, same samples.
    rsu::core::EnergyInputs in;
    in.neighbors = {1, 2, 2, 3};
    in.data1 = 25;

    rsu::core::RsuG clean(rsu::core::RsuGConfig{}, 99);
    clean.initialize(4, 16.0);
    rsu::core::RsuG dosed(rsu::core::RsuGConfig{}, 99);
    dosed.initialize(4, 16.0);

    rsu::ret::FaultPlan empty_plan; // afflicts nothing
    dosed.injectFaults(empty_plan.faultsFor(0, 1));
    EXPECT_FALSE(dosed.faultsInjected());

    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(clean.sample(in), dosed.sample(in));
    EXPECT_FALSE(dosed.failed());
    EXPECT_EQ(dosed.stats().reraces, 0u);
}

TEST(FaultInjection, AllSaturatedRaceYieldsDefinedLabelAndCounts)
{
    // Property (satellite): with kTtfSaturated on every lane the
    // selection unit still returns a defined label — the
    // first-evaluated candidate (index M-1, down-counter order) —
    // and the health counters advance.
    rsu::ret::UnitFaults faults;
    faults.led_stuck_high.assign(1, 0);
    faults.led_stuck_low.assign(1, 0);
    faults.dead_spad.assign(1, 1); // the lane never fires
    faults.max_reraces = 2;
    faults.failure_threshold = 4;

    rsu::core::RsuG unit(rsu::core::RsuGConfig{}, 7);
    const int labels = 5;
    unit.initialize(labels, 16.0);
    unit.injectFaults(faults);
    EXPECT_TRUE(unit.faultsInjected());

    rsu::core::EnergyInputs in;
    in.neighbors = {0, 1, 2, 3};
    in.data1 = 30;

    for (int i = 0; i < 4; ++i) {
        const auto label = unit.sample(in);
        EXPECT_EQ(label, static_cast<rsu::core::Label>(labels - 1));
    }
    const auto &stats = unit.stats();
    // Every evaluation saturated...
    EXPECT_EQ(stats.saturated_ttfs, stats.label_evals);
    EXPECT_DOUBLE_EQ(stats.misfireFraction(), 1.0);
    // ...each sample re-raced max_reraces times then reported...
    EXPECT_EQ(stats.reraces, 4u * 2u);
    EXPECT_EQ(stats.unrecovered_races, 4u);
    EXPECT_EQ(stats.all_saturated_races, 4u * 3u);
    // ...and the threshold declared the unit failed.
    EXPECT_TRUE(unit.failed());
}

TEST(FaultInjection, DarkCountsMatchAnalyticThinnedRates)
{
    // Chi-square (satellite): with an elevated dark-count rate the
    // empirical winner histogram must match raceDistribution(),
    // whose oracle models dark counts through
    // Spad::effectiveRate(). max_reraces = 0 keeps the protocol out
    // of the distribution.
    rsu::ret::UnitFaults faults;
    faults.led_stuck_high.assign(1, 0);
    faults.led_stuck_low.assign(1, 0);
    faults.dead_spad.assign(1, 0);
    faults.dark_rate_per_ns = 0.35;

    rsu::core::RsuG unit(rsu::core::RsuGConfig{}, 2024);
    unit.initialize(5, 16.0);
    unit.injectFaults(faults);
    EXPECT_TRUE(unit.faultsInjected());

    rsu::core::EnergyInputs in;
    in.neighbors = {1, 2, 2, 3};
    in.data1 = 25;
    std::vector<uint8_t> data2 = {12, 25, 31, 40, 55};

    const auto expected = unit.raceDistribution(in, data2.data());
    std::vector<uint64_t> counts(5, 0);
    constexpr int kDraws = 60000;
    for (int i = 0; i < kDraws; ++i)
        ++counts[unit.sample(in, data2.data())];

    const double stat =
        rsu::rng::chiSquareStatistic(counts, expected);
    EXPECT_LT(stat, rsu::rng::chiSquareCritical(4, 0.001));
}

TEST(FaultInjection, LaneVectorSizeMismatchThrows)
{
    rsu::core::RsuG unit(rsu::core::RsuGConfig{}, 7);
    rsu::ret::UnitFaults faults;
    faults.led_stuck_high.assign(2, 0); // unit width is 1
    faults.led_stuck_low.assign(2, 0);
    faults.dead_spad.assign(2, 0);
    EXPECT_THROW(unit.injectFaults(faults), std::invalid_argument);
}

// ---------------------------------------------------------------
// Graceful degradation end to end (acceptance)
// ---------------------------------------------------------------

TEST(Degradation, FaultedRsuJobFallsBackWithinOnePercent)
{
    const Problem p(32, 32, 3, 5);

    // Every SPAD lane dead: afflicted units saturate every race and
    // declare failure after a few sweeps.
    rsu::ret::FaultPlan plan;
    plan.seed = 7;
    plan.stuck_led_fraction = 0.5;
    plan.dead_spad_fraction = 1.0;
    plan.max_reraces = 1;
    plan.failure_threshold = 4;

    InferenceEngine::Options options;
    options.threads = 2;
    InferenceEngine engine(options);

    rsu::mrf::AnnealingSchedule schedule;
    schedule.start_temperature = p.config.temperature;
    schedule.stop_temperature = 0.5;
    schedule.cooling_factor = 0.7;
    schedule.sweeps_per_stage = 4;

    auto make_rsu_job = [&] {
        auto job = baseJob(p, 0, 11, 2);
        job.sampler = SamplerKind::RsuGibbs;
        job.annealing = schedule;
        return job;
    };

    auto faulted = make_rsu_job();
    faulted.faults = plan;
    const auto degraded = engine.submit(std::move(faulted)).get();
    const auto healthy = engine.submit(make_rsu_job()).get();

    EXPECT_TRUE(degraded.degraded);
    EXPECT_GE(degraded.degraded_at_sweep, 0);
    EXPECT_EQ(degraded.outcome, JobOutcome::Completed);
    EXPECT_EQ(degraded.sweeps_run, healthy.sweeps_run);

    // The device-phase health telemetry travelled with the result.
    EXPECT_GT(degraded.device_stats.unrecovered_races, 0u);
    EXPECT_GT(degraded.device_stats.all_saturated_races, 0u);
    EXPECT_FALSE(healthy.degraded);
    EXPECT_EQ(healthy.device_stats.unrecovered_races, 0u);

    // Degradation must preserve solution quality: final energy
    // within 1% of the fault-free device run.
    const double healthy_energy =
        static_cast<double>(healthy.final_energy);
    const double degraded_energy =
        static_cast<double>(degraded.final_energy);
    EXPECT_LE(std::abs(degraded_energy - healthy_energy),
              0.01 * std::abs(healthy_energy))
        << "healthy " << healthy_energy << " vs degraded "
        << degraded_energy;
}

TEST(Degradation, FaultFreeRsuJobIsBitIdenticalToSeedBehaviour)
{
    // The robustness layer must be invisible when unused: an RSU
    // job with no FaultPlan matches one submitted to an engine
    // carrying a plan-free job field default.
    const Problem p(20, 16, 3, 9);
    InferenceEngine::Options options;
    options.threads = 2;
    InferenceEngine engine(options);

    auto a = baseJob(p, 6, 21);
    a.sampler = SamplerKind::RsuGibbs;
    auto b = baseJob(p, 6, 21);
    b.sampler = SamplerKind::RsuGibbs;
    b.faults = rsu::ret::FaultPlan{}; // present but afflicts nothing

    const auto ra = engine.submit(std::move(a)).get();
    const auto rb = engine.submit(std::move(b)).get();
    EXPECT_EQ(ra.labels, rb.labels);
    EXPECT_EQ(ra.final_energy, rb.final_energy);
    EXPECT_FALSE(rb.degraded);
}

} // namespace
