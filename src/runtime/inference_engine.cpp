#include "runtime/inference_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace rsu::runtime {

namespace {

/**
 * Thrown by the traced sweep loop to unwind out of a run (possibly
 * through mrf::anneal) when the job's token or deadline trips; the
 * executor caught it knows the label field is whole-sweeps
 * consistent. Internal — callers only ever see InferenceResult or
 * EngineError.
 */
struct Interrupt
{
    JobOutcome outcome;
};

} // namespace

InferenceEngine::InferenceEngine(Options options)
    : options_(options), pool_(options.threads)
{
    if (options_.max_concurrent_jobs < 1)
        throw std::invalid_argument(
            "InferenceEngine: need max_concurrent_jobs >= 1");
    if (options_.max_queued_jobs < 0)
        throw std::invalid_argument(
            "InferenceEngine: need max_queued_jobs >= 0");
    dispatchers_.reserve(options_.max_concurrent_jobs);
    for (int i = 0; i < options_.max_concurrent_jobs; ++i)
        dispatchers_.emplace_back([this] { dispatcherLoop(); });
}

InferenceEngine::~InferenceEngine()
{
    shutdown(ShutdownMode::Drain);
}

void
InferenceEngine::shutdown(ShutdownMode mode)
{
    std::deque<QueuedJob> orphans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!joined_) {
            stop_ = true;
            if (mode == ShutdownMode::CancelAll) {
                orphans.swap(queue_);
                for (const auto &control : running_)
                    control->token.cancel();
            }
        }
    }
    cv_.notify_all();
    space_cv_.notify_all(); // wake Block-ed submitters to fail fast

    // Promises are never broken: jobs the dispatchers will never
    // see resolve here, with a typed error.
    for (auto &orphan : orphans)
        resolveUnrun(orphan, EngineError(EngineErrorCode::Cancelled,
                                         "engine shut down before "
                                         "the job started"));

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (joined_)
            return; // an earlier shutdown() already joined
        joined_ = true;
    }
    for (auto &dispatcher : dispatchers_)
        dispatcher.join();
}

JobHandle
InferenceEngine::submit(InferenceJob job)
{
    if (!job.singleton)
        throw std::invalid_argument(
            "InferenceEngine: job needs a singleton model");
    if (job.deadline_seconds && !(*job.deadline_seconds >= 0.0))
        throw std::invalid_argument(
            "InferenceEngine: need deadline_seconds >= 0");

    QueuedJob queued;
    queued.control = std::make_shared<JobHandle::Control>();
    queued.control->token = job.cancel.cancellable()
                                ? job.cancel
                                : CancellationToken::make();
    if (job.deadline_seconds) {
        using Clock = std::chrono::steady_clock;
        const auto now = Clock::now();
        const std::chrono::duration<double> budget(
            *job.deadline_seconds);
        // A budget past the clock's range (e.g. +inf) is no deadline.
        if (budget < Clock::time_point::max() - now)
            queued.deadline =
                now +
                std::chrono::duration_cast<Clock::duration>(budget);
    }
    queued.job = std::move(job);

    JobHandle handle;
    handle.control_ = queued.control;
    handle.future = queued.promise.get_future();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (stop_)
            throw EngineError(EngineErrorCode::Cancelled,
                              "submit after shutdown");
        if (options_.max_queued_jobs > 0 &&
            static_cast<int>(queue_.size()) >=
                options_.max_queued_jobs) {
            if (options_.backpressure ==
                BackpressurePolicy::RejectNewest)
                throw EngineError(EngineErrorCode::QueueFull,
                                  "admission queue is full");
            space_cv_.wait(lock, [this] {
                return stop_ ||
                       static_cast<int>(queue_.size()) <
                           options_.max_queued_jobs;
            });
            if (stop_)
                throw EngineError(EngineErrorCode::Cancelled,
                                  "engine shut down while submit "
                                  "was blocked on backpressure");
        }
        queued.control->id = next_id_++;
        ++unfinished_;
        queue_.push_back(std::move(queued));
    }
    cv_.notify_one();
    return handle;
}

int
InferenceEngine::pendingJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return unfinished_;
}

TableCacheStats
InferenceEngine::tableCacheStats() const
{
    std::lock_guard<std::mutex> lock(table_mutex_);
    TableCacheStats stats;
    stats.hits = table_hits_;
    stats.misses = table_misses_;
    stats.entries = static_cast<int>(table_cache_.size());
    return stats;
}

std::shared_ptr<const rsu::mrf::SweepTableSet>
InferenceEngine::acquireTableSet(const rsu::mrf::GridMrf &mrf,
                                 const InferenceJob &job,
                                 InferenceResult &result,
                                 int64_t &ml_energy)
{
    TableCacheKey key;
    key.singleton = job.singleton.get();
    key.width = mrf.width();
    key.height = mrf.height();
    key.num_labels = mrf.numLabels();
    key.energy = mrf.config().energy;
    key.codes = mrf.labelCodes();

    {
        std::lock_guard<std::mutex> lock(table_mutex_);
        for (std::size_t i = 0; i < table_cache_.size(); ++i) {
            if (table_cache_[i].key == key) {
                // Touch: move to the back (most recently used).
                auto entry = std::move(table_cache_[i]);
                table_cache_.erase(table_cache_.begin() +
                                   static_cast<long>(i));
                table_cache_.push_back(std::move(entry));
                ++table_hits_;
                result.table_cache_hit = true;
                ml_energy = table_cache_.back().ml_energy;
                return table_cache_.back().set;
            }
        }
        ++table_misses_;
    }

    // Build outside the lock (the expensive part — a full singleton
    // model scan, rows fanned out over the pool).
    const auto start = std::chrono::steady_clock::now();
    auto set = std::make_shared<const rsu::mrf::SweepTableSet>(
        mrf, parallelRowRunner(pool_));
    const std::chrono::duration<double> built =
        std::chrono::steady_clock::now() - start;
    result.table_build_seconds = built.count();
    rsu::mrf::GridMrf ml_start(mrf.config(), *job.singleton);
    ml_start.initializeMaximumLikelihood(set->singleton());
    ml_energy = ml_start.totalEnergy(parallelRowRunner(pool_));

    std::lock_guard<std::mutex> lock(table_mutex_);
    // A racing job may have inserted this model while we built;
    // don't cache a duplicate (our identical set still serves this
    // job, then dies with it).
    const bool present = std::any_of(
        table_cache_.begin(), table_cache_.end(),
        [&](const TableCacheEntry &entry) { return entry.key == key; });
    if (!present) {
        table_cache_.push_back(
            {std::move(key), job.singleton, set, ml_energy});
        if (static_cast<int>(table_cache_.size()) > kTableCacheCapacity)
            table_cache_.erase(table_cache_.begin());
    }
    return set;
}

void
InferenceEngine::resolveUnrun(QueuedJob &queued,
                              const EngineError &error)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --unfinished_;
    }
    queued.control->status.store(JobStatus::Cancelled,
                                 std::memory_order_release);
    queued.promise.set_exception(std::make_exception_ptr(error));
}

void
InferenceEngine::dispatcherLoop()
{
    for (;;) {
        QueuedJob queued;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and queue drained
            queued = std::move(queue_.front());
            queue_.pop_front();
        }
        space_cv_.notify_one();

        // Pre-flight: a job whose token tripped or whose deadline
        // passed while it waited never runs; its future gets the
        // typed error instead of a partial result.
        if (queued.control->token.cancelled()) {
            resolveUnrun(queued,
                         EngineError(EngineErrorCode::Cancelled,
                                     "job cancelled while queued"));
            continue;
        }
        if (queued.deadline &&
            std::chrono::steady_clock::now() >= *queued.deadline) {
            resolveUnrun(queued,
                         EngineError(
                             EngineErrorCode::DeadlineExceeded,
                             "deadline expired while the job was "
                             "queued"));
            continue;
        }

        queued.control->status.store(JobStatus::Running,
                                     std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            running_.push_back(queued.control);
        }
        // The job must count as finished before its future resolves,
        // or a caller waking from future.get() could still observe
        // it as pending.
        const auto finish = [&](JobStatus status) {
            std::lock_guard<std::mutex> lock(mutex_);
            --unfinished_;
            running_.erase(std::remove(running_.begin(),
                                       running_.end(),
                                       queued.control),
                           running_.end());
            queued.control->status.store(status,
                                         std::memory_order_release);
        };
        try {
            auto result = execute(queued);
            finish(JobStatus::Done);
            queued.promise.set_value(std::move(result));
        } catch (...) {
            finish(JobStatus::Done);
            queued.promise.set_exception(std::current_exception());
        }
    }
}

InferenceResult
InferenceEngine::execute(QueuedJob &queued)
{
    InferenceJob &job = queued.job;
    const auto start = std::chrono::steady_clock::now();

    InferenceResult result;

    rsu::mrf::GridMrf mrf(job.config, *job.singleton);

    // Energy scans fan their rows out over the pool: serially, one
    // costs about as much as a parallel sweep.
    const auto rows = parallelRowRunner(pool_);

    // Table-backed paths: fetch or build the model's static tables
    // first, so the ML initialization below can reuse the singleton
    // scan instead of re-evaluating the model, and the start's
    // energy comes with them.
    std::shared_ptr<const rsu::mrf::SweepTableSet> table_set;
    if (job.sampler == SamplerKind::SoftwareGibbs &&
        job.sweep_path != rsu::mrf::SweepPath::Reference)
        table_set =
            acquireTableSet(mrf, job, result, result.initial_energy);

    if (table_set) {
        mrf.initializeMaximumLikelihood(table_set->singleton());
    } else {
        mrf.initializeMaximumLikelihood();
        result.initial_energy = mrf.totalEnergy(rows);
    }

    ParallelSweepExecutor executor(pool_, job.shards);
    auto sampler = std::make_unique<ChromaticGibbsSampler>(
        mrf, executor, job.seed, job.sampler, rsu::core::RsuGConfig{},
        job.sweep_path, table_set);
    if (job.faults)
        sampler->injectFaults(*job.faults);

    result.shards = executor.shards();

    // Device-failure reaction: swap the failed RSU sampler for a
    // software Table sampler over the same model/executor, keeping
    // the label field (the chain continues where the device left
    // off). The old sampler's work and health counters are folded
    // into the result before it is dropped.
    const auto maybe_degrade = [&]() {
        if (job.sampler != SamplerKind::RsuGibbs ||
            result.degraded || !sampler->deviceFailed())
            return;
        result.device_stats = sampler->deviceStats();
        result.work = sampler->work();
        int64_t ml_energy = 0; // unused: initial_energy is set
        if (!table_set)
            table_set = acquireTableSet(mrf, job, result, ml_energy);
        sampler = std::make_unique<ChromaticGibbsSampler>(
            mrf, executor, job.seed, SamplerKind::SoftwareGibbs,
            rsu::core::RsuGConfig{}, rsu::mrf::SweepPath::Table, table_set);
        result.degraded = true;
        result.degraded_at_sweep = result.sweeps_run;
    };

    // One guarded MCMC iteration. Cancellation and deadline are
    // observed only here, between sweeps, so a stopped job always
    // holds a whole number of sweeps (Interrupt unwinds to the
    // handler below, through mrf::anneal if need be — in that case
    // the best-labelling restoration is skipped and the partial
    // result carries the current field).
    const auto traced_sweep = [&] {
        if (queued.control->token.cancelled())
            throw Interrupt{JobOutcome::Cancelled};
        if (queued.deadline &&
            std::chrono::steady_clock::now() >= *queued.deadline)
            throw Interrupt{JobOutcome::DeadlineExceeded};
        sampler->sweep();
        ++result.sweeps_run;
        queued.control->sweeps_done.store(
            result.sweeps_run, std::memory_order_relaxed);
        if (job.on_sweep)
            job.on_sweep(result.sweeps_run);
        maybe_degrade();
    };

    try {
        if (job.annealing) {
            result.final_energy = rsu::mrf::anneal(
                mrf, *job.annealing,
                [&](double t) { sampler->setTemperature(t); },
                traced_sweep, rows);
        } else {
            for (int i = 0; i < job.sweeps; ++i)
                traced_sweep();
            result.final_energy = mrf.totalEnergy(rows);
        }
    } catch (const Interrupt &interrupt) {
        result.outcome = interrupt.outcome;
        result.final_energy = mrf.totalEnergy(rows);
    }

    result.labels = mrf.labels();
    if (job.quality) {
        // Advisory: a throwing hook never discards the labelling.
        try {
            result.quality = job.quality(result.labels);
        } catch (const std::exception &e) {
            result.quality_error = e.what();
        } catch (...) {
            result.quality_error = "unknown quality-hook error";
        }
    }
    // Fold in the current sampler's counters (for degraded jobs,
    // result.work already holds the device-phase counters).
    result.work += sampler->work();
    if (job.sampler == SamplerKind::RsuGibbs && !result.degraded)
        result.device_stats = sampler->deviceStats();
    result.phase_timing = executor.timing();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    result.elapsed_seconds = elapsed.count();
    return result;
}

} // namespace rsu::runtime
