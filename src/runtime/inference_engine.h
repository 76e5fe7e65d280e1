/**
 * @file
 * Batched inference job engine.
 *
 * The serving layer the ROADMAP's production north star needs: many
 * callers submit independent MRF inference jobs; the engine queues
 * them, runs up to a configured number concurrently, and executes
 * each job's sweeps chromatically across one shared thread pool.
 * Because shard tasks from concurrent jobs interleave on the same
 * FIFO queue, the pool's workers stay busy even when a single small
 * lattice cannot fill the machine — the software analogue of packing
 * several MRF applications onto one array of RSUs.
 *
 * Each job is reproducible in isolation: results depend only on
 * (job seed, shard count, model), never on what else was queued or
 * on thread scheduling.
 *
 * Jobs on the Table/Simd sweep paths need a SweepTableSet — one
 * full scan of the singleton model. The engine keeps a keyed LRU
 * cache of kTableCacheCapacity such sets: repeat jobs against the
 * same model (identity + static shape, temperature excluded — the
 * set is temperature-independent) share one immutable set instead
 * of each rescanning, so a serving mix of many short jobs on few
 * models amortizes table construction to ~zero (see
 * InferenceResult::table_build_seconds). Cache misses build the set
 * with the per-row scan fanned out over the engine's own pool.
 */

#ifndef RSU_RUNTIME_INFERENCE_ENGINE_H
#define RSU_RUNTIME_INFERENCE_ENGINE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/rsu_g.h"
#include "mrf/annealing.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "ret/fault_injection.h"
#include "runtime/cancellation.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"

namespace rsu::runtime {

/** One unit of inference work. */
struct InferenceJob
{
    /** Lattice and potential parameters. */
    rsu::mrf::MrfConfig config;

    /** Singleton data source. The job *owns* a share of the model:
     * submitters may drop every other reference immediately after
     * submit() — the engine keeps the model alive until the future
     * resolves (and, for Table/Simd jobs, while its static tables
     * stay cached). Workload factories (src/workload/) produce
     * problems whose models are bundled this way. */
    std::shared_ptr<const rsu::mrf::SingletonModel> singleton;

    /** Sweeps to run (ignored when annealing is set — the schedule
     * determines the count). */
    int sweeps = 100;

    /** When set, anneal under this schedule instead of running at
     * the fixed configured temperature; the result carries the best
     * labelling seen. */
    std::optional<rsu::mrf::AnnealingSchedule> annealing;

    /** Site-update backend. */
    SamplerKind sampler = SamplerKind::SoftwareGibbs;

    /** SoftwareGibbs realization: Table sweeps through precomputed
     * lookup tables — bit-identical to Reference per (seed, shards),
     * several times faster. Simd is faster still (vectorized Q32
     * fixed-point weights; identical across ISAs/runs/shard counts,
     * not bit-identical to the other two). Table/Simd jobs share
     * static tables through the engine's cache. Table by default:
     * serving traffic should take a fast path unless a job
     * explicitly asks to exercise the reference loop. */
    rsu::mrf::SweepPath sweep_path = rsu::mrf::SweepPath::Table;

    /** Entropy seed (streams split per shard, see rng/streams.h). */
    uint64_t seed = 1;

    /** Row-band shard / RNG stream count; 0 = the pool's thread
     * count. The result is bit-reproducible per (seed, shards). */
    int shards = 0;

    /**
     * Optional solution-quality hook, evaluated once on the final
     * labelling and recorded in InferenceResult::quality. The
     * closure carries whatever it needs (ground truth, clean
     * images, ...) so the runtime stays application-agnostic; the
     * workload layer wires in labelAccuracy / meanEndpointError /
     * psnr (vision/metrics.h).
     */
    std::function<double(const std::vector<rsu::mrf::Label> &)>
        quality;

    /**
     * Wall-clock budget measured from submit(). A job past its
     * deadline resolves with an EngineError(DeadlineExceeded) if it
     * never started, or with a partial result
     * (outcome = DeadlineExceeded, labels as of the last completed
     * sweep) if the deadline passed mid-run. Checked at sweep
     * boundaries, so a long sweep overruns by at most one sweep.
     * submit() rejects a negative or NaN budget; one beyond the
     * steady clock's range (e.g. +inf) means no deadline.
     */
    std::optional<double> deadline_seconds;

    /**
     * Caller-supplied cancellation token. Leave inert to have
     * submit() mint one (reachable through the JobHandle); supply
     * CancellationToken::make() to share one flag across jobs.
     * Cancellation is observed at sweep boundaries: a job cancelled
     * after sweep k resolves with exactly k sweeps' labels
     * (outcome = Cancelled), or with an EngineError(Cancelled) if it
     * never left the queue.
     */
    CancellationToken cancel;

    /**
     * Diagnostic hook run on the job's dispatcher thread after each
     * completed sweep (argument: sweeps completed so far). Runs
     * before the next sweep's cancellation/deadline check, so a
     * hook that trips the job's token after sweep k stops it with
     * exactly k sweeps run. Exceptions abort the job.
     */
    std::function<void(int)> on_sweep;

    /**
     * Device-fault campaign injected into the per-shard RSU-G units
     * before the first sweep (RsuGibbs jobs only; ignored
     * otherwise). Shard s receives plan.faultsFor(s, width). When a
     * shard's unit subsequently declares itself failed, the engine
     * finishes the job on the software Table path (see
     * InferenceResult::degraded).
     */
    std::optional<rsu::ret::FaultPlan> faults;
};

/** How a job's run ended (partial results carry non-Completed). */
enum class JobOutcome
{
    Completed,        //!< ran every requested sweep
    Cancelled,        //!< stopped early by its cancellation token
    DeadlineExceeded, //!< stopped early by its deadline
};

/** What a finished job returns. */
struct InferenceResult
{
    std::vector<rsu::mrf::Label> labels; //!< final (or best) field
    int64_t initial_energy = 0; //!< energy of the ML start
    int64_t final_energy = 0;   //!< energy of `labels`
    rsu::mrf::SamplerWork work; //!< summed over shards
    PhaseTiming phase_timing;   //!< per-colour-phase wall clock
    double elapsed_seconds = 0.0;

    /** Wall clock spent building this job's SweepTableSet; ~0 when
     * the engine's table cache already held the model's set
     * (table_cache_hit) or the path needs no tables (Reference /
     * RsuGibbs). */
    double table_build_seconds = 0.0;
    bool table_cache_hit = false;

    /** Result of the job's quality hook on `labels` (empty when the
     * job supplied none). */
    std::optional<double> quality;

    /** What() of an exception thrown by the quality hook. The hook
     * is advisory: its failure never discards the labelling, it
     * just leaves `quality` empty and the reason here. */
    std::string quality_error;

    /** Completed, or the reason the run stopped early. Partial
     * results are still whole numbers of sweeps (`sweeps_run` of
     * them) — cancellation never tears a sweep. */
    JobOutcome outcome = JobOutcome::Completed;

    /** True when a device fault forced this job off its RSU path
     * onto the software Table path mid-run. The sweeps already taken
     * on the device are kept — the chain continues from the current
     * label field. */
    bool degraded = false;

    /** Sweeps completed on the device path before degradation
     * (-1 when not degraded). */
    int degraded_at_sweep = -1;

    /** Device health/occupancy counters summed over the job's
     * RSU-G shards (zeros for software jobs); for degraded jobs,
     * the counters as of the moment of fallback. */
    rsu::core::RsuGStats device_stats;

    int sweeps_run = 0;
    int shards = 0;
};

/** What submit() does when the admission queue is full. */
enum class BackpressurePolicy
{
    Block,        //!< submit() blocks until a slot frees up
    RejectNewest, //!< submit() throws EngineError(QueueFull)
};

/** What shutdown() does with outstanding work (the destructor
 * drains). */
enum class ShutdownMode
{
    Drain,     //!< run every queued job to completion, then join
    CancelAll, //!< cancel running jobs, fail queued ones, join
};

/** InferenceEngine construction parameters. */
struct EngineOptions
{
    /** Pool worker threads; 0 = hardware concurrency. */
    int threads = 0;

    /** Jobs executed concurrently (their shard tasks interleave
     * on the pool); the rest wait queued. */
    int max_concurrent_jobs = 2;

    /** Admission-queue bound: jobs *waiting* (not yet dispatched);
     * 0 = unbounded. Crossing it applies `backpressure`. */
    int max_queued_jobs = 0;

    /** Reaction to a full admission queue. */
    BackpressurePolicy backpressure = BackpressurePolicy::Block;
};

/** Table-cache effectiveness counters (see tableCacheStats()). */
struct TableCacheStats
{
    uint64_t hits = 0;   //!< jobs served an already-built set
    uint64_t misses = 0; //!< jobs that had to build (then insert)
    int entries = 0;     //!< sets currently cached
};

/** Where a submitted job currently is in its lifecycle. */
enum class JobStatus
{
    Queued,    //!< accepted, waiting for a dispatcher
    Running,   //!< a dispatcher is executing it
    Done,      //!< future resolved after the job ran (any outcome)
    Cancelled, //!< future resolved without the job ever running
};

/**
 * Handle returned by InferenceEngine::submit(). The future is the
 * result channel (public — move it out freely, e.g. into a
 * vector<future>); cancel()/status() keep working afterwards. The
 * engine guarantees the future ALWAYS resolves — with a value
 * (possibly partial, see InferenceResult::outcome) or an
 * EngineError — even when the engine is destroyed first; it never
 * surfaces std::future_error from a broken promise.
 */
class JobHandle
{
  public:
    std::future<InferenceResult> future;

    /** Convenience forward of future.get(). */
    InferenceResult get() { return future.get(); }

    /** Request cooperative cancellation (safe from any thread). */
    void cancel() { control_->token.cancel(); }

    /** Lifecycle snapshot (racy by nature; exact once resolved). */
    JobStatus
    status() const
    {
        return control_->status.load(std::memory_order_acquire);
    }

    /** Sweeps the job has completed so far. */
    int
    sweepsDone() const
    {
        return control_->sweeps_done.load(std::memory_order_relaxed);
    }

    uint64_t id() const { return control_->id; }

  private:
    friend class InferenceEngine;

    /** Lifecycle state shared between the engine and the handle. */
    struct Control
    {
        CancellationToken token;
        std::atomic<JobStatus> status{JobStatus::Queued};
        std::atomic<int> sweeps_done{0};
        uint64_t id = 0;
    };

    std::shared_ptr<Control> control_;
};

/** Queues, batches, and executes inference jobs on a shared pool. */
class InferenceEngine
{
  public:
    using Options = EngineOptions;

    /** SweepTableSet cache entries kept (LRU eviction). */
    static constexpr int kTableCacheCapacity = 16;

    explicit InferenceEngine(Options options = {});

    /** Runs shutdown(Drain): every outstanding job runs and its
     * future resolves with its result. Call shutdown(CancelAll)
     * first to abandon outstanding work instead. */
    ~InferenceEngine();

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /**
     * Enqueue @p job; the handle's future resolves when it
     * completes (or carries the EngineError that refused/aborted
     * it). The job shares ownership of its singleton model, so the
     * caller has no lifetime obligations after this returns.
     *
     * Admission control: with max_queued_jobs set and the queue
     * full, Block waits for space (throwing EngineError(Cancelled)
     * if the engine shuts down first) and RejectNewest throws
     * EngineError(QueueFull).
     */
    JobHandle submit(InferenceJob job);

    /**
     * Stop accepting jobs and join the dispatchers. Drain finishes
     * all outstanding work first; CancelAll trips every running
     * job's token (they resolve with partial Cancelled results) and
     * resolves still-queued jobs with EngineError(Cancelled).
     * Idempotent; later calls (and the destructor) are no-ops.
     */
    void shutdown(ShutdownMode mode = ShutdownMode::Drain);

    /** Jobs accepted but not yet finished. */
    int pendingJobs() const;

    int threads() const { return pool_.size(); }

    /** Snapshot of the SweepTableSet cache counters. */
    TableCacheStats tableCacheStats() const;

  private:
    struct QueuedJob
    {
        InferenceJob job;
        std::promise<InferenceResult> promise;
        std::shared_ptr<JobHandle::Control> control;
        /** Absolute deadline, fixed at submit() so queue time
         * counts against the budget. */
        std::optional<std::chrono::steady_clock::time_point>
            deadline;
    };

    /**
     * What makes two jobs' static tables interchangeable: the same
     * singleton data source (by identity — the model interface is
     * opaque, so value equality is unknowable) and the same static
     * shape. Temperature is deliberately absent: SweepTableSet holds
     * no temperature-dependent state, so annealing jobs and
     * fixed-temperature jobs on one model share one set.
     */
    struct TableCacheKey
    {
        const rsu::mrf::SingletonModel *singleton = nullptr;
        int width = 0;
        int height = 0;
        int num_labels = 0;
        rsu::core::EnergyConfig energy;
        std::vector<rsu::mrf::Label> codes;

        bool operator==(const TableCacheKey &) const = default;
    };

    struct TableCacheEntry
    {
        TableCacheKey key;
        /** Pins the model while its tables are cached: the key
         * compares model *addresses*, so without this share a dead
         * model's address could be recycled by a new allocation and
         * alias a stale entry. Ownership makes the identity key
         * sound. */
        std::shared_ptr<const rsu::mrf::SingletonModel> model;
        std::shared_ptr<const rsu::mrf::SweepTableSet> set;
        /** Energy of the model's ML labelling, every job's start:
         * it depends only on the key, so hits skip that scan. */
        int64_t ml_energy = 0;
    };

    void dispatcherLoop();
    InferenceResult execute(QueuedJob &queued);

    /** Resolve a job that will never run with @p error (status
     * Cancelled, unfinished count decremented first). */
    void resolveUnrun(QueuedJob &queued, const EngineError &error);

    /**
     * The cached set for @p mrf's model, building (parallel row
     * scan) and inserting on a miss, and in @p ml_energy the energy
     * of the model's ML labelling (scanned on a scratch lattice on
     * a miss). Sets @p result's table_build_seconds /
     * table_cache_hit. Concurrent jobs on one new model may race to
     * build — both sets are identical, the loser's is dropped; the
     * build itself runs outside the cache lock so jobs on other
     * models are never stalled behind it.
     */
    std::shared_ptr<const rsu::mrf::SweepTableSet>
    acquireTableSet(const rsu::mrf::GridMrf &mrf,
                    const InferenceJob &job, InferenceResult &result,
                    int64_t &ml_energy);

    Options options_;
    ThreadPool pool_;
    std::vector<std::thread> dispatchers_;
    std::deque<QueuedJob> queue_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;       //!< queue has work / stopping
    std::condition_variable space_cv_; //!< queue has room (Block)
    bool stop_ = false;
    bool joined_ = false;
    int unfinished_ = 0;
    uint64_t next_id_ = 1;
    /** Controls of currently-running jobs (CancelAll targets). */
    std::vector<std::shared_ptr<JobHandle::Control>> running_;

    // Table cache (own lock: held only for lookup/insert, never
    // while building, so it cannot serialize job execution).
    mutable std::mutex table_mutex_;
    std::vector<TableCacheEntry> table_cache_; // front = LRU victim
    uint64_t table_hits_ = 0;
    uint64_t table_misses_ = 0;
};

} // namespace rsu::runtime

#endif // RSU_RUNTIME_INFERENCE_ENGINE_H
