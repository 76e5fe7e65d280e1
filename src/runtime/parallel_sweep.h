/**
 * @file
 * Chromatic (checkerboard) parallel sweep executor.
 *
 * Realizes the paper's Figure 4 argument in software: a first-order
 * grid MRF is 2-colourable, every neighbour of an even-parity site is
 * odd-parity, so all sites of one colour have mutually independent
 * full conditionals and may be resampled concurrently. A sweep is two
 * phases — parity 0, barrier, parity 1 — and within a phase the
 * lattice rows are cut into contiguous row-band shards, one task per
 * shard. The executor hands its caller rows, not sites: the caller
 * resamples one row's sites of the phase's colour per call (the
 * sweep core's row kernel, see ChromaticGibbsSampler).
 *
 * Determinism: the executor is deterministic in (shard count, what
 * the per-shard update callable does), NOT in thread scheduling. A
 * shard index is a stable identity: shard s always covers the same
 * rows and is always driven with the same shard-local state (RNG
 * stream, scratch, emulated device) no matter which pool thread
 * happens to execute it. Since same-phase updates never read each
 * other's sites, the label field after a sweep depends only on
 * (initial labels, per-shard streams) — bit-identical across runs
 * and across pool sizes for a fixed shard count.
 */

#ifndef RSU_RUNTIME_PARALLEL_SWEEP_H
#define RSU_RUNTIME_PARALLEL_SWEEP_H

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/tables.h"
#include "runtime/thread_pool.h"

namespace rsu::runtime {

/**
 * A core::RowParallelFor that fans row fills out over @p pool
 * (used to parallelize SweepTableSet's singleton scan). Rows are
 * cut into contiguous chunks, ~4 per worker for load balance; the
 * caller's thread blocks until every row ran. Falls back to a
 * sequential loop for tiny row counts or a single-worker pool.
 * The produced table is identical either way — each row's fill is
 * independent, so only wall clock changes. @p pool must outlive
 * the returned callable.
 */
rsu::core::RowParallelFor parallelRowRunner(ThreadPool &pool);

/** Half-open row range [y0, y1) owned by one shard. */
struct RowBand
{
    int y0 = 0;
    int y1 = 0;

    int rows() const { return y1 - y0; }
};

/**
 * Cut @p height rows into @p shards contiguous bands whose sizes
 * differ by at most one row (leading bands take the remainder).
 * Shards beyond the row count get empty bands.
 */
std::vector<RowBand> shardRows(int height, int shards);

/** Wall-clock spent inside each colour phase, summed over sweeps. */
struct PhaseTiming
{
    double even_seconds = 0.0; //!< parity-0 phases, including barrier
    double odd_seconds = 0.0;  //!< parity-1 phases, including barrier
    uint64_t sweeps = 0;

    double total() const { return even_seconds + odd_seconds; }
};

/** Runs checkerboard sweeps over a thread pool in row-band shards. */
class ParallelSweepExecutor
{
  public:
    /**
     * @param pool execution substrate (must outlive the executor);
     *        tasks from several executors may interleave on one pool
     * @param shards shard (and RNG-stream) count; fixes the
     *        deterministic partition independently of pool size.
     *        0 selects the pool size.
     */
    ParallelSweepExecutor(ThreadPool &pool, int shards = 0);

    int shards() const { return shards_; }

    /**
     * One checkerboard sweep of a lattice @p height rows tall:
     * fn(shard, y, 0) is invoked for every row of every shard's band
     * (each shard concurrently, rows in order within a shard), then
     * — after a barrier — fn(shard, y, 1). fn(shard, y, parity)
     * resamples the sites of row y whose colour (x + y) mod 2 is
     * parity. Each phase is one ThreadPool::run fork-join that the
     * caller's thread blocks on; fn must touch only shard-local
     * state plus sites the chromatic argument makes safe (the row's
     * sites of that colour and their opposite-colour neighbours).
     *
     * An exception thrown by @p fn on any shard is rethrown here
     * (first one wins) once every shard of that phase finished; the
     * remaining phase is skipped and the pool stays usable.
     * Cancellation is not checked here: the caller decides between
     * sweeps whether to start another (see InferenceEngine).
     */
    template <typename Fn>
    void
    sweep(int height, Fn &&fn)
    {
        const auto bands = shardRows(height, shards_);
        for (int parity = 0; parity < 2; ++parity) {
            const auto start = std::chrono::steady_clock::now();
            pool_.run(shards_, [&](int s) {
                for (int y = bands[s].y0; y < bands[s].y1; ++y)
                    fn(s, y, parity);
            });
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            (parity == 0 ? timing_.even_seconds
                         : timing_.odd_seconds) += elapsed.count();
        }
        ++timing_.sweeps;
    }

    const PhaseTiming &timing() const { return timing_; }

  private:
    ThreadPool &pool_;
    int shards_;
    PhaseTiming timing_;
};

} // namespace rsu::runtime

#endif // RSU_RUNTIME_PARALLEL_SWEEP_H
