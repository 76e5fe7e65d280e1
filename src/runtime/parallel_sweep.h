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
 * shard.
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
#include "mrf/schedule.h"
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
     * One checkerboard sweep of a width x height lattice:
     * fn(shard, x, y) is invoked for every parity-0 site (each shard
     * concurrently, row-major within a shard), then — after a
     * barrier — for every parity-1 site. Each phase is one
     * ThreadPool::run fork-join that the caller's thread blocks on;
     * fn must touch only shard-local state plus sites the chromatic
     * argument makes safe (the site itself and its opposite-parity
     * neighbours).
     *
     * An exception thrown by @p fn on any shard is rethrown here
     * (first one wins) once every shard of that phase finished; the
     * remaining phase is skipped and the pool stays usable.
     * Cancellation is not checked here: the caller decides between
     * sweeps whether to start another (see InferenceEngine).
     */
    template <typename Fn>
    void
    sweep(int width, int height, Fn &&fn)
    {
        // The split visit with one callable on both classes is the
        // plain checkerboard sweep (identical site order).
        sweepSplit(width, height, fn, fn);
    }

    /**
     * sweep() with the lattice-interior/border split: for sites
     * whose four neighbours all exist, interior(shard, x, y) runs
     * instead of border(shard, x, y). Visit order is identical to
     * sweep() — the split selects a kernel, never reorders — so a
     * per-shard entropy stream is consumed the same way on either
     * form. This is how the table-driven fast path drives its
     * branch-free interior kernel per shard
     * (mrf::forEachSiteInRowsSplit classifies by lattice
     * coordinates, so band-edge rows of an interior shard still run
     * the interior kernel).
     */
    template <typename FnInterior, typename FnBorder>
    void
    sweepSplit(int width, int height, FnInterior &&interior,
               FnBorder &&border)
    {
        const auto bands = shardRows(height, shards_);
        for (int parity = 0; parity < 2; ++parity) {
            const auto start = std::chrono::steady_clock::now();
            pool_.run(shards_, [&](int s) {
                rsu::mrf::forEachSiteInRowsSplit(
                    width, height, bands[s].y0, bands[s].y1, parity,
                    [&](int x, int y) { interior(s, x, y); },
                    [&](int x, int y) { border(s, x, y); });
            });
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            (parity == 0 ? timing_.even_seconds
                         : timing_.odd_seconds) += elapsed.count();
        }
        ++timing_.sweeps;
    }

    const PhaseTiming &timing() const { return timing_; }
    void resetTiming() { timing_ = PhaseTiming{}; }

  private:
    ThreadPool &pool_;
    int shards_;
    PhaseTiming timing_;
};

} // namespace rsu::runtime

#endif // RSU_RUNTIME_PARALLEL_SWEEP_H
