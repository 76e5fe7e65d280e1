/**
 * @file
 * Fixed-size thread pool with one blocking fork-join call.
 *
 * The execution substrate of the chromatic inference runtime. The
 * paper's parallelism argument (section 4.2, Figure 4) is phase
 * structured: all same-colour checkerboard sites may update at once,
 * but a colour phase must fully retire before the opposite colour
 * starts. That is one fork-join per phase, so the pool offers exactly
 * that: run(n, task) runs index 0 on the caller and fans the other
 * n - 1 indices out over a fixed set of workers draining one FIFO
 * queue (no work stealing), and returns once all of them finished.
 * Shard tasks within a phase are uniform row bands of one lattice,
 * so stealing would buy nothing and cost determinism-debugging
 * pain.
 */

#ifndef RSU_RUNTIME_THREAD_POOL_H
#define RSU_RUNTIME_THREAD_POOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rsu::runtime {

/** Fixed-size FIFO thread pool. */
class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 0 selects the hardware
     *        concurrency (at least 1)
     */
    explicit ThreadPool(int num_threads = 0);

    /** Joins the workers after draining queued tasks. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker thread count. */
    int size() const { return static_cast<int>(threads_.size()); }

    /**
     * Fork-join: run task(i) once for every i in [0, n) and block
     * until all n calls returned. Index 0 runs on the calling
     * thread, indices 1..n-1 on the workers; n == 0 calls nothing.
     * If any call threw, the first exception is rethrown — only
     * after every other call finished, so nothing still references
     * the caller's frame. Calls from several threads may interleave
     * on the pool; never call run() from inside a task.
     */
    void run(int n, const std::function<void(int)> &task);

    /** std::thread::hardware_concurrency(), at least 1. */
    static int hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace rsu::runtime

#endif // RSU_RUNTIME_THREAD_POOL_H
