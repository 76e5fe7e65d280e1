#include "runtime/thread_pool.h"

#include <exception>
#include <stdexcept>
#include <utility>

namespace rsu::runtime {

int
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? static_cast<int>(n) : 1;
}

ThreadPool::ThreadPool(int num_threads)
{
    if (num_threads < 0)
        throw std::invalid_argument("ThreadPool: need threads >= 0");
    if (num_threads == 0)
        num_threads = hardwareThreads();
    threads_.reserve(num_threads);
    for (int i = 0; i < num_threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
ThreadPool::run(int n, const std::function<void(int)> &task)
{
    if (n < 0)
        throw std::invalid_argument("ThreadPool::run: need n >= 0");
    if (n == 0)
        return;

    // Join state on the caller's frame. Each queued closure holds
    // only a pointer to it and its index, which keeps the closure
    // inside std::function's small buffer (no allocation per task).
    struct Join
    {
        const std::function<void(int)> &task;
        std::mutex mutex;
        std::condition_variable done;
        int remaining;
        std::exception_ptr first_error;

        void
        call(int i)
        {
            std::exception_ptr error;
            try {
                task(i);
            } catch (...) {
                error = std::current_exception();
            }
            // Notify under the lock: the caller's frame (and this
            // object) may vanish the moment it can reacquire it.
            const std::lock_guard<std::mutex> lock(mutex);
            if (error && !first_error)
                first_error = error;
            if (--remaining == 0)
                done.notify_all();
        }
    } join{task, {}, {}, n, nullptr};

    // Indices 1..n-1 go to the workers; index 0 runs right here, so
    // the caller does a shard's work instead of only waiting on it.
    if (n > 1) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (int i = 1; i < n; ++i)
                queue_.push_back([j = &join, i] { j->call(i); });
        }
        cv_.notify_all();
    }
    join.call(0);

    std::unique_lock<std::mutex> lock(join.mutex);
    join.done.wait(lock, [&join] { return join.remaining == 0; });
    if (join.first_error)
        std::rethrow_exception(join.first_error);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace rsu::runtime
