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
    } join{task, {}, {}, n, nullptr};

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (int i = 0; i < n; ++i)
            queue_.push_back([j = &join, i] {
                std::exception_ptr error;
                try {
                    j->task(i);
                } catch (...) {
                    error = std::current_exception();
                }
                // Notify under the lock: the caller's frame (and
                // `join`) may vanish the moment it can reacquire it.
                const std::lock_guard<std::mutex> lock(j->mutex);
                if (error && !j->first_error)
                    j->first_error = error;
                if (--j->remaining == 0)
                    j->done.notify_all();
            });
    }
    cv_.notify_all();

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
