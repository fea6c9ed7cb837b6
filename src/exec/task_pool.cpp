#include "exec/task_pool.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/env.hpp"

namespace rmwp {

TaskPool::TaskPool(std::size_t threads) {
    threads = std::max<std::size_t>(threads, 1);
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

TaskPool::~TaskPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void TaskPool::run_indices() {
    // Self-scheduling: claim one index at a time.  After an exception the
    // remaining indices are still claimed but skipped, so `done_` always
    // drains to `count_` and the waiter in for_each wakes up to rethrow —
    // parking the cursor instead would strand the unclaimed indices and
    // deadlock the completion wait.
    while (true) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count_) return;
        if (!failed_.load(std::memory_order_acquire)) {
            try {
                (*fn_)(i);
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(mutex_);
                    if (!error_) error_ = std::current_exception();
                }
                failed_.store(true, std::memory_order_release);
            }
        }
        if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == count_) {
            const std::lock_guard<std::mutex> lock(mutex_);
            done_cv_.notify_all();
        }
    }
}

void TaskPool::worker_loop() {
    std::uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
            ++busy_;
        }
        run_indices();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --busy_;
        }
        done_cv_.notify_all();
    }
}

void TaskPool::for_each(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    std::unique_lock<std::mutex> lock(mutex_);
    // A worker from the previous job may still be between its last index
    // and going idle; it reads the job state, so drain before rewriting it.
    done_cv_.wait(lock, [&] { return busy_ == 0; });
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    ++generation_;
    lock.unlock();
    start_cv_.notify_all();
    // The caller works too: with all indices claimed by workers this returns
    // immediately, otherwise it shortens the tail.
    run_indices();
    lock.lock();
    done_cv_.wait(lock, [&] { return done_.load(std::memory_order_acquire) == count_; });
    if (error_) {
        std::exception_ptr error = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
    if (jobs <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }
    // No point spawning more workers than indices; the caller participates,
    // so `jobs` total execution streams means jobs - 1 pool threads.
    TaskPool pool(std::min(jobs - 1, count - 1));
    pool.for_each(count, fn);
}

std::size_t default_jobs() {
    const std::size_t hardware = std::max<unsigned>(std::thread::hardware_concurrency(), 1U);
    return env_size("RMWP_JOBS", hardware);
}

} // namespace rmwp
