#include "exec/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/env.hpp"

namespace rmwp {

void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
    if (jobs <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto work = [&] {
        while (!failed.load(std::memory_order_acquire)) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error) error = std::current_exception();
                failed.store(true, std::memory_order_release);
            }
        }
    };

    {
        // The caller is one of the streams; the jthreads join at the end of
        // this scope, before the error is read.
        const std::size_t streams = std::min(jobs, count);
        std::vector<std::jthread> threads;
        threads.reserve(streams - 1);
        for (std::size_t k = 1; k < streams; ++k) threads.emplace_back(work);
        work();
    }
    if (error) std::rethrow_exception(error);
}

std::size_t default_jobs() {
    const std::size_t hardware = std::max<unsigned>(std::thread::hardware_concurrency(), 1U);
    return env_size("RMWP_JOBS", hardware);
}

} // namespace rmwp
