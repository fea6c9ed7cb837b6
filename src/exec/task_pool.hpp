// Parallel execution engine for the Monte-Carlo experiment sweeps.
//
// The whole evaluation (Sec 5) is embarrassingly parallel: every
// (trace, RM, predictor) cell derives its randomness from fixed per-trace
// stream ids (`Rng(seed).derive(stream)`), so cells share no mutable state
// and can run on any thread in any order without perturbing a single draw.
// TaskPool exploits that with a chunked self-scheduling index loop: workers
// steal the next unclaimed index from a shared atomic counter, results are
// written to index-addressed slots, and the caller merges them in
// deterministic index order — `RMWP_JOBS=1` and `RMWP_JOBS=N` are required
// to produce bit-identical results (tests/test_parallel.cpp pins this).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rmwp {

/// A fixed set of worker threads executing index ranges.  Workers
/// self-schedule single indices off a shared atomic cursor — each index of
/// an experiment sweep is a whole trace simulation, so per-index stealing
/// gives ideal load balance with negligible contention.
class TaskPool {
public:
    /// Spawns `threads` workers (at least 1).
    explicit TaskPool(std::size_t threads);
    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Run fn(i) for every i in [0, count), distributed across the workers;
    /// blocks until all indices completed.  The first exception thrown by
    /// any fn(i) is rethrown here (remaining unclaimed indices are
    /// abandoned).  Not reentrant: one for_each at a time per pool.
    void for_each(std::size_t count, const std::function<void(std::size_t)>& fn);

private:
    void worker_loop();
    void run_indices();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    std::uint64_t generation_ = 0; ///< bumped per for_each to wake workers
    std::size_t busy_ = 0;         ///< workers currently inside a job
    bool stop_ = false;

    // Per-job state (valid between start and completion of one for_each).
    const std::function<void(std::size_t)>* fn_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0};
    std::atomic<std::size_t> done_{0};
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;
};

/// One-shot parallel index loop: runs fn(i) for i in [0, count) on `jobs`
/// threads (inline on the calling thread when jobs <= 1 or count <= 1).
/// Completion order is unspecified; determinism comes from writing results
/// into index-addressed slots.  Rethrows the first exception.
void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// The session's parallelism: RMWP_JOBS when set (strictly parsed, >= 1),
/// otherwise the hardware concurrency (>= 1).
[[nodiscard]] std::size_t default_jobs();

} // namespace rmwp
