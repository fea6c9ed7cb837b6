// Parallel execution for the Monte-Carlo experiment sweeps.
//
// The whole evaluation (Sec 5) is embarrassingly parallel: every
// (trace, RM, predictor) cell derives its randomness from fixed per-trace
// stream ids (`Rng(seed).derive(stream)`), so cells share no mutable state
// and can run on any thread in any order without perturbing a single draw.
// parallel_for exploits that with a self-scheduling index loop: threads
// claim the next unclaimed index from a shared atomic cursor, results are
// written to index-addressed slots, and the caller merges them in
// deterministic index order — `RMWP_JOBS=1` and `RMWP_JOBS=N` are required
// to produce bit-identical results (tests/test_parallel.cpp pins this).
#pragma once

#include <cstddef>
#include <functional>

namespace rmwp {

/// One-shot parallel index loop: runs fn(i) for i in [0, count) on `jobs`
/// threads — the caller plus min(jobs, count) - 1 threads started for this
/// call — or inline on the calling thread, in index order, when jobs <= 1
/// or count <= 1.  Each index is a whole trace simulation, so claiming one
/// index at a time balances load with negligible contention.  Completion
/// order is unspecified; determinism comes from writing results into
/// index-addressed slots.  After the first exception no new index starts,
/// and that exception is rethrown once every thread has joined.
void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// The session's parallelism: RMWP_JOBS when set (strictly parsed, >= 1),
/// otherwise the hardware concurrency (>= 1).
[[nodiscard]] std::size_t default_jobs();

} // namespace rmwp
