// Tests for the parallel experiment engine (src/exec + exp/runner fan-out):
// the one-shot parallel_for loop, the RMWP_JOBS session default, and the
// determinism contract of DESIGN.md Sec 9 — running the same experiment at
// jobs=1 and jobs=8 must produce bit-identical TraceResults (only the host
// wall-clock fields may differ), across every RM kind, through run, run_all
// and run_with, with fault injection and the independent auditor enabled.
// No assertion depends on how the threads are scheduled.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/heuristic_rm.hpp"
#include "exec/task_pool.hpp"
#include "exp/runner.hpp"

namespace rmwp {
namespace {

// ---- parallel_for primitive ----

TEST(ParallelFor, ExecutesEveryIndexExactlyOnce) {
    constexpr std::size_t kCount = 5000;
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for(4, kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroCountIsANoOp) {
    parallel_for(1, 0, [&](std::size_t) { FAIL() << "must not be called"; });
    parallel_for(4, 0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, RethrowsFromThreadedPath) {
    EXPECT_THROW(parallel_for(4, 200,
                              [&](std::size_t i) {
                                  if (i == 57) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
}

TEST(ParallelFor, RethrowsFromSerialPath) {
    std::size_t calls = 0;
    EXPECT_THROW(parallel_for(1, 10,
                              [&](std::size_t i) {
                                  ++calls;
                                  if (i == 3) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    EXPECT_EQ(calls, 4u); // the serial loop stops at the throwing index
}

TEST(ParallelFor, SerialPathRunsInOrderOnCallingThread) {
    std::vector<std::size_t> order;
    const std::thread::id caller = std::this_thread::get_id();
    parallel_for(1, 10, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, MoreJobsThanIndices) {
    std::vector<std::atomic<int>> hits(3);
    parallel_for(16, 3, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

// ---- RMWP_JOBS session default ----

/// Sets an environment variable for the test's scope and restores the prior
/// state on destruction (the suite runs in one process; leaks would bleed
/// into later tests).
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        // RMWP_LINT_ALLOW(R2): saves/restores RMWP_JOBS around a test, not a seed source
        const char* old = std::getenv(name);
        if (old != nullptr) previous_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() {
        if (previous_.has_value()) ::setenv(name_, previous_->c_str(), 1);
        else ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* name_;
    std::optional<std::string> previous_;
};

TEST(DefaultJobs, HonoursRmwpJobs) {
    const ScopedEnv env("RMWP_JOBS", "3");
    EXPECT_EQ(default_jobs(), 3u);
}

TEST(DefaultJobs, FallsBackToHardwareConcurrency) {
    const ScopedEnv env("RMWP_JOBS", "");
    EXPECT_GE(default_jobs(), 1u);
}

TEST(DefaultJobs, RejectsMalformedValues) {
    {
        const ScopedEnv env("RMWP_JOBS", "two");
        EXPECT_THROW(std::ignore = default_jobs(), std::runtime_error);
    }
    {
        const ScopedEnv env("RMWP_JOBS", "0");
        EXPECT_THROW(std::ignore = default_jobs(), std::runtime_error);
    }
}

// ---- determinism contract (DESIGN.md Sec 9) ----

/// Small-but-not-trivial configuration exercising every random stream:
/// catalog + trace generation, a noisy predictor, and fault injection (so
/// rescue re-planning runs too).  The auditor is on by default in SimOptions,
/// so every admission and rescue is independently re-verified in both runs.
ExperimentConfig test_config(std::uint64_t seed = 42) {
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, seed);
    config.trace_count = 6;
    config.trace.length = 40;
    config.fault.outage_rate = 0.004;
    config.fault.throttle_rate = 0.004;
    config.fault.permanent_prob = 0.2;
    return config;
}

PredictorSpec noisy_predictor() {
    PredictorSpec predictor;
    predictor.kind = PredictorSpec::Kind::noisy;
    predictor.type_accuracy = 0.8;
    predictor.time_nrmse = 0.2;
    return predictor;
}

void expect_outcomes_identical(const RunOutcome& a, const RunOutcome& b) {
    ASSERT_EQ(a.per_trace.size(), b.per_trace.size());
    for (std::size_t t = 0; t < a.per_trace.size(); ++t)
        EXPECT_EQ(describe_differences(a.per_trace[t], b.per_trace[t]), "")
            << "trace " << t << " differs between jobs=1 and jobs=8";
    // The aggregate is derived from per-trace results in trace order, so the
    // statistics must be bit-identical too (exact double equality intended).
    EXPECT_EQ(a.aggregate.rejection_percent.mean(), b.aggregate.rejection_percent.mean());
    EXPECT_EQ(a.aggregate.normalized_energy.mean(), b.aggregate.normalized_energy.mean());
    EXPECT_EQ(a.aggregate.migrations.mean(), b.aggregate.migrations.mean());
    EXPECT_EQ(a.aggregate.loss_percent.mean(), b.aggregate.loss_percent.mean());
    EXPECT_EQ(a.aggregate.rescued.mean(), b.aggregate.rescued.mean());
}

class ParallelDeterminism : public ::testing::TestWithParam<RmKind> {};

TEST_P(ParallelDeterminism, JobsOneAndEightAreBitIdentical) {
    const ExperimentConfig config = test_config();
    const ExperimentRunner serial(config, 1);
    const ExperimentRunner parallel(config, 8);
    ASSERT_EQ(serial.jobs(), 1u);
    ASSERT_EQ(parallel.jobs(), 8u);

    const RunSpec spec{GetParam(), noisy_predictor()};
    expect_outcomes_identical(serial.run(spec), parallel.run(spec));
}

INSTANTIATE_TEST_SUITE_P(AllRms, ParallelDeterminism,
                         ::testing::Values(RmKind::heuristic, RmKind::exact, RmKind::baseline),
                         [](const ::testing::TestParamInfo<RmKind>& param_info) {
                             return std::string(to_string(param_info.param));
                         });

TEST(ParallelDeterminism, MilpJobsOneAndEightAreBitIdentical) {
    // The literal MILP encoding is orders of magnitude slower (paper Sec
    // 4.2), so it gets a miniature grid rather than being skipped.
    ExperimentConfig config = test_config();
    config.trace_count = 2;
    config.trace.length = 8;
    const ExperimentRunner serial(config, 1);
    const ExperimentRunner parallel(config, 8);
    const RunSpec spec{RmKind::milp, PredictorSpec::off()};
    expect_outcomes_identical(serial.run(spec), parallel.run(spec));
}

TEST(ParallelDeterminism, SharedRmInstanceAcrossThreads) {
    // run_with shares one RM object across worker threads; decide()/rescue()
    // must be re-entrant and produce the serial results.
    const ExperimentConfig config = test_config(7);
    const ExperimentRunner serial(config, 1);
    const ExperimentRunner parallel(config, 8);

    HeuristicRM serial_rm;
    HeuristicRM shared_rm;
    expect_outcomes_identical(serial.run_with(serial_rm, noisy_predictor()),
                              parallel.run_with(shared_rm, noisy_predictor()));
}

TEST(ParallelDeterminism, RunAllMatchesSerialPerSpecRuns) {
    // The cell-level fan-out (one parallel_for over the whole (spec, trace)
    // grid) must merge back to exactly what running each spec serially
    // produces.
    const ExperimentConfig config = test_config(11);
    const ExperimentRunner grid(config, 8);
    const ExperimentRunner serial(config, 1);

    const std::vector<RunSpec> specs{
        RunSpec{RmKind::heuristic, PredictorSpec::off()},
        RunSpec{RmKind::heuristic, noisy_predictor()},
        RunSpec{RmKind::exact, PredictorSpec::perfect()},
        RunSpec{RmKind::baseline, PredictorSpec::off()},
    };
    const std::vector<RunOutcome> outcomes = grid.run_all(specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t c = 0; c < specs.size(); ++c) {
        EXPECT_EQ(outcomes[c].spec.rm, specs[c].rm);
        expect_outcomes_identical(serial.run(specs[c]), outcomes[c]);
    }
}

TEST(ParallelDeterminism, RunEqualsSerialRunWithOfItsRm) {
    // run(spec) builds one RM per grid point; run_with shares the one it is
    // given.  Both must produce the same results.
    const ExperimentConfig config = test_config(13);
    const ExperimentRunner parallel(config, 8);
    const ExperimentRunner serial(config, 1);
    const RunSpec spec{RmKind::heuristic, noisy_predictor()};
    const RunOutcome outcome = parallel.run(spec);
    EXPECT_EQ(outcome.spec.rm, spec.rm);
    expect_outcomes_identical(serial.run_with(*make_rm(spec.rm), spec.predictor), outcome);
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable) {
    // Two parallel runs of the same spec must agree with each other, not
    // just with the serial run (guards against any hidden shared state).
    const ExperimentConfig config = test_config(23);
    const ExperimentRunner parallel(config, 8);
    const RunSpec spec{RmKind::heuristic, noisy_predictor()};
    expect_outcomes_identical(parallel.run(spec), parallel.run(spec));
}

} // namespace
} // namespace rmwp
