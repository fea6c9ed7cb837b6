// Tests for the metrics and experiment-harness modules: aggregation math,
// paired comparisons, runner determinism, trace sharing across specs, and
// configuration plumbing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "exp/runner.hpp"
#include "metrics/aggregate.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

TraceResult make_result(std::size_t requests, std::size_t rejected, double energy,
                        double reference) {
    TraceResult result;
    result.requests = requests;
    result.rejected = rejected;
    result.accepted = requests - rejected;
    result.total_energy = energy;
    result.reference_energy = reference;
    return result;
}

TEST(TraceResult, PercentMath) {
    const TraceResult result = make_result(200, 50, 30.0, 120.0);
    EXPECT_DOUBLE_EQ(result.rejection_percent(), 25.0);
    EXPECT_DOUBLE_EQ(result.acceptance_percent(), 75.0);
    EXPECT_DOUBLE_EQ(result.normalized_energy(), 0.25);
    EXPECT_DOUBLE_EQ(result.loss_percent(), 25.0);

    TraceResult with_aborts = result;
    with_aborts.aborted = 10;
    EXPECT_DOUBLE_EQ(with_aborts.loss_percent(), 30.0);

    const TraceResult empty{};
    EXPECT_DOUBLE_EQ(empty.rejection_percent(), 0.0);
    EXPECT_DOUBLE_EQ(empty.normalized_energy(), 0.0);
}

TEST(Aggregate, MeansOverTraces) {
    std::vector<TraceResult> results{make_result(100, 10, 5.0, 10.0),
                                     make_result(100, 30, 7.0, 10.0)};
    const AggregateResult aggregate = AggregateResult::over(results);
    EXPECT_DOUBLE_EQ(aggregate.rejection_percent.mean(), 20.0);
    EXPECT_DOUBLE_EQ(aggregate.normalized_energy.mean(), 0.6);
}

TEST(Aggregate, PairedComparison) {
    std::vector<TraceResult> a{make_result(10, 1, 1, 1), make_result(10, 2, 1, 1),
                               make_result(10, 3, 1, 1)};
    std::vector<TraceResult> b{make_result(10, 2, 1, 1), make_result(10, 2, 1, 1),
                               make_result(10, 1, 1, 1)};
    const PairedComparison comparison = compare_acceptance(a, b);
    EXPECT_EQ(comparison.traces, 3u);
    EXPECT_EQ(comparison.a_strictly_better, 1u);
    EXPECT_EQ(comparison.ties, 1u);
    EXPECT_EQ(comparison.b_strictly_better, 1u);
    EXPECT_NEAR(comparison.a_better_or_equal_percent(), 66.67, 0.01);
}

TEST(Aggregate, MismatchedLengthsThrow) {
    std::vector<TraceResult> a{make_result(10, 1, 1, 1)};
    std::vector<TraceResult> b;
    EXPECT_THROW(std::ignore = compare_acceptance(a, b), precondition_error);
}

TEST(Aggregate, PairedTTestDetectsConsistentDifference) {
    std::vector<TraceResult> worse;
    std::vector<TraceResult> better;
    for (std::size_t t = 0; t < 20; ++t) {
        // "worse" rejects 3-4 more requests out of 100 on every trace.
        worse.push_back(make_result(100, 10 + (t % 2), 1, 1));
        better.push_back(make_result(100, 7 - (t % 2), 1, 1));
    }
    const PairedTTest test = paired_rejection_test(worse, better);
    EXPECT_EQ(test.pairs, 20u);
    EXPECT_NEAR(test.mean_difference, 3.5, 0.6);
    EXPECT_TRUE(test.significant());
    EXPECT_LT(test.p_value, 1e-6);
}

TEST(Aggregate, PairedTTestNullCase) {
    std::vector<TraceResult> a;
    std::vector<TraceResult> b;
    Rng rng(5);
    for (std::size_t t = 0; t < 30; ++t) {
        // Same distribution, independent noise: no systematic difference.
        a.push_back(make_result(100, 10 + rng.index(5), 1, 1));
        b.push_back(make_result(100, 10 + rng.index(5), 1, 1));
    }
    const PairedTTest test = paired_rejection_test(a, b);
    EXPECT_FALSE(test.significant(0.001));
}

TEST(Aggregate, PairedTTestZeroVariance) {
    std::vector<TraceResult> a{make_result(100, 10, 1, 1), make_result(100, 10, 1, 1)};
    std::vector<TraceResult> b = a;
    const PairedTTest identical = paired_rejection_test(a, b);
    EXPECT_DOUBLE_EQ(identical.p_value, 1.0);
}

TEST(Aggregate, CsvExportRoundTrips) {
    std::vector<TraceResult> results{make_result(100, 10, 5.0, 10.0),
                                     make_result(100, 20, 6.0, 10.0)};
    std::ostringstream os;
    write_results_csv(os, "test-config", results);
    const std::string text = os.str();
    // Header + two rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
    EXPECT_NE(text.find("label,trace,requests"), std::string::npos);
    EXPECT_NE(text.find("test-config,0,100,90,10"), std::string::npos);
    EXPECT_NE(text.find("test-config,1,100,80,20"), std::string::npos);
}

TEST(Config, PaperDefaultsAndPlatform) {
    const ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::less_tight, 7);
    EXPECT_EQ(config.seed, 7u);
    EXPECT_EQ(config.trace.group, DeadlineGroup::less_tight);
    EXPECT_EQ(config.catalog.type_count, 100u);
    const Platform platform = config.make_platform();
    EXPECT_EQ(platform.size(), 6u);
    EXPECT_EQ(platform.cpu_count(), 5u);
}

TEST(Config, RmFactoryAndLabels) {
    EXPECT_EQ(make_rm(RmKind::heuristic)->name(), "heuristic");
    EXPECT_EQ(make_rm(RmKind::exact)->name(), "exact");
    EXPECT_EQ(make_rm(RmKind::milp)->name(), "milp");
    EXPECT_EQ((RunSpec{RmKind::exact, PredictorSpec::perfect()}.label()), "exact/on");
}

TEST(Runner, TraceSetIsSharedAndDeterministic) {
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, 11);
    config.trace_count = 4;
    config.trace.length = 60;

    const ExperimentRunner runner_a(config);
    const ExperimentRunner runner_b(config);
    ASSERT_EQ(runner_a.traces().size(), 4u);
    for (std::size_t t = 0; t < 4; ++t) {
        ASSERT_EQ(runner_a.traces()[t].size(), runner_b.traces()[t].size());
        for (std::size_t j = 0; j < runner_a.traces()[t].size(); ++j)
            EXPECT_DOUBLE_EQ(runner_a.traces()[t].request(j).arrival,
                             runner_b.traces()[t].request(j).arrival);
    }
}

TEST(Runner, RepeatedRunsAreIdentical) {
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, 12);
    config.trace_count = 3;
    config.trace.length = 80;
    const ExperimentRunner runner(config);

    const RunSpec spec{RmKind::heuristic, PredictorSpec::perfect()};
    const RunOutcome a = runner.run(spec);
    const RunOutcome b = runner.run(spec);
    ASSERT_EQ(a.per_trace.size(), b.per_trace.size());
    for (std::size_t t = 0; t < a.per_trace.size(); ++t)
        EXPECT_EQ(describe_differences(a.per_trace[t], b.per_trace[t]), "") << "trace " << t;
}

TEST(Runner, NoisySpecsGetIndependentPerTraceStreams) {
    // Two different noisy runs over the same traces must see the *same*
    // noise (determinism), while different traces see different noise.
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, 13);
    config.trace_count = 3;
    config.trace.length = 80;
    const ExperimentRunner runner(config);

    PredictorSpec noisy;
    noisy.kind = PredictorSpec::Kind::noisy;
    noisy.type_accuracy = 0.5;
    const RunOutcome a = runner.run(RunSpec{RmKind::heuristic, noisy});
    const RunOutcome b = runner.run(RunSpec{RmKind::heuristic, noisy});
    for (std::size_t t = 0; t < a.per_trace.size(); ++t)
        EXPECT_EQ(describe_differences(a.per_trace[t], b.per_trace[t]), "") << "trace " << t;
}

TEST(Runner, OverheadCoefficientIsResolvedPerTrace) {
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, 14);
    config.trace_count = 3;
    config.trace.length = 120;
    config.trace.interarrival_mean = 5.0;
    config.trace.interarrival_stddev = 1.5;
    const ExperimentRunner runner(config);

    PredictorSpec heavy = PredictorSpec::perfect();
    heavy.overhead_interarrival_coeff = 0.2; // deliberately punishing
    const RunOutcome outcome = runner.run(RunSpec{RmKind::heuristic, heavy});
    std::size_t aborted = 0;
    for (const TraceResult& r : outcome.per_trace) aborted += r.aborted;
    EXPECT_GT(aborted, 0u); // the stall model actually engaged
}

TEST(Runner, EnvSizeParsesAndFallsBack) {
    ASSERT_EQ(unsetenv("RMWP_TEST_KNOB"), 0);
    EXPECT_EQ(env_size("RMWP_TEST_KNOB", 7), 7u);
    ASSERT_EQ(setenv("RMWP_TEST_KNOB", "", 1), 0);
    EXPECT_EQ(env_size("RMWP_TEST_KNOB", 7), 7u);
    ASSERT_EQ(setenv("RMWP_TEST_KNOB", "42", 1), 0);
    EXPECT_EQ(env_size("RMWP_TEST_KNOB", 7), 42u);
    ASSERT_EQ(unsetenv("RMWP_TEST_KNOB"), 0);
}

TEST(Runner, EnvSizeRejectsMalformedValuesLoudly) {
    // A typo'd scaling knob must not silently run the default-sized
    // experiment: set-but-invalid values throw instead of falling back.
    for (const char* bad : {"bogus", "12abc", "0", "-5", "+3", " 7", "1.5"}) {
        ASSERT_EQ(setenv("RMWP_TEST_KNOB", bad, 1), 0);
        EXPECT_THROW((void)env_size("RMWP_TEST_KNOB", 7), std::runtime_error)
            << "value: " << bad;
    }
    ASSERT_EQ(unsetenv("RMWP_TEST_KNOB"), 0);
}

TEST(Runner, PredictionImprovesAcceptanceOnTightDeadlines) {
    // The paper's headline effect, as a regression test at small scale.
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, 42);
    config.trace_count = 8;
    config.trace.length = 250;
    const ExperimentRunner runner(config);
    const RunOutcome off = runner.run(RunSpec{RmKind::heuristic, PredictorSpec::off()});
    const RunOutcome on = runner.run(RunSpec{RmKind::heuristic, PredictorSpec::perfect()});
    EXPECT_LT(on.mean_rejection_percent(), off.mean_rejection_percent());
}

} // namespace
} // namespace rmwp
