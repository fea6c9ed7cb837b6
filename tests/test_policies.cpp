// Tests for the policy extensions: the greedy non-replanning BaselineRM
// (E14) and the periodic-activation mode (E15).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/baseline_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/oracle.hpp"
#include "exp/runner.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

/// Two CPUs, two task types, no migration cost: crafted so that admitting
/// the second task *requires* moving the first one.
struct CraftedWorld {
    Platform platform = PlatformBuilder{}.add_cpu("CPU1").add_cpu("CPU2").build();
    Catalog catalog = [] {
        const std::size_t n = 2;
        const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
        std::vector<TaskType> types;
        // Type A: equal speed everywhere, much cheaper on CPU1.
        types.emplace_back(0, std::vector<double>{10.0, 10.0}, std::vector<double>{1.0, 5.0},
                           zero, zero);
        // Type B: only fast enough on CPU1.
        types.emplace_back(1, std::vector<double>{8.0, 30.0}, std::vector<double>{2.0, 9.0},
                           zero, zero);
        return Catalog(std::move(types));
    }();
};

TEST(BaselineRm, PlacesSingleTaskOnCheapestFeasibleResource) {
    const CraftedWorld world;
    ArrivalContext context;
    context.now = 0.0;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.candidate.uid = 0;
    context.candidate.type = 0;
    context.candidate.absolute_deadline = 100.0;

    BaselineRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    EXPECT_EQ(decision.assignments[0].resource, 0u); // CPU1: 1 J vs 5 J
}

TEST(BaselineRm, CannotSaveTaskThatNeedsReplanning) {
    // tau_A runs on CPU1 since t=0 (deadline 15).  tau_B arrives at t=1 and
    // fits nowhere without moving tau_A; the baseline must reject it, the
    // paper's heuristic migrates tau_A to CPU2 and admits.
    const CraftedWorld world;
    ActiveTask running;
    running.uid = 0;
    running.type = 0;
    running.arrival = 0.0;
    running.absolute_deadline = 15.0;
    running.resource = 0;
    running.started = true;
    running.remaining_fraction = 0.9; // 1 ms executed
    const std::vector<ActiveTask> active{running};

    ArrivalContext context;
    context.now = 1.0;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.active = active;
    context.candidate.uid = 1;
    context.candidate.type = 1;
    context.candidate.arrival = 1.0;
    context.candidate.absolute_deadline = 11.0;

    BaselineRM baseline;
    EXPECT_FALSE(baseline.decide(context).admitted);

    HeuristicRM heuristic;
    const Decision decision = heuristic.decide(context);
    ASSERT_TRUE(decision.admitted);
    // tau_A moved off CPU1, tau_B placed on it.
    for (const TaskAssignment& assignment : decision.assignments) {
        if (assignment.uid == 0) {
            EXPECT_EQ(assignment.resource, 1u);
        }
        if (assignment.uid == 1) {
            EXPECT_EQ(assignment.resource, 0u);
        }
    }
    EXPECT_TRUE(realize_decision(context, decision).feasible);
}

TEST(BaselineRm, NeverMovesExistingTasks) {
    const Platform platform = make_paper_platform();
    Rng rng = Rng(31).derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 200;
    Rng trace_rng = Rng(31).derive(2);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    BaselineRM rm;
    NullPredictor off;
    const TraceResult result = simulate_trace(platform, catalog, trace, rm, off);
    EXPECT_EQ(result.migrations, 0u);
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.completed, result.accepted);
}

TEST(BaselineRm, WeakerThanThePaperHeuristic) {
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, 17);
    config.trace_count = 10;
    config.trace.length = 300;
    const ExperimentRunner runner(config);
    const RunOutcome baseline = runner.run(RunSpec{RmKind::baseline, PredictorSpec::off()});
    const RunOutcome heuristic = runner.run(RunSpec{RmKind::heuristic, PredictorSpec::off()});
    EXPECT_GT(baseline.mean_rejection_percent(), heuristic.mean_rejection_percent());
    EXPECT_STREQ(to_string(RmKind::baseline), "baseline");
    EXPECT_EQ(make_rm(RmKind::baseline)->name(), "baseline");
}

// ---- periodic activation ----

TEST(PeriodicActivation, QueueingDelayConsumesSlack) {
    // One request at t=5 with 3.5 ms of slack over its 3 ms GPU run.
    // Per-arrival: starts at 5, done at 8 <= 8.5: accepted.  With a 4 ms
    // activation period the decision waits until t=8; 8 + 3 > 8.5: rejected.
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();
    const Trace trace({Request{5.0, 1, 3.5}});

    HeuristicRM rm;
    NullPredictor off_a;
    const TraceResult immediate = simulate_trace(platform, catalog, trace, rm, off_a);
    EXPECT_EQ(immediate.accepted, 1u);

    SimOptions options;
    options.activation_period = 4.0;
    NullPredictor off_b;
    const TraceResult batched =
        simulate_trace(platform, catalog, trace, rm, off_b, options);
    EXPECT_EQ(batched.rejected, 1u);
    EXPECT_EQ(batched.activations, 1u);
}

TEST(PeriodicActivation, BatchesShareOneActivation) {
    // Three arrivals inside one period: one activation, all decided there.
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();
    const Trace trace(
        {Request{1.0, 0, 100.0}, Request{2.0, 1, 100.0}, Request{3.0, 0, 100.0}});

    HeuristicRM rm;
    NullPredictor off;
    SimOptions options;
    options.activation_period = 10.0;
    const TraceResult result = simulate_trace(platform, catalog, trace, rm, off, options);
    EXPECT_EQ(result.activations, 1u);
    EXPECT_EQ(result.accepted, 3u);
    EXPECT_EQ(result.completed, 3u);
}

TEST(PeriodicActivation, ArrivalMergedIntoAPastWakeIsStillDecided) {
    // With a 0.1 ms period, 0.9 wakes at itself, and the next double after
    // it rounds to a boundary within the merge tolerance of 0.9 — a wake-up
    // that has already passed when that request arrives.  With no later
    // wake-up set, the request must still be decided, not dropped.
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();
    const Trace trace({Request{0.9, 0, 100.0}, Request{std::nextafter(0.9, 1.0), 1, 100.0}});

    HeuristicRM rm;
    NullPredictor off;
    SimOptions options;
    options.activation_period = 0.1;
    const TraceResult result = simulate_trace(platform, catalog, trace, rm, off, options);
    EXPECT_EQ(result.requests, 2u);
    EXPECT_EQ(result.accepted + result.rejected, 2u);
    EXPECT_EQ(result.activations, 2u);
}

TEST(PeriodicActivation, InvariantsHoldOnRealisticWorkloads) {
    const Platform platform = make_paper_platform();
    Rng rng = Rng(91).derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 250;
    Rng trace_rng = Rng(91).derive(2);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM rm;
    for (const double period : {3.0, 6.0, 12.0}) {
        OraclePredictor oracle;
        SimOptions options;
        options.activation_period = period;
        const TraceResult result =
            simulate_trace(platform, catalog, trace, rm, oracle, options);
        EXPECT_EQ(result.deadline_misses, 0u);
        EXPECT_EQ(result.accepted + result.rejected, result.requests);
        EXPECT_EQ(result.completed, result.accepted);
        EXPECT_LT(result.activations, result.requests);
    }
}

TEST(PeriodicActivation, BatchingCostsAcceptanceWithoutOverhead) {
    const Platform platform = make_paper_platform();
    Rng rng = Rng(92).derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 300;
    Rng trace_rng = Rng(92).derive(2);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM rm;
    NullPredictor off_a;
    const TraceResult immediate = simulate_trace(platform, catalog, trace, rm, off_a);

    SimOptions options;
    options.activation_period = 12.0; // 2x the mean interarrival
    NullPredictor off_b;
    const TraceResult batched =
        simulate_trace(platform, catalog, trace, rm, off_b, options);
    EXPECT_GT(batched.rejected, immediate.rejected);
}

} // namespace
} // namespace rmwp
