// Fault-injection and degraded-mode tests: schedule generation, the
// PlatformHealth mask, health-aware planning, and the rescue protocol's
// guarantees (a rescued task never misses; accounting always conserves).
#include <gtest/gtest.h>

#include <cmath>

#include "core/baseline_rm.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/plan_instance.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

/// Same hand-built world as test_simulator: Table 1 on CPU1/CPU2/GPU,
/// every cross-resource migration costing 1.0 ms / 0.5 J.
struct MiniWorld {
    Platform platform = make_motivational_platform();
    Catalog catalog = make_motivational_catalog(1.0, 0.5);
};

// ---- schedule generation ----

TEST(FaultGeneration, DeterministicGivenSeed) {
    const MiniWorld world;
    FaultParams params;
    params.outage_rate = 4.0;
    params.outage_duration_mean = 30.0;
    params.throttle_rate = 3.0;
    params.permanent_prob = 0.3;

    Rng rng_a(123), rng_b(123);
    const FaultSchedule a = generate_fault_schedule(world.platform, params, 2000.0, rng_a);
    const FaultSchedule b = generate_fault_schedule(world.platform, params, 2000.0, rng_b);
    ASSERT_GT(a.size(), 0u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a.events()[k].kind, b.events()[k].kind);
        EXPECT_EQ(a.events()[k].resource, b.events()[k].resource);
        EXPECT_EQ(a.events()[k].start, b.events()[k].start); // bitwise
        EXPECT_EQ(a.events()[k].end, b.events()[k].end);
        EXPECT_EQ(a.events()[k].factor, b.events()[k].factor);
    }
}

TEST(FaultGeneration, ZeroParamsMeanNoFaults) {
    const MiniWorld world;
    Rng rng(7);
    EXPECT_TRUE(generate_fault_schedule(world.platform, FaultParams{}, 1000.0, rng).empty());
}

TEST(FaultGeneration, MinOnlineIsRespectedAtEveryInstant) {
    const MiniWorld world;
    FaultParams params;
    params.outage_rate = 20.0; // aggressive: without the guard, overlaps abound
    params.outage_duration_mean = 100.0;
    params.permanent_prob = 0.8;
    params.min_online = 2;
    Rng rng(99);
    const FaultSchedule schedule = generate_fault_schedule(world.platform, params, 3000.0, rng);
    ASSERT_GT(schedule.size(), 0u);

    // The offline count is piecewise constant with breakpoints at event
    // boundaries: probing each onset instant covers every plateau.
    for (const FaultEvent& event : schedule.events()) {
        if (!event.takes_offline()) continue;
        const PlatformHealth health = schedule.health_at(world.platform, event.start);
        EXPECT_GE(health.online_physical_count(world.platform), 2u);
    }
}

// ---- the health mask ----

TEST(FaultSchedule, HealthAtAppliesOfflineAndWorstThrottle) {
    const MiniWorld world;
    const FaultSchedule schedule(std::vector<FaultEvent>{
        {FaultKind::outage, 0, 10.0, 20.0, 1.0},
        {FaultKind::throttle, 0, 5.0, 30.0, 2.0},
        {FaultKind::throttle, 0, 15.0, 25.0, 3.0},
    });

    PlatformHealth at5 = schedule.health_at(world.platform, 5.0);
    EXPECT_TRUE(at5.online(0));
    EXPECT_DOUBLE_EQ(at5.throttle(0), 2.0);

    PlatformHealth at12 = schedule.health_at(world.platform, 12.0);
    EXPECT_FALSE(at12.online(0));

    // Intervals are half-open: at t=20 the outage is over, and the two
    // overlapping throttles resolve to the harsher factor.
    PlatformHealth at20 = schedule.health_at(world.platform, 20.0);
    EXPECT_TRUE(at20.online(0));
    EXPECT_DOUBLE_EQ(at20.throttle(0), 3.0);

    PlatformHealth at30 = schedule.health_at(world.platform, 30.0);
    EXPECT_TRUE(at30.all_nominal());
    EXPECT_EQ(at30.online_physical_count(world.platform), 3u);
}

TEST(PlatformHealth, DvfsSiblingsShareOneHealthEntry) {
    const Platform platform = PlatformBuilder()
                                  .add_cpu_with_dvfs({1.0, 0.5}, "BIG")
                                  .add_cpu("LITTLE")
                                  .build();
    const ResourceId anchor = platform.resource(0).physical();

    PlatformHealth health;
    health.set_online(platform, anchor, false);
    for (const Resource& resource : platform) {
        if (resource.physical() == anchor) EXPECT_FALSE(health.online(resource.id()));
        else EXPECT_TRUE(health.online(resource.id()));
    }

    PlatformHealth throttled;
    throttled.set_throttle(platform, anchor, 2.5);
    for (const Resource& resource : platform) {
        if (resource.physical() == anchor)
            EXPECT_DOUBLE_EQ(throttled.throttle(resource.id()), 2.5);
        else EXPECT_DOUBLE_EQ(throttled.throttle(resource.id()), 1.0);
    }
}

// ---- health-aware planning ----

TEST(PlanInstanceHealth, OfflineResourcesExcludedAndThrottleInflatesCpm) {
    const MiniWorld world;

    PlatformHealth health;
    health.set_online(world.platform, 2, false);  // GPU down
    health.set_throttle(world.platform, 0, 2.0);  // CPU1 at half speed

    ActiveTask candidate;
    candidate.uid = 7;
    candidate.type = 0;
    candidate.absolute_deadline = 100.0;

    ArrivalContext context;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.candidate = candidate;
    context.health = &health;

    const PlanInstance instance = PlanInstance::build(context, 0);
    ASSERT_EQ(instance.tasks.size(), 1u);
    const auto executable = instance.executable(0);
    EXPECT_EQ(std::vector<ResourceId>(executable.begin(), executable.end()),
              (std::vector<ResourceId>{0, 1}));
    EXPECT_DOUBLE_EQ(instance.cpm(0)[0], 16.0); // 8 x factor 2
    EXPECT_DOUBLE_EQ(instance.cpm(0)[1], 12.0);
    EXPECT_FALSE(std::isfinite(instance.cpm(0)[2]));
}

// ---- the rescue protocol ----

/// GPU outage at t=2.5 while a type-0 task (wcet 5 on the GPU) is halfway
/// through.  The GPU is non-preemptable, so the in-flight progress is lost
/// with it — a rescue restarts the task from scratch on a CPU.
FaultSchedule gpu_outage_at(Time onset, Time recovery) {
    return FaultSchedule(
        std::vector<FaultEvent>{{FaultKind::outage, 2, onset, recovery, 1.0}});
}

TEST(Rescue, HeuristicRescuesDisplacedGpuTaskAndRestartsIt) {
    const MiniWorld world;
    const Trace trace({Request{0.0, 0, 100.0}});
    HeuristicRM rm;
    NullPredictor off;
    SimOptions options;
    const FaultSchedule faults = gpu_outage_at(2.5, 50.0);
    options.fault_schedule = &faults;
    const TraceResult r = simulate_trace(world.platform, world.catalog, trace, rm, off, options);

    EXPECT_EQ(r.accepted, 1u);
    EXPECT_EQ(r.completed, 1u);
    EXPECT_EQ(r.deadline_misses, 0u);
    EXPECT_EQ(r.resource_outages, 1u);
    EXPECT_EQ(r.rescue_activations, 1u);
    EXPECT_EQ(r.rescued, 1u);
    EXPECT_EQ(r.fault_aborted, 0u);
    // The restart is not a migration: the GPU's execution state died with
    // the GPU, so there is nothing to move.
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_EQ(r.rescue_migrations, 0u);
    // Half the GPU energy is wasted (2.5 of 5 ms at 2 J total), then the
    // full task re-runs on CPU1 (the cheapest surviving resource, 7.3 J).
    EXPECT_NEAR(r.total_energy, 0.5 * 2.0 + 7.3, 1e-9);
    // Everything after the onset ran while the GPU was down.
    EXPECT_NEAR(r.degraded_energy, 7.3, 1e-9);
}

TEST(Rescue, BaselineAbortsWhatHeuristicRescues) {
    const MiniWorld world;
    const Trace trace({Request{0.0, 0, 100.0}});
    BaselineRM rm;
    NullPredictor off;
    SimOptions options;
    const FaultSchedule faults = gpu_outage_at(2.5, 50.0);
    options.fault_schedule = &faults;
    const TraceResult r = simulate_trace(world.platform, world.catalog, trace, rm, off, options);

    EXPECT_EQ(r.accepted, 1u);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.fault_aborted, 1u);
    EXPECT_EQ(r.rescued, 0u);
    EXPECT_EQ(r.deadline_misses, 0u);
    // Only the wasted GPU half remains on the meter.
    EXPECT_NEAR(r.total_energy, 1.0, 1e-9);
    // accepted = completed + aborted + fault_aborted
    EXPECT_EQ(r.accepted, r.completed + r.aborted + r.fault_aborted);
}

TEST(Rescue, ThrottleDoomsPinnedTaskWhenDeadlineUnreachable) {
    const MiniWorld world;
    // Deadline 6: the GPU plan (5 ms) fits.  At t=2.5 a x4 throttle makes
    // the remaining 2.5 ms of work take 10 ms — unreachable, and the task
    // is pinned to the GPU, so the rescue must abort it.
    const Trace trace({Request{0.0, 0, 6.0}});
    HeuristicRM rm;
    NullPredictor off;
    SimOptions options;
    const FaultSchedule faults(
        std::vector<FaultEvent>{{FaultKind::throttle, 2, 2.5, 50.0, 4.0}});
    options.fault_schedule = &faults;
    const TraceResult r = simulate_trace(world.platform, world.catalog, trace, rm, off, options);

    EXPECT_EQ(r.throttle_events, 1u);
    EXPECT_EQ(r.rescue_activations, 1u);
    EXPECT_EQ(r.fault_aborted, 1u);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.deadline_misses, 0u);
}

TEST(Rescue, MildThrottleStretchesExecutionButTaskStillMeetsDeadline) {
    const MiniWorld world;
    // x1.5 at t=2.5: the remaining 2.5 ms of GPU work takes 3.75 ms, so the
    // task completes at 6.25 — inside the 6.5 deadline, kept by the rescue.
    const Trace trace({Request{0.0, 0, 6.5}});
    HeuristicRM rm;
    NullPredictor off;
    SimOptions options;
    const FaultSchedule faults(
        std::vector<FaultEvent>{{FaultKind::throttle, 2, 2.5, 50.0, 1.5}});
    options.fault_schedule = &faults;
    const TraceResult r = simulate_trace(world.platform, world.catalog, trace, rm, off, options);

    EXPECT_EQ(r.completed, 1u);
    EXPECT_EQ(r.fault_aborted, 0u);
    EXPECT_EQ(r.deadline_misses, 0u);
    EXPECT_EQ(r.rescued, 0u); // throttled, not displaced
    // The second half of the work ran degraded: half the GPU's 2 J.
    EXPECT_NEAR(r.total_energy, 2.0, 1e-9);
    EXPECT_NEAR(r.degraded_energy, 1.0, 1e-9);
}

// ---- generated chaos: invariants across RMs ----

TEST(FaultChaos, AccountingConservesAndRescuersBeatBaseline) {
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::less_tight, 21);
    config.trace_count = 4;
    config.trace.length = 80;
    config.fault.outage_rate = 3.0;
    config.fault.outage_duration_mean = 50.0;
    config.fault.throttle_rate = 2.0;
    config.fault.permanent_prob = 0.2;
    config.fault.min_online = 2;
    const ExperimentRunner runner(config);

    std::size_t baseline_rescued = 0, heuristic_rescued = 0;
    std::size_t outages_seen = 0;
    for (const RmKind kind : {RmKind::baseline, RmKind::heuristic, RmKind::exact}) {
        const RunOutcome outcome = runner.run(RunSpec{kind, PredictorSpec::off()});
        for (const TraceResult& r : outcome.per_trace) {
            EXPECT_EQ(r.requests, r.accepted + r.rejected);
            EXPECT_EQ(r.accepted, r.completed + r.aborted + r.fault_aborted);
            EXPECT_EQ(r.deadline_misses, 0u);
            outages_seen += r.resource_outages;
            if (kind == RmKind::baseline) baseline_rescued += r.rescued;
            if (kind == RmKind::heuristic) heuristic_rescued += r.rescued;
        }
    }
    EXPECT_GT(outages_seen, 0u); // faults actually struck
    // The non-replanning baseline never migrates, so it can never rescue.
    EXPECT_EQ(baseline_rescued, 0u);
    EXPECT_GT(heuristic_rescued, baseline_rescued);
}

TEST(FaultChaos, RunsAreBitDeterministicGivenSeeds) {
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, 5);
    config.trace_count = 3;
    config.trace.length = 60;
    config.fault.outage_rate = 4.0;
    config.fault.throttle_rate = 2.0;
    config.fault.min_online = 2;

    const ExperimentRunner runner_a(config);
    const ExperimentRunner runner_b(config);
    const RunOutcome a = runner_a.run(RunSpec{RmKind::heuristic, PredictorSpec::off()});
    const RunOutcome b = runner_b.run(RunSpec{RmKind::heuristic, PredictorSpec::off()});
    ASSERT_EQ(a.per_trace.size(), b.per_trace.size());
    for (std::size_t t = 0; t < a.per_trace.size(); ++t)
        EXPECT_EQ(describe_differences(a.per_trace[t], b.per_trace[t]), "") << "trace " << t;
}

} // namespace
} // namespace rmwp
