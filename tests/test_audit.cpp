// The plan auditor: crafted invalid plans must each trigger the specific
// diagnostic, clean RM decisions must audit clean, audited runs must be
// bit-identical to unaudited ones, and the differential mode must agree
// with the exact search on small instances.
#include <gtest/gtest.h>

#include <cmath>

#include <vector>

#include "audit/audit.hpp"
#include "core/edf.hpp"
#include "core/heuristic_rm.hpp"
#include "fault/fault.hpp"
#include "platform/health.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

/// Same hand-built world as test_simulator: Table 1 on CPU1/CPU2/GPU,
/// every cross-resource migration costing 1.0 ms / 0.5 J.
struct MiniWorld {
    Platform platform = make_motivational_platform();
    Catalog catalog = make_motivational_catalog(1.0, 0.5);
    ScheduleAuditor auditor;

    [[nodiscard]] ArrivalContext context_for(const ActiveTask& candidate, Time now = 0.0) const {
        ArrivalContext context;
        context.now = now;
        context.platform = &platform;
        context.catalog = &catalog;
        context.candidate = candidate;
        return context;
    }
};

[[nodiscard]] ActiveTask make_task(TaskUid uid, TaskTypeId type, Time arrival, Time deadline) {
    ActiveTask task;
    task.uid = uid;
    task.type = type;
    task.arrival = arrival;
    task.absolute_deadline = deadline;
    return task;
}

[[nodiscard]] ScheduleItem make_item(TaskUid uid, ResourceId resource, Time release,
                                     Time deadline, double duration) {
    ScheduleItem item;
    item.uid = uid;
    item.resource = resource;
    item.release = release;
    item.abs_deadline = deadline;
    item.duration = duration;
    return item;
}

// ---- clean plans audit clean ----

TEST(Auditor, CleanDecisionPasses) {
    const MiniWorld world;
    HeuristicRM rm;
    ArrivalContext context = world.context_for(make_task(0, 0, 0.0, 30.0));
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    const AuditReport report = world.auditor.audit_decision(context, decision);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Auditor, CleanRejectionPasses) {
    const MiniWorld world;
    HeuristicRM rm;
    // Deadline shorter than the best WCET: nothing can serve it.
    ArrivalContext context = world.context_for(make_task(0, 0, 0.0, 2.0));
    const Decision decision = rm.decide(context);
    ASSERT_FALSE(decision.admitted);
    const AuditReport report = world.auditor.audit_decision(context, decision);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// ---- crafted invalid plans: each triggers its specific diagnostic ----

TEST(Auditor, OverlappingReservationsDiagnosed) {
    const MiniWorld world;
    // Two design-time windows on CPU1 that overlap in [5, 10).
    std::vector<ScheduleItem> items{
        make_item(kReservedUidBase | 1, 0, 0.0, 10.0, 10.0),
        make_item(kReservedUidBase | 2, 0, 5.0, 15.0, 10.0),
    };
    for (ScheduleItem& item : items) item.reserved = true;
    const WindowSchedule schedule = build_window_schedule(world.platform, 0.0, items);
    const AuditReport report = world.auditor.audit_window(world.platform, 0.0, items, schedule);
    EXPECT_TRUE(report.has(AuditCode::reservation_overlap)) << report.summary();
}

TEST(Auditor, OfflineResourceMappingDiagnosed) {
    const MiniWorld world;
    PlatformHealth health;
    health.set_online(world.platform, 2, false); // GPU down

    ArrivalContext context = world.context_for(make_task(0, 0, 0.0, 40.0));
    context.health = &health;

    Decision decision;
    decision.admitted = true;
    decision.assignments = {TaskAssignment{0, 2}}; // onto the offline GPU
    const AuditReport report = world.auditor.audit_decision(context, decision);
    EXPECT_TRUE(report.has(AuditCode::offline_resource)) << report.summary();
}

TEST(Auditor, OverfullWindowDiagnosed) {
    const MiniWorld world;
    // 24 ms of demand squeezed into a 10 ms window on one core.
    std::vector<ScheduleItem> items{
        make_item(1, 0, 0.0, 10.0, 8.0),
        make_item(2, 0, 0.0, 10.0, 8.0),
        make_item(3, 0, 0.0, 10.0, 8.0),
    };
    const WindowSchedule schedule = build_window_schedule(world.platform, 0.0, items);
    const AuditReport report = world.auditor.audit_window(world.platform, 0.0, items, schedule);
    EXPECT_TRUE(report.has(AuditCode::demand_overflow)) << report.summary();
}

TEST(Auditor, MiscountedMigrationDiagnosed) {
    const MiniWorld world;
    ActiveTask task = make_task(7, 0, 0.0, 60.0);
    task.resource = 0;
    task.started = true;
    task.remaining_fraction = 0.5;

    // Relocating CPU1 -> CPU2: 0.5 * 12 work + 1.0 migration = 7.0 ms.
    // Charging the migration twice yields 8.0.
    const std::vector<ActiveTask> active{task};
    std::vector<ScheduleItem> items{make_item(7, 1, 10.0, 60.0, 8.0)};
    const AuditReport report =
        world.auditor.audit_items(world.platform, world.catalog, 10.0, active, items);
    EXPECT_TRUE(report.has(AuditCode::migration_miscount)) << report.summary();

    // Charged exactly once: clean.
    items[0].duration = 7.0;
    EXPECT_TRUE(world.auditor.audit_items(world.platform, world.catalog, 10.0, active, items)
                    .ok());
}

TEST(Auditor, ThrottleIgnoredDiagnosed) {
    const MiniWorld world;
    PlatformHealth health;
    health.set_throttle(world.platform, 0, 1.5);

    ActiveTask task = make_task(3, 0, 0.0, 60.0);
    task.resource = 0;
    const std::vector<ActiveTask> active{task};

    // Planned with the nominal 8 ms WCET; the throttled core needs 12.
    std::vector<ScheduleItem> items{make_item(3, 0, 0.0, 60.0, 8.0)};
    const AuditReport report =
        world.auditor.audit_items(world.platform, world.catalog, 0.0, active, items, &health);
    EXPECT_TRUE(report.has(AuditCode::throttle_ignored)) << report.summary();

    items[0].duration = 12.0;
    EXPECT_TRUE(world.auditor
                    .audit_items(world.platform, world.catalog, 0.0, active, items, &health)
                    .ok());
}

TEST(Auditor, EnergyConservationDiagnosed) {
    const MiniWorld world;
    ArrivalContext context = world.context_for(make_task(0, 0, 0.0, 30.0));
    const PlanInstance instance = PlanInstance::build(context, 0);

    const std::vector<ResourceId> mapping{2}; // GPU: 2.0 J
    EXPECT_TRUE(world.auditor.audit_plan_energy(instance, mapping, 2.0).ok());
    const AuditReport report = world.auditor.audit_plan_energy(instance, mapping, 1.0);
    EXPECT_TRUE(report.has(AuditCode::energy_mismatch)) << report.summary();
}

TEST(Auditor, EdfOrderViolationDiagnosed) {
    const MiniWorld world;
    // Tight deadline (5) vs. loose (20), both released at 0 on CPU1 — but
    // the forged timeline runs the loose one first.
    const std::vector<ScheduleItem> items{
        make_item(1, 0, 0.0, 5.0, 2.0),
        make_item(2, 0, 0.0, 20.0, 2.0),
    };
    WindowSchedule forged;
    forged.start = 0.0;
    forged.feasible = true;
    forged.per_resource.resize(world.platform.size());
    forged.per_resource[0].segments = {Segment{2, 0.0, 2.0}, Segment{1, 2.0, 4.0}};
    forged.completion = {{1, 4.0}, {2, 2.0}}; // sorted by uid

    const AuditReport report = world.auditor.audit_window(world.platform, 0.0, items, forged);
    EXPECT_TRUE(report.has(AuditCode::edf_order)) << report.summary();

    // The honest EDF order is clean.
    const WindowSchedule honest = build_window_schedule(world.platform, 0.0, items);
    EXPECT_TRUE(world.auditor.audit_window(world.platform, 0.0, items, honest).ok());
}

TEST(Auditor, RescuePartitionViolationDiagnosed) {
    const MiniWorld world;
    ActiveTask task = make_task(4, 0, 0.0, 50.0);
    task.resource = 0;
    const std::vector<ActiveTask> active{task};

    RescueContext context;
    context.now = 5.0;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.active = active;

    // The task vanishes from both lists: not a partition of the survivors.
    const AuditReport report = world.auditor.audit_rescue(context, RescueDecision{});
    EXPECT_TRUE(report.has(AuditCode::rescue_partition)) << report.summary();

    RescueDecision keep;
    keep.kept = {TaskAssignment{4, 0}};
    EXPECT_TRUE(world.auditor.audit_rescue(context, keep).ok());
}

// ---- audited runs are bit-identical to unaudited ones ----

TEST(Auditor, AuditedRunIsBitIdenticalToUnaudited) {
    const MiniWorld world;
    TraceGenParams params;
    params.length = 120;
    Rng trace_rng(2024);
    const Trace trace = generate_trace(world.catalog, params, trace_rng);

    FaultParams fault_params;
    fault_params.outage_rate = 2.0;
    fault_params.outage_duration_mean = 40.0;
    fault_params.throttle_rate = 1.0;
    Rng fault_rng(7);
    const FaultSchedule faults =
        generate_fault_schedule(world.platform, fault_params, 1000.0, fault_rng);

    const auto run = [&](bool audit) {
        HeuristicRM rm;
        OraclePredictor oracle;
        SimOptions options;
        options.audit = audit;
        options.fault_schedule = &faults;
        return simulate_trace(world.platform, world.catalog, trace, rm, oracle, options);
    };
    const TraceResult audited = run(true);
    const TraceResult plain = run(false);

#ifdef RMWP_AUDIT
    EXPECT_GT(audited.audit_checks, 0u);
    EXPECT_EQ(plain.audit_checks, 0u);
#endif
    // Every simulated quantity must match bitwise; only the host fields and
    // the audit pass count (which auditing itself produces) may differ.
    TraceResult unaudited = plain;
    unaudited.audit_checks = audited.audit_checks;
    EXPECT_EQ(describe_differences(audited, unaudited), "");
}

// ---- differential mode ----

TEST(Auditor, DifferentialNeverContradictsHeuristicAdmits) {
    const MiniWorld world;
    TraceGenParams params;
    params.length = 60;
    Rng trace_rng(11);
    const Trace trace = generate_trace(world.catalog, params, trace_rng);

    HeuristicRM rm;
    OraclePredictor oracle;
    SimOptions options;
    options.audit_differential = true;
    // Throws audit_error on any admit the complete search refutes.
    const TraceResult result =
        simulate_trace(world.platform, world.catalog, trace, rm, oracle, options);
#ifdef RMWP_AUDIT
    EXPECT_GT(result.audit_differential_checks, 0u);
#else
    EXPECT_EQ(result.audit_differential_checks, 0u);
#endif
}

TEST(Auditor, DifferentialFlagsImpossibleAdmit) {
    const MiniWorld world;
    // Candidate that provably fits nowhere: deadline below every WCET.
    ArrivalContext context = world.context_for(make_task(0, 0, 0.0, 2.0));
    Decision bogus;
    bogus.admitted = true;
    bogus.assignments = {TaskAssignment{0, 2}};
    const auto differential = world.auditor.differential_admission(context, bogus);
    ASSERT_TRUE(differential.checked);
    EXPECT_FALSE(differential.exact_admits);
    EXPECT_TRUE(differential.report.has(AuditCode::differential_admit))
        << differential.report.summary();
}

// ---- event-queue tie-break contracts (deterministic simultaneity) ----

TEST(EventQueueContract, DispatchIsMonotoneAndPastSchedulingThrows) {
    EventQueue queue;
    queue.schedule(5.0, 0, 1);
    queue.schedule(5.0, 1, 2);
    const Event first = queue.pop();
    const Event second = queue.pop();
    // Equal timestamps dispatch in insertion order (fault onset vs. arrival
    // interleavings are therefore deterministic).
    EXPECT_EQ(first.kind, 0u);
    EXPECT_EQ(second.kind, 1u);
    // The dispatched past is sealed.
    EXPECT_THROW(queue.schedule(4.0, 0, 3), precondition_error);
    EXPECT_THROW(queue.schedule(std::nan(""), 0, 4), precondition_error);
    queue.schedule(5.0, 2, 5); // the present is still fine
    EXPECT_EQ(queue.pop().kind, 2u);
}

TEST(EventQueueContract, FaultOnsetCoincidingWithArrivalIsDeterministic) {
    const MiniWorld world;
    // An arrival at exactly t = 30 and a GPU outage onset at exactly t = 30.
    const Trace trace({Request{0.0, 0, 40.0}, Request{30.0, 0, 40.0}});
    std::vector<FaultEvent> events(1);
    events[0].kind = FaultKind::outage;
    events[0].resource = 2;
    events[0].start = 30.0;
    events[0].end = 50.0;
    const FaultSchedule faults{std::move(events)};

    const auto run = [&] {
        HeuristicRM rm;
        NullPredictor off;
        SimOptions options;
        options.fault_schedule = &faults;
        return simulate_trace(world.platform, world.catalog, trace, rm, off, options);
    };
    // Arrivals are enqueued before fault events, so the coinciding arrival
    // was decided under pre-fault health and the onset then rescued it if
    // needed — either way both runs took the same deterministic path.
    EXPECT_EQ(describe_differences(run(), run()), "");
}

} // namespace
} // namespace rmwp
