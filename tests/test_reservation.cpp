// Tests for design-time critical reservations (Sec 2): window expansion,
// EDF engine semantics (absolute priority, non-preemptable dispatch
// blocking), RM capacity carving, and end-to-end simulation guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>

#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/reservation.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

const Resource kCpu(0, ResourceKind::cpu, "CPU");
const Resource kGpu(1, ResourceKind::gpu, "GPU");

/// EDF on a platform of one resource of `resource`'s kind: the window
/// schedule of `items`, all mapped to resource 0.
WindowSchedule schedule_on(const Resource& resource, Time now,
                           std::span<const ScheduleItem> items) {
    PlatformBuilder builder;
    if (resource.preemptable()) builder.add_cpu(resource.name());
    else builder.add_gpu(resource.name());
    return build_window_schedule(builder.build(), now, items);
}

/// The finish time of `uid` in `schedule`; throws when it never finished.
Time completion_at(const WindowSchedule& schedule, TaskUid uid) {
    const std::optional<Time> at = schedule.completion_of(uid);
    if (!at) throw std::out_of_range("no completion recorded");
    return *at;
}

/// The blocks `table` expands for `resource` over [from, until).
std::vector<ScheduleItem> blocks_of(const ReservationTable& table, ResourceId resource, Time from,
                                    Time until) {
    std::vector<ScheduleItem> blocks;
    table.blocks_for(resource, from, until, blocks);
    return blocks;
}

ScheduleItem adaptive(TaskUid uid, double duration, Time deadline, Time release = 0.0) {
    ScheduleItem it;
    it.uid = uid;
    it.release = release;
    it.abs_deadline = deadline;
    it.duration = duration;
    return it;
}

ScheduleItem block(TaskUid uid, Time start, double duration) {
    ScheduleItem it;
    it.uid = kReservedUidBase + uid;
    it.release = start;
    it.abs_deadline = start + duration;
    it.duration = duration;
    it.reserved = true;
    return it;
}

// ---- uid space ----

TEST(ReservedUid, Classification) {
    EXPECT_FALSE(is_reserved_uid(0));
    EXPECT_FALSE(is_reserved_uid(123456));
    EXPECT_FALSE(is_reserved_uid(kPredictedUid));
    EXPECT_TRUE(is_reserved_uid(kReservedUidBase));
    EXPECT_TRUE(is_reserved_uid(kReservedUidBase + 42));
}

// ---- table expansion ----

TEST(ReservationTable, ExpandsPeriodicWindows) {
    const ReservationTable table({CriticalTask{"ctrl", 0, /*period=*/10.0, /*offset=*/2.0,
                                               /*duration=*/3.0, /*energy=*/1.0}});
    const auto blocks = blocks_of(table, 0, 0.0, 25.0);
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_DOUBLE_EQ(blocks[0].release, 2.0);
    EXPECT_DOUBLE_EQ(blocks[0].duration, 3.0);
    EXPECT_DOUBLE_EQ(blocks[1].release, 12.0);
    EXPECT_DOUBLE_EQ(blocks[2].release, 22.0);
    for (const auto& b : blocks) {
        EXPECT_TRUE(b.reserved);
        EXPECT_TRUE(is_reserved_uid(b.uid));
        EXPECT_DOUBLE_EQ(b.abs_deadline, b.release + b.duration);
    }
    // Uids are stable and distinct across instances.
    EXPECT_NE(blocks[0].uid, blocks[1].uid);
    const auto again = blocks_of(table, 0, 0.0, 25.0);
    EXPECT_EQ(again[1].uid, blocks[1].uid);

    // blocks_for appends: what the buffer held stays in front.
    std::vector<ScheduleItem> buffer = blocks;
    table.blocks_for(0, 0.0, 25.0, buffer);
    ASSERT_EQ(buffer.size(), 6u);
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(buffer[k].uid, blocks[k].uid);
        EXPECT_EQ(buffer[3 + k].uid, blocks[k].uid);
    }
}

TEST(ReservationTable, ClipsInProgressWindow) {
    const ReservationTable table({CriticalTask{"ctrl", 0, 10.0, 0.0, 4.0, 1.0}});
    const auto blocks = blocks_of(table, 0, 1.5, 6.0);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_DOUBLE_EQ(blocks[0].release, 1.5);
    EXPECT_DOUBLE_EQ(blocks[0].duration, 2.5); // remaining part of [0, 4)
    EXPECT_DOUBLE_EQ(blocks[0].abs_deadline, 4.0);
}

TEST(ReservationTable, NoBlocksForOtherResources) {
    const ReservationTable table({CriticalTask{"ctrl", 1, 10.0, 0.0, 4.0, 1.0}});
    EXPECT_TRUE(blocks_of(table, 0, 0.0, 100.0).empty());
    EXPECT_EQ(blocks_of(table, 1, 0.0, 100.0).size(), 10u);
}

TEST(ReservationTable, UtilizationAndValidation) {
    const ReservationTable table({CriticalTask{"a", 0, 10.0, 0.0, 2.0, 1.0},
                                  CriticalTask{"b", 0, 20.0, 5.0, 4.0, 1.0}});
    EXPECT_DOUBLE_EQ(table.utilization_of(0), 0.4);
    EXPECT_DOUBLE_EQ(table.utilization_of(1), 0.0);

    EXPECT_THROW(ReservationTable({CriticalTask{"", 0, 10.0, 0.0, 1.0, 1.0}}),
                 precondition_error); // empty name
    EXPECT_THROW(ReservationTable({CriticalTask{"x", 0, 10.0, 0.0, 11.0, 1.0}}),
                 precondition_error); // duration > period
    EXPECT_THROW(ReservationTable({CriticalTask{"x", 0, 10.0, 0.0, 6.0, 1.0},
                                   CriticalTask{"y", 0, 10.0, 0.0, 6.0, 1.0}}),
                 precondition_error); // over-utilised resource
}

// ---- EDF engine semantics ----

TEST(ReservedEdf, PreemptsAdaptiveTaskOnCpu) {
    // Adaptive task [0, 8) with a reservation [3, 5): the task splits and
    // finishes at 10.
    const std::vector<ScheduleItem> items{adaptive(1, 8.0, 20.0), block(0, 3.0, 2.0)};
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 10.0);
    EXPECT_DOUBLE_EQ(completion_at(result, kReservedUidBase + 0), 5.0);
    ASSERT_EQ(result.per_resource[0].segments.size(), 3u);
    EXPECT_DOUBLE_EQ(result.per_resource[0].segments[1].start, 3.0); // reservation exactly on time
    EXPECT_DOUBLE_EQ(result.per_resource[0].segments[1].end, 5.0);
}

TEST(ReservedEdf, ReservationBeatsEarlierDeadlineTask) {
    // Even a tighter-deadline adaptive task cannot displace a reservation.
    const std::vector<ScheduleItem> items{adaptive(1, 4.0, 6.0), block(0, 0.0, 3.0)};
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_DOUBLE_EQ(completion_at(result, kReservedUidBase + 0), 3.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 7.0);
    EXPECT_FALSE(result.feasible); // the adaptive task misses: 7 > 6
}

TEST(ReservedEdf, NonPreemptableDispatchBlocksOverlappingTask) {
    // GPU: a 6-unit task must not start at 0 because the reservation at 4
    // would be overrun; a 3-unit task fits.  The long task waits until the
    // window ends.
    const std::vector<ScheduleItem> items{adaptive(1, 6.0, 30.0), adaptive(2, 3.0, 25.0),
                                          block(0, 4.0, 2.0)};
    const WindowSchedule result = schedule_on(kGpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, 2), 3.0);                     // fits before the window
    EXPECT_DOUBLE_EQ(completion_at(result, kReservedUidBase + 0), 6.0);  // on time
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 12.0);                    // after the window
}

TEST(ReservedEdf, NonPreemptableIdlesWhenNothingFits) {
    const std::vector<ScheduleItem> items{adaptive(1, 6.0, 30.0), block(0, 4.0, 2.0)};
    const WindowSchedule result = schedule_on(kGpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    // The GPU idles [0, 4), runs the reservation, then the task.
    EXPECT_DOUBLE_EQ(completion_at(result, kReservedUidBase + 0), 6.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 12.0);
}

TEST(ReservedEdf, PinnedOverrunMakesReservationLate) {
    // A pinned task [0, 5) overlaps a reservation at 3: the reservation is
    // late, so the schedule is infeasible — the caller must handle it.
    std::vector<ScheduleItem> items{adaptive(1, 5.0, 30.0), block(0, 3.0, 2.0)};
    items[0].pinned_first = true;
    const WindowSchedule result = schedule_on(kGpu, 0.0, items);
    EXPECT_FALSE(result.feasible);
}

// ---- RM integration ----

struct ReservedWorld {
    Platform platform = make_paper_platform();
    Catalog catalog;
    ReservationTable reservations;

    static Catalog make_catalog(const Platform& platform) {
        CatalogParams params;
        Rng rng = Rng(404).derive(1);
        return generate_catalog(platform, params, rng);
    }

    ReservedWorld()
        : catalog(make_catalog(platform)),
          // A 40 %-utilisation control loop on the GPU plus a 25 % monitor
          // on CPU1.
          reservations({CriticalTask{"gpu-ctrl", 5, 20.0, 0.0, 8.0, 3.0},
                        CriticalTask{"cpu-mon", 0, 40.0, 10.0, 10.0, 2.0}}) {}
};

TEST(ReservedRm, HeuristicRespectsBlockedGpu) {
    const ReservedWorld world;
    // A GPU-urgent task arriving right before the reserved window cannot be
    // promised the GPU during [0, 8); its only chance is after.
    ArrivalContext context;
    context.now = 0.0;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.reservations = &world.reservations;
    context.candidate.uid = 1;
    context.candidate.type = 0;
    context.candidate.arrival = 0.0;
    const double gpu_wcet = world.catalog.type(0).wcet(5);
    context.candidate.absolute_deadline = 8.0 + gpu_wcet * 1.1; // fits only after the window

    HeuristicRM heuristic;
    const Decision decision = heuristic.decide(context);
    ASSERT_TRUE(decision.admitted);
    const WindowSchedule schedule = realize_decision(context, decision);
    EXPECT_TRUE(schedule.feasible);
    if (decision.assignments[0].resource == 5) {
        // If mapped to the GPU, it must start after the reserved window.
        const auto segments = schedule.segments_of(1);
        ASSERT_FALSE(segments.empty());
        EXPECT_GE(segments.front().start, 8.0 - 1e-9);
    }
}

TEST(ReservedRm, ExactAndHeuristicRejectWhenReservationsLeaveNoRoom) {
    const ReservedWorld world;
    ArrivalContext context;
    context.now = 0.0;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.reservations = &world.reservations;
    context.candidate.uid = 1;
    context.candidate.type = 0;
    context.candidate.arrival = 0.0;
    // Deadline inside the reserved GPU window and far below any CPU WCET.
    context.candidate.absolute_deadline = 5.0;

    HeuristicRM heuristic;
    ExactRM exact;
    EXPECT_FALSE(heuristic.decide(context).admitted);
    EXPECT_FALSE(exact.decide(context).admitted);
}

// ---- end-to-end simulation ----

class ReservedSimulation : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(ReservedSimulation, GuaranteesHoldWithReservations) {
    const auto [seed, use_prediction] = GetParam();
    const ReservedWorld world;

    TraceGenParams params;
    params.length = 120;
    Rng trace_rng = Rng(seed).derive(7);
    const Trace trace = generate_trace(world.catalog, params, trace_rng);

    HeuristicRM rm;
    std::unique_ptr<Predictor> predictor;
    if (use_prediction) predictor = std::make_unique<OraclePredictor>();
    else predictor = std::make_unique<NullPredictor>();

    const TraceResult result =
        simulate_trace(world.platform, world.catalog, trace, rm, *predictor, world.reservations);

    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.aborted, 0u);
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_GT(result.critical_energy, 0.0); // reserved windows actually ran
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReservedSimulation,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4), ::testing::Bool()));

TEST(ReservedSimulation2, ReservationsReduceAdaptiveAcceptance) {
    const ReservedWorld world;
    TraceGenParams params;
    params.length = 200;
    params.interarrival_mean = 5.0;
    params.interarrival_stddev = 1.6;
    Rng trace_rng = Rng(11).derive(7);
    const Trace trace = generate_trace(world.catalog, params, trace_rng);

    HeuristicRM rm;
    NullPredictor off;
    const TraceResult with_reservations =
        simulate_trace(world.platform, world.catalog, trace, rm, off, world.reservations);
    NullPredictor off2;
    const TraceResult without =
        simulate_trace(world.platform, world.catalog, trace, rm, off2);

    EXPECT_GT(with_reservations.rejected, without.rejected);
    EXPECT_DOUBLE_EQ(without.critical_energy, 0.0);
}

TEST(ReservedSimulation2, CriticalEnergyMatchesExecutedWindows) {
    // One reservation, a trace long enough for several instances: the
    // accounted critical energy must be an integer-ish multiple of the
    // per-instance energy (full windows) plus at most one partial window.
    const Platform platform = make_paper_platform();
    Rng rng = Rng(500).derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    const ReservationTable table({CriticalTask{"ctrl", 0, 25.0, 0.0, 5.0, 2.0}});

    TraceGenParams params;
    params.length = 40;
    Rng trace_rng = Rng(501).derive(2);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM rm;
    NullPredictor off;
    const TraceResult result = simulate_trace(platform, catalog, trace, rm, off, table);
    EXPECT_GT(result.critical_energy, 0.0);
    const double instances = result.critical_energy / 2.0;
    EXPECT_NEAR(instances, std::round(instances), 0.25); // mostly whole windows
}

} // namespace
} // namespace rmwp
