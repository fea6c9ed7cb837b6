// Tests for the EDF scheduling engine — the semantics at the heart of both
// resource managers: EDF ordering, the predicted task's release-time
// preemption (the MILP's constraints (4)-(14) as behaviour), non-preemptable
// resources, pinned tasks, and feasibility detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/edf.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

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

ScheduleItem item(TaskUid uid, double duration, Time deadline, Time release = 0.0,
                  bool pinned = false) {
    ScheduleItem it;
    it.uid = uid;
    it.resource = 0;
    it.release = release;
    it.abs_deadline = deadline;
    it.duration = duration;
    it.pinned_first = pinned;
    return it;
}

/// All segments must be disjoint and time-ordered.
void expect_well_formed(const ResourceTimeline& timeline, Time now) {
    Time previous_end = now;
    for (const Segment& segment : timeline.segments) {
        EXPECT_GE(segment.start, previous_end - 1e-9);
        EXPECT_GT(segment.end, segment.start);
        previous_end = segment.end;
    }
}

TEST(Edf, SingleTaskRunsImmediately) {
    const std::vector<ScheduleItem> items{item(1, 5.0, 10.0)};
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    ASSERT_EQ(result.per_resource[0].segments.size(), 1u);
    EXPECT_DOUBLE_EQ(result.per_resource[0].segments[0].start, 0.0);
    EXPECT_DOUBLE_EQ(result.per_resource[0].segments[0].end, 5.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 5.0);
}

TEST(Edf, StartsAtNowNotZero) {
    std::vector<ScheduleItem> items{item(1, 5.0, 110.0, 100.0)};
    const WindowSchedule result = schedule_on(kCpu, 100.0, items);
    ASSERT_EQ(result.per_resource[0].segments.size(), 1u);
    EXPECT_DOUBLE_EQ(result.per_resource[0].segments[0].start, 100.0);
}

TEST(Edf, OrdersByDeadline) {
    const std::vector<ScheduleItem> items{item(1, 4.0, 20.0), item(2, 3.0, 5.0),
                                          item(3, 2.0, 12.0)};
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    // EDF: 2 (d=5), then 3 (d=12), then 1 (d=20).
    EXPECT_DOUBLE_EQ(completion_at(result, 2), 3.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 3), 5.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 9.0);
    expect_well_formed(result.per_resource[0], 0.0);
}

TEST(Edf, DetectsDeadlineViolation) {
    const std::vector<ScheduleItem> items{item(1, 4.0, 4.0), item(2, 3.0, 5.0)};
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    // Task 1 finishes at 4 (ok), task 2 at 7 > 5: infeasible.
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(resource_feasible(kCpu, 0.0, items));
}

TEST(Edf, ExactlyMeetingDeadlineIsFeasible) {
    const std::vector<ScheduleItem> items{item(1, 4.0, 4.0), item(2, 3.0, 7.0)};
    EXPECT_TRUE(resource_feasible(kCpu, 0.0, items));
}

TEST(Edf, DeadlineTieBreaksByUid) {
    const std::vector<ScheduleItem> items{item(7, 2.0, 10.0), item(3, 2.0, 10.0)};
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_DOUBLE_EQ(completion_at(result, 3), 2.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 7), 4.0);
}

TEST(Edf, ZeroDurationCompletesInstantly) {
    const std::vector<ScheduleItem> items{item(1, 0.0, 10.0), item(2, 3.0, 5.0)};
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 0.0);
    ASSERT_EQ(result.per_resource[0].segments.size(), 1u); // no zero-width segment emitted
}

// ---- predicted-task semantics (the virtual task has release = s_p) ----

TEST(EdfPredicted, LaterDeadlineQueuesAfterAll) {
    // Paper case (4)/(5): tau_p has the latest deadline; it runs at
    // max(s_p, q_i) where q_i is when everything else finishes.
    std::vector<ScheduleItem> items{item(1, 6.0, 10.0),
                                    item(kPredictedUid, 3.0, 20.0, /*release=*/2.0)};
    WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 6.0);
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 9.0); // starts at q = 6 > s_p = 2

    // s_p beyond q: starts at s_p.
    items[1].release = 8.0;
    result = schedule_on(kCpu, 0.0, items);
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 11.0);
    // The resource idles in [6, 8): verify via the segment start.
    ASSERT_EQ(result.per_resource[0].segments.size(), 2u);
    EXPECT_DOUBLE_EQ(result.per_resource[0].segments[1].start, 8.0);
}

TEST(EdfPredicted, EarlierDeadlineArrivingDuringSl1DoesNotPreempt) {
    // Paper case (6)/(7) with s_p <= q_i: SL1 (deadline <= d_p) runs first;
    // tau_p follows without preempting.
    const std::vector<ScheduleItem> items{
        item(1, 4.0, 6.0),                                   // SL1 (d=6 <= d_p=8)
        item(2, 5.0, 30.0),                                  // SL2
        item(kPredictedUid, 2.0, 8.0, /*release=*/1.0),      // d_p = 8
    };
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 4.0);
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 6.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 2), 11.0);
    // Task 1 must not be split.
    EXPECT_EQ(result.per_resource[0].segments.size(), 3u);
}

TEST(EdfPredicted, ArrivalAfterQPreemptsRunningSl2Task) {
    // Paper constraints (8)-(14): tau_p arrives while an SL2 task runs; the
    // task splits into two chunks around tau_p.
    const std::vector<ScheduleItem> items{
        item(1, 3.0, 5.0),                              // SL1, runs [0, 3)
        item(2, 8.0, 30.0),                             // SL2, starts at 3
        item(kPredictedUid, 2.0, 10.0, /*release=*/5.0) // preempts task 2 at 5
    };
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 3.0);
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 7.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 2), 13.0); // 8 units of work + 2 preempted

    // Task 2 must have exactly two chunks: [3, 5) and [7, 13).
    std::vector<Segment> chunks;
    for (const Segment& segment : result.per_resource[0].segments)
        if (segment.uid == 2) chunks.push_back(segment);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_DOUBLE_EQ(chunks[0].start, 3.0);
    EXPECT_DOUBLE_EQ(chunks[0].end, 5.0);
    EXPECT_DOUBLE_EQ(chunks[1].start, 7.0);
    EXPECT_DOUBLE_EQ(chunks[1].end, 13.0);
}

TEST(EdfPredicted, EqualDeadlineDoesNotPreempt) {
    // SL1 is "deadline earlier *or equal*": the predicted task loses ties.
    const std::vector<ScheduleItem> items{
        item(1, 6.0, 10.0),
        item(kPredictedUid, 2.0, 10.0, /*release=*/2.0),
    };
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 6.0); // not preempted at t=2
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 8.0);
    EXPECT_EQ(result.per_resource[0].segments.size(), 2u);
}

TEST(EdfPredicted, NoPreemptionOnGpu) {
    // Sec 4.1: preemption by the predicted task is not applied to a GPU.
    // The same scenario as ArrivalAfterQPreempts... but on the GPU: tau_p
    // waits for the running task to finish.
    const std::vector<ScheduleItem> items{
        item(1, 3.0, 5.0),
        item(2, 8.0, 30.0),
        item(kPredictedUid, 2.0, 16.0, /*release=*/5.0),
    };
    const WindowSchedule result = schedule_on(kGpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, 2), 11.0);              // runs [3, 11) unsplit
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 13.0);  // boundary dispatch at 11
    for (const Segment& segment : result.per_resource[0].segments)
        if (segment.uid == 2) {
            EXPECT_DOUBLE_EQ(segment.duration(), 8.0);
        }
}

TEST(EdfPredicted, GpuBoundaryDispatchPrefersPredictedWhenReleased) {
    // At a task boundary past s_p, EDF picks the (earlier-deadline)
    // predicted task before remaining SL2 work.
    const std::vector<ScheduleItem> items{
        item(1, 4.0, 6.0),
        item(2, 5.0, 40.0),
        item(3, 5.0, 50.0),
        item(kPredictedUid, 2.0, 12.0, /*release=*/3.0),
    };
    const WindowSchedule result = schedule_on(kGpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 4.0);
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 6.0); // boundary at 4 >= s_p = 3
    EXPECT_DOUBLE_EQ(completion_at(result, 2), 11.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 3), 16.0);
}

TEST(EdfPredicted, GpuWorkConservingBeforeRelease) {
    // If the boundary comes before s_p, the GPU does not idle waiting for
    // the predicted task: non-preemptive EDF is work-conserving.
    const std::vector<ScheduleItem> items{
        item(1, 2.0, 4.0),
        item(2, 6.0, 40.0),
        item(kPredictedUid, 2.0, 12.0, /*release=*/3.0),
    };
    const WindowSchedule result = schedule_on(kGpu, 0.0, items);
    // Boundary at t=2 < s_p=3: task 2 dispatches; tau_p must wait until 8.
    EXPECT_DOUBLE_EQ(completion_at(result, 2), 8.0);
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 10.0);
    EXPECT_TRUE(result.feasible);
}

// ---- pinned tasks ----

TEST(EdfPinned, PinnedRunsFirstDespiteLaterDeadline) {
    const std::vector<ScheduleItem> items{
        item(1, 5.0, 100.0, 0.0, /*pinned=*/true), // currently executing on the GPU
        item(2, 2.0, 8.0),                         // earlier deadline but must wait
    };
    const WindowSchedule result = schedule_on(kGpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 5.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 2), 7.0);
}

TEST(EdfPinned, ZeroDurationItemsCompleteAfterThePinnedHeadInAnyInputOrder) {
    // The zero-duration item completes when the pinned head ends (3), past
    // its deadline (1), whether it precedes or follows the head in the input.
    const ScheduleItem instant = item(1, 0.0, 1.0);
    const ScheduleItem head = item(100, 3.0, 50.0, 0.0, /*pinned=*/true);
    const std::vector<ScheduleItem> instant_first{instant, head};
    const std::vector<ScheduleItem> head_first{head, instant};
    const WindowSchedule result = schedule_on(kGpu, 0.0, instant_first);
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(schedule_on(kGpu, 0.0, head_first).feasible);
    EXPECT_FALSE(resource_feasible(kGpu, 0.0, instant_first));
    EXPECT_FALSE(resource_feasible(kGpu, 0.0, head_first));
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 3.0);
}

TEST(EdfPinned, SimulationIsInputOrderIndependent) {
    // Shuffled permutations of one GPU instance (pinned head, zero
    // durations, future releases) share the verdict and completion times.
    Rng rng(424242);
    for (int round = 0; round < 500; ++round) {
        const Time now = rng.uniform(0.0, 10.0);
        std::vector<ScheduleItem> items;
        const std::size_t count = 1 + rng.index(6);
        for (std::size_t j = 0; j < count; ++j) {
            const Time release = rng.bernoulli(0.3) ? now + rng.uniform(0.0, 6.0) : now;
            const double duration = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.2, 4.0);
            items.push_back(item(j + 1, duration, release + rng.uniform(0.1, 12.0), release));
        }
        items.push_back(item(100, rng.uniform(0.0, 4.0), now + rng.uniform(0.5, 8.0), now,
                             /*pinned=*/true));

        // Finishing order is not part of the contract (zero-duration items
        // finish in input order); the window schedule lists completions by
        // uid.
        const WindowSchedule reference = schedule_on(kGpu, now, items);
        for (int shuffle = 0; shuffle < 4; ++shuffle) {
            rng.shuffle(items);
            const WindowSchedule shuffled = schedule_on(kGpu, now, items);
            EXPECT_EQ(shuffled.feasible, reference.feasible) << "round " << round;
            EXPECT_EQ(shuffled.completion, reference.completion) << "round " << round;
            EXPECT_EQ(resource_feasible(kGpu, now, items), reference.feasible)
                << "round " << round;
        }
    }
}

TEST(EdfPinned, PinnedOnPreemptableResourceThrows) {
    const std::vector<ScheduleItem> items{item(1, 5.0, 100.0, 0.0, /*pinned=*/true)};
    EXPECT_THROW(std::ignore = schedule_on(kCpu, 0.0, items), precondition_error);
}

// ---- window-level assembly ----

TEST(WindowSchedule, GroupsByResourceAndReportsCompletions) {
    const Platform platform = make_motivational_platform();
    std::vector<ScheduleItem> items;
    ScheduleItem a = item(1, 5.0, 10.0);
    a.resource = 0;
    ScheduleItem b = item(2, 3.0, 6.0);
    b.resource = 2;
    items = {a, b};
    const WindowSchedule schedule = build_window_schedule(platform, 0.0, items);
    EXPECT_TRUE(schedule.feasible);
    ASSERT_EQ(schedule.per_resource.size(), 3u);
    EXPECT_EQ(schedule.per_resource[0].segments.size(), 1u);
    EXPECT_TRUE(schedule.per_resource[1].segments.empty());
    EXPECT_EQ(schedule.per_resource[2].segments.size(), 1u);
    EXPECT_DOUBLE_EQ(*schedule.completion_of(1), 5.0);
    EXPECT_DOUBLE_EQ(*schedule.completion_of(2), 3.0);
    EXPECT_FALSE(schedule.completion_of(99).has_value());
}

TEST(WindowSchedule, SegmentsOfCollectsAcrossResources) {
    const Platform platform = make_motivational_platform();
    ScheduleItem a = item(1, 5.0, 20.0);
    a.resource = 0;
    const WindowSchedule schedule = build_window_schedule(platform, 0.0, std::vector{a});
    const auto segments = schedule.segments_of(1);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_DOUBLE_EQ(segments[0].duration(), 5.0);
}

TEST(WindowSchedule, InvalidResourceIndexThrows) {
    const Platform platform = make_motivational_platform();
    ScheduleItem a = item(1, 5.0, 20.0);
    a.resource = 9;
    EXPECT_THROW(std::ignore = build_window_schedule(platform, 0.0, std::vector{a}),
                 precondition_error);
}

// ---- reserved + predicted interplay ----

TEST(EdfMixed, ReservationOutranksPredictedTask) {
    // A reservation and the predicted task both want the window [4, 6); the
    // reservation runs exactly on time and tau_p follows, even though the
    // predicted deadline is tight.
    ScheduleItem reservation;
    reservation.uid = kReservedUidBase + 1;
    reservation.release = 4.0;
    reservation.abs_deadline = 6.0;
    reservation.duration = 2.0;
    reservation.reserved = true;

    const std::vector<ScheduleItem> items{
        item(1, 3.0, 20.0),
        item(kPredictedUid, 3.0, 9.0, /*release=*/4.0),
        reservation,
    };
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    EXPECT_DOUBLE_EQ(completion_at(result, kReservedUidBase + 1), 6.0);
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 9.0); // after the window
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 3.0);             // runs [0,3), before the window
}

TEST(EdfMixed, PredictedPreemptsTaskThenReservationPreemptsPredicted) {
    // Real task runs from 0; tau_p (tight deadline) preempts it at 2; the
    // reservation at 4 preempts tau_p; everything resumes afterwards.
    ScheduleItem reservation;
    reservation.uid = kReservedUidBase + 2;
    reservation.release = 4.0;
    reservation.abs_deadline = 5.0;
    reservation.duration = 1.0;
    reservation.reserved = true;

    const std::vector<ScheduleItem> items{
        item(1, 6.0, 30.0),
        item(kPredictedUid, 3.0, 8.0, /*release=*/2.0),
        reservation,
    };
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);
    // Timeline: task1 [0,2), tau_p [2,4), reservation [4,5), tau_p [5,6),
    // task1 [6,10).
    EXPECT_DOUBLE_EQ(completion_at(result, kReservedUidBase + 2), 5.0);
    EXPECT_DOUBLE_EQ(completion_at(result, kPredictedUid), 6.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 1), 10.0);
    // tau_p must be split into two chunks around the reservation.
    std::size_t predicted_chunks = 0;
    for (const Segment& segment : result.per_resource[0].segments)
        if (segment.uid == kPredictedUid) ++predicted_chunks;
    EXPECT_EQ(predicted_chunks, 2u);
}

// ---- randomized properties ----

TEST(EdfProperty, FeasibleOnlyWhenAllCompletionsMeetDeadlines) {
    Rng rng(314);
    for (int round = 0; round < 300; ++round) {
        const bool gpu = rng.bernoulli(0.5);
        const std::size_t count = 1 + rng.index(6);
        std::vector<ScheduleItem> items;
        for (std::size_t j = 0; j < count; ++j) {
            ScheduleItem it = item(j + 1, rng.uniform(0.5, 8.0), rng.uniform(2.0, 30.0));
            items.push_back(it);
        }
        if (rng.bernoulli(0.5))
            items.push_back(item(kPredictedUid, rng.uniform(0.5, 6.0), rng.uniform(4.0, 30.0),
                                 rng.uniform(0.0, 10.0)));

        const WindowSchedule result = schedule_on(gpu ? kGpu : kCpu, 0.0, items);

        bool all_met = true;
        double total_work = 0.0;
        for (const ScheduleItem& it : items) {
            ASSERT_EQ(std::ranges::count(result.completion, it.uid, &CompletionList::value_type::first), 1);
            if (completion_at(result, it.uid) > it.abs_deadline + 1e-6) all_met = false;
            total_work += it.duration;
        }
        EXPECT_EQ(result.feasible, all_met);
        EXPECT_EQ(resource_feasible(gpu ? kGpu : kCpu, 0.0, items), all_met);

        // Conservation: total segment time equals total work.
        double total_segments = 0.0;
        for (const Segment& segment : result.per_resource[0].segments)
            total_segments += segment.duration();
        EXPECT_NEAR(total_segments, total_work, 1e-6);
        expect_well_formed(result.per_resource[0], 0.0);
    }
}

TEST(EdfProperty, PreemptiveEdfDominatesNonPreemptive) {
    // On a single resource with release times, preemptive EDF is optimal:
    // whenever the non-preemptive (GPU) dispatch succeeds, preemptive EDF
    // must too.
    Rng rng(2718);
    int gpu_feasible = 0;
    for (int round = 0; round < 400; ++round) {
        const std::size_t count = 1 + rng.index(5);
        std::vector<ScheduleItem> items;
        for (std::size_t j = 0; j < count; ++j)
            items.push_back(item(j + 1, rng.uniform(0.5, 6.0), rng.uniform(2.0, 25.0)));
        items.push_back(item(kPredictedUid, rng.uniform(0.5, 4.0), rng.uniform(3.0, 25.0),
                             rng.uniform(0.0, 8.0)));
        if (resource_feasible(kGpu, 0.0, items)) {
            ++gpu_feasible;
            EXPECT_TRUE(resource_feasible(kCpu, 0.0, items));
        }
    }
    EXPECT_GT(gpu_feasible, 50); // the property must actually be exercised
}

// ---- demand-bound prefilter (the admission hot-path screen) ----

TEST(EdfPrefilterTest, RejectsOverloadAcceptsSlackOnPlainSets) {
    // Plain = preemptable resource, everything released, nothing reserved
    // or pinned: both certificates of edf_demand_prefilter can fire.
    const std::vector<ScheduleItem> overload{item(1, 4.0, 4.0), item(2, 3.0, 5.0)};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0.0, overload), EdfPrefilter::infeasible);

    const std::vector<ScheduleItem> slack{item(1, 2.0, 10.0), item(2, 3.0, 20.0)};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0.0, slack), EdfPrefilter::feasible);
}

TEST(EdfPrefilterTest, ProcessorDemandCriterionDecidesFutureReleases) {
    // Plain preemptive EDF with release times: the prefilter's
    // processor-demand criterion (anchored scan plus one scan per distinct
    // future release) is a full verdict — the common admission probe that
    // carries a predicted task no longer falls back to the simulation.
    const std::vector<ScheduleItem> loose{item(1, 2.0, 30.0),
                                          item(kPredictedUid, 1.0, 25.0, /*release=*/5.0)};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0.0, loose), EdfPrefilter::feasible);
    EXPECT_TRUE(resource_feasible(kCpu, 0.0, loose));

    const std::vector<ScheduleItem> overload{item(1, 8.0, 9.0),
                                             item(kPredictedUid, 4.0, 10.0, /*release=*/5.0)};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0.0, overload), EdfPrefilter::infeasible);
    EXPECT_FALSE(resource_feasible(kCpu, 0.0, overload));

    // The future window [5, 13) is overfull even though the now-anchored
    // demand bound passes: only the per-release scan catches it.
    const std::vector<ScheduleItem> window_overload{
        item(1, 2.0, 30.0), item(kPredictedUid, 9.0, 13.0, /*release=*/5.0)};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0.0, window_overload), EdfPrefilter::infeasible);
    EXPECT_FALSE(resource_feasible(kCpu, 0.0, window_overload));

    // Exactly-tight future window: inside the safety band, the prefilter
    // must refuse to guess and defer to the simulation.
    const std::vector<ScheduleItem> tight{item(kPredictedUid, 5.0, 10.0, /*release=*/5.0)};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0.0, tight), EdfPrefilter::unknown);
    EXPECT_TRUE(resource_feasible(kCpu, 0.0, tight));
}

TEST(EdfPrefilterTest, NonPreemptableAllReleasedIsDecisive) {
    // Run-to-completion dispatch with everything released follows demand
    // order back-to-back, so the prefilter's replay reproduces the
    // simulation's completion times and yields a full verdict — the GPU
    // admission probe (the bulk of serve-mode feasibility checks) resolves
    // analytically.
    const std::vector<ScheduleItem> fits{item(1, 4.0, 5.0), item(2, 3.0, 9.0)};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0.0, fits), EdfPrefilter::feasible);

    const std::vector<ScheduleItem> late{item(1, 4.0, 5.0), item(2, 3.0, 6.0)};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0.0, late), EdfPrefilter::infeasible);

    // A pinned head outranks demand order; the replay runs it first.
    const std::vector<ScheduleItem> pinned_ok{
        item(1, 5.0, 100.0, 0.0, /*pinned=*/true), item(2, 2.0, 8.0)};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0.0, pinned_ok), EdfPrefilter::feasible);
    const std::vector<ScheduleItem> pinned_late{
        item(1, 5.0, 100.0, 0.0, /*pinned=*/true), item(2, 2.0, 6.0)};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0.0, pinned_late), EdfPrefilter::infeasible);

    // A future release (the predicted task) is replayed exactly too: the
    // released item runs while the predicted one waits for its release.
    const std::vector<ScheduleItem> future{item(1, 2.0, 30.0),
                                           item(kPredictedUid, 1.0, 25.0, /*release=*/5.0)};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0.0, future), EdfPrefilter::feasible);
}

TEST(EdfPrefilterTest, SortedVariantAgreesOnRandomPermutations) {
    // edf_demand_prefilter_sorted documents bit-identical verdicts to the
    // unsorted entry point on any permutation: both scan the demand order.
    Rng rng(97531);
    int decisive = 0;
    for (int round = 0; round < 1500; ++round) {
        const Resource& resource = rng.bernoulli(0.4) ? kGpu : kCpu;
        const Time now = rng.uniform(0.0, 10.0);
        const std::size_t count = 1 + rng.index(7);
        std::vector<ScheduleItem> items;
        for (std::size_t j = 0; j < count; ++j) {
            const Time release = rng.bernoulli(0.3) ? now + rng.uniform(0.0, 6.0) : now;
            items.push_back(item(j + 1, rng.uniform(0.2, 6.0),
                                 release + rng.uniform(0.5, 18.0), release));
        }
        if (resource.kind() == ResourceKind::gpu && rng.bernoulli(0.3))
            items.push_back(item(50, rng.uniform(0.5, 3.0), now + rng.uniform(1.0, 20.0), now,
                                 /*pinned=*/true));
        if (rng.bernoulli(0.2)) {
            ScheduleItem reservation;
            reservation.uid = kReservedUidBase + 1;
            reservation.release = now + rng.uniform(0.0, 8.0);
            reservation.duration = rng.uniform(0.5, 2.0);
            reservation.abs_deadline = reservation.release + reservation.duration;
            reservation.reserved = true;
            items.push_back(reservation);
        }

        std::vector<ScheduleItem> sorted = items;
        std::sort(sorted.begin(), sorted.end(), demand_order);
        // A hostile permutation of the unsorted input.
        std::vector<ScheduleItem> shuffled = items;
        for (std::size_t j = shuffled.size(); j > 1; --j)
            std::swap(shuffled[j - 1], shuffled[rng.index(j)]);

        const EdfPrefilter unsorted_verdict = edf_demand_prefilter(resource, now, shuffled);
        const EdfPrefilter sorted_verdict = edf_demand_prefilter_sorted(resource, now, sorted);
        EXPECT_EQ(unsorted_verdict, sorted_verdict) << "round " << round;
        if (sorted_verdict != EdfPrefilter::unknown) ++decisive;
    }
    EXPECT_GT(decisive, 300);
}

TEST(EdfPrefilterTest, IncrementalInsertionMatchesFromScratchRecompute) {
    // The solvers grow per-anchor lists one insert_demand_ordered at a
    // time.  After every insertion the incrementally maintained list must
    // equal a from-scratch sort of the same multiset, and the sorted
    // prefilter's verdict over it must equal the unsorted prefilter's over
    // the insertion-order list — the incremental demand-bound state never
    // drifts from a recompute.
    Rng rng(86420);
    for (int round = 0; round < 200; ++round) {
        const Resource& resource = rng.bernoulli(0.5) ? kGpu : kCpu;
        const Time now = rng.uniform(0.0, 5.0);
        std::vector<ScheduleItem> incremental;
        std::vector<ScheduleItem> arrival_order;
        const std::size_t count = 1 + rng.index(10);
        for (std::size_t j = 0; j < count; ++j) {
            // Duplicate deadlines and releases on purpose: the total order's
            // uid tie-break is what keeps the two sides aligned.
            const Time release =
                rng.bernoulli(0.3) ? now + static_cast<double>(rng.index(4)) * 1.5 : now;
            ScheduleItem next = item(j + 1, rng.uniform(0.2, 5.0),
                                     release + 2.0 + static_cast<double>(rng.index(5)) * 2.0,
                                     release);
            arrival_order.push_back(next);
            const std::size_t pos = insert_demand_ordered(incremental, next);
            EXPECT_EQ(incremental[pos].uid, next.uid);

            std::vector<ScheduleItem> recomputed = arrival_order;
            std::sort(recomputed.begin(), recomputed.end(), demand_order);
            ASSERT_EQ(recomputed.size(), incremental.size());
            for (std::size_t k = 0; k < recomputed.size(); ++k)
                EXPECT_EQ(recomputed[k].uid, incremental[k].uid) << "round " << round;

            EXPECT_EQ(edf_demand_prefilter_sorted(resource, now, incremental),
                      edf_demand_prefilter(resource, now, arrival_order))
                << "round " << round;
        }
    }
}

TEST(EdfGolden, SoaInnerLoopReproducesGoldenSegmentOrder) {
    // Golden pin for the struct-of-arrays EDF inner loop: a scenario mixing
    // a future-release preemption, a reservation window, and a deadline tie
    // must reproduce this exact segment sequence.  Any reordering of the
    // SoA scan (or a drifting tie-break) changes the segments, not just the
    // completion times.
    ScheduleItem reservation;
    reservation.uid = kReservedUidBase + 1;
    reservation.release = 6.0;
    reservation.abs_deadline = 7.0;
    reservation.duration = 1.0;
    reservation.reserved = true;
    const std::vector<ScheduleItem> items{
        item(2, 4.0, 40.0),                              // ties on uid with 5
        item(5, 3.0, 40.0),                              // loses the uid tie
        item(1, 2.0, 9.0),                               // earliest deadline, runs first
        item(kPredictedUid, 2.0, 12.0, /*release=*/3.0), // preempts task 2 at 3
        reservation,                                     // preempts tau_p's tail window
    };
    const WindowSchedule result = schedule_on(kCpu, 0.0, items);
    EXPECT_TRUE(result.feasible);

    // Expected dispatch: 1 [0,2), 2 [2,3), tau_p [3,5), 2 [5,6),
    // reservation [6,7), 2 [7,9), 5 [9,12).
    const std::vector<std::tuple<TaskUid, double, double>> golden{
        {1, 0.0, 2.0},  {2, 2.0, 3.0},
        {kPredictedUid, 3.0, 5.0}, {2, 5.0, 6.0},
        {kReservedUidBase + 1, 6.0, 7.0}, {2, 7.0, 9.0},
        {5, 9.0, 12.0},
    };
    ASSERT_EQ(result.per_resource[0].segments.size(), golden.size());
    for (std::size_t k = 0; k < golden.size(); ++k) {
        EXPECT_EQ(result.per_resource[0].segments[k].uid, std::get<0>(golden[k])) << "segment " << k;
        EXPECT_DOUBLE_EQ(result.per_resource[0].segments[k].start, std::get<1>(golden[k]));
        EXPECT_DOUBLE_EQ(result.per_resource[0].segments[k].end, std::get<2>(golden[k]));
    }
    EXPECT_DOUBLE_EQ(completion_at(result, 2), 9.0);
    EXPECT_DOUBLE_EQ(completion_at(result, 5), 12.0);
}

TEST(EdfPrefilterTest, DvfsAnchorScreensTheMergedOperatingPointSet) {
    // Operating points of one DVFS core share the anchor's timeline
    // (build_window_schedule groups by physical()); by the time the
    // prefilter runs it sees the merged item set with level-scaled
    // durations on the anchor resource — both verdicts must match the
    // window-level outcome.
    PlatformBuilder builder;
    builder.add_cpu_with_dvfs({1.0, 0.5}, "CPU");
    const Platform platform = builder.build();
    const Resource& anchor = platform.resource(0);
    ASSERT_EQ(platform.resource(1).physical(), 0u);

    ScheduleItem full = item(1, 2.0, 12.0); // at the 1.0 level
    ScheduleItem half = item(2, 4.0, 12.0); // 2.0 of work at f = 0.5
    half.resource = 1;
    std::vector<ScheduleItem> merged{full, half};
    EXPECT_EQ(edf_demand_prefilter(anchor, 0.0, merged), EdfPrefilter::feasible);
    EXPECT_TRUE(build_window_schedule(platform, 0.0, merged).feasible);

    ScheduleItem heavy = item(3, 16.0, 12.0); // 8.0 of work at f = 0.5
    heavy.resource = 1;
    merged.push_back(heavy);
    EXPECT_EQ(edf_demand_prefilter(anchor, 0.0, merged), EdfPrefilter::infeasible);
    EXPECT_FALSE(build_window_schedule(platform, 0.0, merged).feasible);
}

TEST(EdfPrefilterTest, NonPreemptableReplayEqualsSimulation) {
    // The run-to-completion replay is the simulation's verdict on every
    // unreserved non-preemptable instance with at most one pinned head, so
    // the prefilter never answers `unknown` there.  The instances aim at
    // the replay's floating-point edges: future releases (some within a
    // few kEps = 1e-6 of a dispatch boundary on the half-unit grid),
    // releases within kEps of now, deadline ties, deadlines within a few
    // kEps of the simulated completion, zero durations, and now up to 1e4.
    constexpr double kEps = 1e-6;
    const double jitters[] = {-2 * kEps, -kEps, -kEps / 2, 0.0, kEps / 2, kEps, 2 * kEps};
    Rng rng(20261017);
    const auto jitter = [&] { return jitters[rng.index(7)]; };
    const auto half_units = [&](std::size_t max) {
        return 0.5 * static_cast<double>(1 + rng.index(max));
    };
    int feasible_verdicts = 0;
    int infeasible_verdicts = 0;
    for (int round = 0; round < 12000; ++round) {
        const Time now = rng.bernoulli(0.3) ? rng.uniform(0.0, 1e4) : rng.uniform(0.0, 20.0);
        const std::size_t count = 1 + rng.index(8);
        std::vector<ScheduleItem> items;
        for (std::size_t j = 0; j < count; ++j) {
            Time release = now;
            const double kind = rng.uniform01();
            if (kind < 0.2) release = now + rng.uniform(0.0, 8.0);    // predicted-style
            else if (kind < 0.45) release = now + half_units(16) + jitter(); // near a boundary
            else if (kind < 0.55) release = now + jitter() / 2;       // within kEps of now
            // Half-unit durations and deadlines make ties common.
            const double duration = rng.bernoulli(0.1) ? 0.0 : half_units(8);
            const Time deadline =
                rng.bernoulli(0.5) ? release + half_units(24) : release + rng.uniform(0.1, 14.0);
            items.push_back(item(j + 1, duration, deadline, release));
        }
        if (rng.bernoulli(0.4)) {
            const double head = rng.bernoulli(0.1)   ? 0.0
                                : rng.bernoulli(0.5) ? half_units(8)
                                                     : rng.uniform(0.1, 4.0);
            items.push_back(item(100, head, now + rng.uniform(0.1, 10.0), now, /*pinned=*/true));
        }
        if (rng.bernoulli(0.5)) {
            // Pull some deadlines onto the simulated completion times.
            const WindowSchedule result = schedule_on(kGpu, now, items);
            for (ScheduleItem& it : items)
                if (rng.bernoulli(0.5)) it.abs_deadline = completion_at(result, it.uid) + jitter();
        }

        const bool simulated = schedule_on(kGpu, now, items).feasible;
        std::vector<ScheduleItem> sorted = items;
        std::sort(sorted.begin(), sorted.end(), demand_order);
        rng.shuffle(items);
        const EdfPrefilter verdict = edf_demand_prefilter(kGpu, now, items);
        ASSERT_NE(verdict, EdfPrefilter::unknown) << "round " << round;
        EXPECT_EQ(verdict == EdfPrefilter::feasible, simulated) << "round " << round;
        EXPECT_EQ(edf_demand_prefilter_sorted(kGpu, now, sorted), verdict) << "round " << round;
        EXPECT_EQ(resource_feasible_sorted(kGpu, now, sorted), simulated) << "round " << round;
        (verdict == EdfPrefilter::feasible ? feasible_verdicts : infeasible_verdicts)++;
    }
    EXPECT_GT(feasible_verdicts, 2000);
    EXPECT_GT(infeasible_verdicts, 2000);
}

TEST(EdfPrefilterTest, DecisiveVerdictsAgreeWithFullSimulation) {
    // Randomized agreement: on arbitrary instances — reservations,
    // non-preemptable resources, pinned heads, future releases, zero
    // durations, now != 0 — a decisive prefilter verdict must match the
    // full EDF simulation, and resource_feasible (which consults the
    // prefilter first) must always equal the full simulation's verdict.
    Rng rng(20260806);
    int infeasible_verdicts = 0;
    int feasible_verdicts = 0;
    int unknown_verdicts = 0;
    int mixed_rounds = 0;
    for (int round = 0; round < 3000; ++round) {
        const bool gpu = rng.bernoulli(0.3);
        const Resource& resource = gpu ? kGpu : kCpu;
        const Time now = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 15.0);
        const std::size_t count = 1 + rng.index(7);

        std::vector<ScheduleItem> items;
        bool mixed = false;
        for (std::size_t j = 0; j < count; ++j) {
            const double duration = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.2, 6.0);
            Time release = now;
            if (rng.bernoulli(0.25)) { // future release (predicted-style)
                release = now + rng.uniform(0.0, 8.0);
                mixed = true;
            }
            items.push_back(
                item(j + 1, duration, release + rng.uniform(0.5, 22.0), release));
        }
        if (rng.bernoulli(0.2)) { // one exact-window reservation
            ScheduleItem reservation;
            reservation.uid = kReservedUidBase + 1;
            reservation.release = now + rng.uniform(0.0, 10.0);
            reservation.duration = rng.uniform(0.5, 3.0);
            reservation.abs_deadline = reservation.release + reservation.duration;
            reservation.reserved = true;
            items.push_back(reservation);
            mixed = true;
        }
        if (gpu && rng.bernoulli(0.3)) { // currently-executing head task
            ScheduleItem pinned = item(100, rng.uniform(0.5, 4.0),
                                       now + rng.uniform(1.0, 20.0), now, /*pinned=*/true);
            items.push_back(pinned);
            mixed = true;
        }
        if (gpu || mixed) ++mixed_rounds;

        const EdfPrefilter verdict = edf_demand_prefilter(resource, now, items);
        const bool simulated = schedule_on(resource, now, items).feasible;
        switch (verdict) {
        case EdfPrefilter::infeasible:
            ++infeasible_verdicts;
            EXPECT_FALSE(simulated) << "round " << round;
            break;
        case EdfPrefilter::feasible:
            ++feasible_verdicts;
            EXPECT_TRUE(simulated) << "round " << round;
            break;
        case EdfPrefilter::unknown:
            ++unknown_verdicts;
            break;
        }
        EXPECT_EQ(resource_feasible(resource, now, items), simulated) << "round " << round;
    }
    // Every verdict class and the awkward-instance pool must be exercised.
    EXPECT_GT(infeasible_verdicts, 100);
    EXPECT_GT(feasible_verdicts, 100);
    EXPECT_GT(unknown_verdicts, 100);
    EXPECT_GT(mixed_rounds, 500);
}

} // namespace
} // namespace rmwp
