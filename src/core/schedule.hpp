// Window schedules: the per-resource timelines the RM plans at each
// activation (Sec 4.1).  A schedule covers the window from the activation
// time to the latest deadline of the planned task set; each resource holds a
// sequence of non-overlapping segments.  Planned preemptions (by the
// predicted task) appear as a task's work split across multiple segments.
#pragma once

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/task_state.hpp"
#include "platform/platform.hpp"
#include "workload/trace.hpp"

namespace rmwp {

// The uid space is partitioned so that virtual planning entities never
// collide with real task uids:
//   [0, 2^62)           real (adaptive) tasks
//   [2^63, 2^63 + 2^62) design-time critical reservations
//   [2^63 + 2^62, max]  predicted (virtual) tasks, one uid per lookahead step

/// Base uid of design-time critical reservations (Sec 2: safety-critical
/// hard real-time tasks whose allocation is fixed offline).  They are not
/// mappable tasks; they block their resource with the highest priority.
inline constexpr TaskUid kReservedUidBase = TaskUid{1} << 63;

/// Base uid of predicted (virtual) tasks; step k of the lookahead carries
/// uid kPredictedUidBase + k.  Being the largest uids, predicted tasks lose
/// EDF deadline ties to real tasks ("SL1 = deadline earlier or equal").
inline constexpr TaskUid kPredictedUidBase = kReservedUidBase | (TaskUid{1} << 62);

/// Uid of the first predicted task (the paper's single-step tau_p).
inline constexpr TaskUid kPredictedUid = kPredictedUidBase;

[[nodiscard]] constexpr bool is_predicted_uid(TaskUid uid) noexcept {
    return uid >= kPredictedUidBase;
}

[[nodiscard]] constexpr bool is_reserved_uid(TaskUid uid) noexcept {
    return uid >= kReservedUidBase && uid < kPredictedUidBase;
}

/// A contiguous stretch of one task's execution on one resource.
struct Segment {
    TaskUid uid = 0;
    Time start = 0.0;
    Time end = 0.0;

    [[nodiscard]] Time duration() const noexcept { return end - start; }
};

/// Time-ordered, non-overlapping segments on one resource.
struct ResourceTimeline {
    std::vector<Segment> segments;
};

/// One task's scheduling input to the EDF engine.
struct ScheduleItem {
    TaskUid uid = 0;
    ResourceId resource = 0;
    Time release = 0.0;       ///< activation time for real tasks, s_p for the predicted one
    Time abs_deadline = 0.0;
    double duration = 0.0;    ///< cpm on `resource` (remaining work + migration overhead)
    bool pinned_first = false; ///< currently executing on a non-preemptable resource
    /// Design-time critical reservation: runs exactly at [release,
    /// release + duration) with absolute priority over every adaptive task.
    bool reserved = false;
};

/// Final finish time per task, as (uid, time) pairs.
using CompletionList = std::vector<std::pair<TaskUid, Time>>;

/// Result of planning one window.
struct WindowSchedule {
    Time start = 0.0;
    bool feasible = false;
    std::vector<ResourceTimeline> per_resource;
    CompletionList completion; ///< one entry per scheduled task, sorted by uid

    /// Completion time of a task; empty if the task was not scheduled.
    [[nodiscard]] std::optional<Time> completion_of(TaskUid uid) const;

    /// All segments of one task across resources, in time order.
    [[nodiscard]] std::vector<Segment> segments_of(TaskUid uid) const;
};

} // namespace rmwp
