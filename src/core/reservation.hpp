// Design-time critical-task reservations (Sec 2).
//
// The paper integrates safety-critical hard real-time applications by
// deciding their resource allocation offline and letting the runtime
// manager "allocate with the highest priority the required resources to the
// critical applications and continue to apply the adaptive resource
// allocation technique over the remaining set of resources".
//
// A CriticalTask is a periodic reservation: every `period` time units,
// starting at `offset`, its resource is blocked for `duration`.  The
// ReservationTable expands these into ScheduleItems (uid space >=
// kReservedUidBase) that the EDF engine treats as highest-priority,
// immovable work; both resource managers subtract the blocked time from
// their knapsack capacities and include the blocks in every schedulability
// check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "platform/platform.hpp"

namespace rmwp {

/// One design-time-allocated periodic critical task.
struct CriticalTask {
    std::string name;
    ResourceId resource = 0;
    Time period = 0.0;
    Time offset = 0.0;   ///< first window start
    Time duration = 0.0; ///< reserved time per instance
    double energy_per_instance = 0.0;

    [[nodiscard]] double utilization() const noexcept { return duration / period; }
};

/// The static reservation schedule the adaptive RM must respect.
class ReservationTable {
public:
    ReservationTable() = default;
    explicit ReservationTable(std::vector<CriticalTask> tasks);

    [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
    [[nodiscard]] const std::vector<CriticalTask>& tasks() const noexcept { return tasks_; }

    /// Total reserved utilisation of one resource.
    [[nodiscard]] double utilization_of(ResourceId resource) const noexcept;

    /// Append to `out` the blocked ScheduleItems for `resource` whose
    /// windows intersect [from, until), in generation order (per critical
    /// task, by instance).  A window already in progress at `from` is
    /// clipped to its remaining part.  Uids encode (task index, instance
    /// number) and are stable across calls.  Appending into a caller's
    /// buffer lets hot paths reuse its capacity.
    void blocks_for(ResourceId resource, Time from, Time until,
                    std::vector<ScheduleItem>& out) const;

    /// Blocks for every resource, appended to `out`.
    void append_blocks(Time from, Time until, std::vector<ScheduleItem>& out) const;

    /// The critical task behind a reserved uid.
    [[nodiscard]] const CriticalTask& task_of(TaskUid reserved_uid) const;

    /// Process-unique identity of this table's (immutable) contents, used
    /// as a memoisation key by the planning layer.  Copies share the
    /// revision: a ReservationTable is never mutated after construction, so
    /// equal revisions imply equal block expansions.
    [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

private:
    static std::uint64_t next_revision() noexcept;

    std::vector<CriticalTask> tasks_;
    std::uint64_t revision_ = next_revision();
};

} // namespace rmwp
