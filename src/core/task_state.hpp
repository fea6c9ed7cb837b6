// Runtime state of an admitted task instance, and the remaining-cost
// algebra of Sec 4.1:
//   cp_{j,i} = c_{j,i} * remaining_fraction        (work not yet executed)
//   ep_{j,i} = e_{j,i} * remaining_fraction        (energy not yet consumed)
//   cpm_{j,i} = cp_{j,i} + cm_{j,k,i}  if relocating a started task k -> i
//   epm_{j,i} = ep_{j,i} + em_{j,k,i}  likewise for energy
//
// Progress is tracked as a resource-independent fraction of work done, so
// the paper's proportional rescaling on migration falls out directly.
// Migration overhead is modelled as resource time that must elapse before
// real progress resumes (`pending_overhead`), with the energy overhead
// charged once at the moment of the migration decision.
#pragma once

#include <cstdint>

#include "platform/platform.hpp"
#include "util/check.hpp"
#include "workload/catalog.hpp"
#include "workload/trace.hpp"

namespace rmwp {

/// Unique id of an admitted task instance within one simulation.
using TaskUid = std::uint64_t;

/// State of one admitted, unfinished task.
struct ActiveTask {
    TaskUid uid = 0;
    TaskTypeId type = 0;
    Time arrival = 0.0;
    Time absolute_deadline = 0.0;
    ResourceId resource = 0;          ///< current mapping
    bool started = false;             ///< has made progress (or begun migrating)
    bool pinned = false;              ///< began executing on a non-preemptable resource
    double remaining_fraction = 1.0;  ///< fraction of the work not yet executed, in [0, 1]
    Time pending_overhead = 0.0;      ///< migration time still to be paid on `resource`

    /// Slack until the absolute deadline, t_left_j = s_j + d_j - t.
    [[nodiscard]] Time time_left(Time now) const noexcept { return absolute_deadline - now; }

    [[nodiscard]] bool finished() const noexcept { return remaining_fraction <= 0.0; }
};

// The cost functions below are inline: the plan-row fill evaluates them
// per (task, executable resource) on every admission.

/// cp_{j,i}: worst-case execution time not yet consumed, on resource i.
[[nodiscard]] inline double remaining_time(const ActiveTask& task, const TaskType& type,
                                           ResourceId i) {
    RMWP_EXPECT(task.type == type.id());
    return type.wcet(i) * task.remaining_fraction;
}

/// ep_{j,i}: average energy not yet consumed, on resource i.
[[nodiscard]] inline double remaining_energy(const ActiveTask& task, const TaskType& type,
                                             ResourceId i) {
    RMWP_EXPECT(task.type == type.id());
    return type.energy(i) * task.remaining_fraction;
}

/// Whether assigning `task` to `to` constitutes a migration (it has started
/// somewhere else).  Unstarted tasks can be re-mapped freely: there is no
/// execution state to move yet.
[[nodiscard]] inline bool is_migration(const ActiveTask& task, ResourceId to) noexcept {
    return task.started && to != task.resource;
}

/// cpm_{j,i}: occupied resource time if `task` ends up on `to` during the
/// current window — remaining work plus migration time (or the unpaid part
/// of a previously started migration when staying put).
[[nodiscard]] inline double occupied_time(const ActiveTask& task, const TaskType& type,
                                          ResourceId to) {
    const double work = remaining_time(task, type, to);
    if (is_migration(task, to)) return work + type.migration_time(task.resource, to);
    if (to == task.resource) return work + task.pending_overhead;
    return work;
}

/// Migration energy overhead of the assignment (0 when not a migration).
[[nodiscard]] inline double migration_energy_cost(const ActiveTask& task, const TaskType& type,
                                                  ResourceId to) {
    if (!is_migration(task, to)) return 0.0;
    return type.migration_energy(task.resource, to);
}

/// epm contribution: remaining energy plus migration-energy overhead if the
/// assignment relocates a started task.
[[nodiscard]] inline double assignment_energy(const ActiveTask& task, const TaskType& type,
                                              ResourceId to) {
    return remaining_energy(task, type, to) + migration_energy_cost(task, type, to);
}

} // namespace rmwp
