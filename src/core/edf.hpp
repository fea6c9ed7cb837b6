// The EDF scheduling engine behind both resource managers (Sec 4.1/4.2).
//
// On every resource, tasks are ordered earliest-deadline-first.  All real
// tasks are released at the activation time (between two activations there
// is no preemption among real tasks), while the predicted task is released
// at its predicted arrival s_p — so a single "EDF with release times"
// simulation reproduces all the cases of the MILP formulation:
//   * s_p <= q_i  -> the predicted task simply queues after SL1 (constr. 4/7);
//   * s_p  > q_i  -> it preempts the running SL2 task, splitting it into two
//                    chunks (constraints 8-14);
//   * non-preemptable resources dispatch at task boundaries only, so the
//     predicted task waits for the running task to finish (no preemption on
//     GPUs, Sec 4.1).
// A task currently executing on a non-preemptable resource is pinned and
// always occupies the head of that resource's timeline.
#pragma once

#include <span>

#include "core/schedule.hpp"
#include "platform/platform.hpp"

namespace rmwp {

/// Verdict of the O(k log k) demand-bound prefilter that guards the full
/// EDF simulation on the admission hot path.
enum class EdfPrefilter {
    infeasible, ///< demand provably exceeds supply — certainly infeasible
    feasible,   ///< exact fast path applied — certainly feasible
    unknown,    ///< neither certificate holds; run the full simulation
};

/// The demand-bound scan order: (abs_deadline, release, uid).  A total order
/// over the distinct items of one resource, so a list kept sorted under it
/// is exactly what sorting an arbitrary permutation would produce — the
/// foundation of the incremental (insert-one, scan-prefix) schedulability
/// state the solvers maintain across probes.
[[nodiscard]] inline bool demand_order(const ScheduleItem& a, const ScheduleItem& b) noexcept {
    if (a.abs_deadline != b.abs_deadline) return a.abs_deadline < b.abs_deadline;
    if (a.release != b.release) return a.release < b.release;
    return a.uid < b.uid;
}

/// Insert `item` into a demand_order-sorted list, keeping it sorted
/// (upper_bound, so an equal key lands after existing ones — irrelevant for
/// the total order, cheap for repeated probe/erase cycles).  Returns the
/// insertion index so a failed probe can erase in O(1) lookup.
std::size_t insert_demand_ordered(std::vector<ScheduleItem>& items, const ScheduleItem& item);

/// Cheap schedulability screen, exact in its decisive verdicts:
///   * any resource — infeasible when, for some deadline d, the total work
///     that must finish by d exceeds the capacity of [now, d].  Valid for
///     any releases, reservations, and pinning: no schedule can create
///     capacity.
///   * preemptable, nothing reserved or pinned — full verdict by the
///     processor-demand criterion: the now-anchored demand scan (with
///     everything released, EDF completes the k-th item in deadline order
///     at exactly now + the prefix work), plus one scan per distinct future
///     release.  These carry a safety margin against floating-point
///     ordering noise; borderline instances return `unknown`.
///   * non-preemptable, nothing reserved, at most one pinned head — full
///     verdict by an exact replay of run-to-completion EDF, future releases
///     included, in the simulation's own floating-point arithmetic: never
///     `unknown`, always the simulation's answer.
/// Everything else (reservations, two-plus pinned heads) gets only the
/// infeasibility screen and otherwise `unknown` (tests/test_edf.cpp pins
/// agreement with simulate_edf on random instances).
[[nodiscard]] EdfPrefilter edf_demand_prefilter(const Resource& resource, Time now,
                                                std::span<const ScheduleItem> items);

/// edf_demand_prefilter for a list already sorted by demand_order: skips
/// the per-probe sort and scans the items in place.  Bit-identical verdicts
/// to the unsorted variant (the duration sum runs in the same order), which
/// tests/test_edf.cpp pins on random instances.
[[nodiscard]] EdfPrefilter edf_demand_prefilter_sorted(const Resource& resource, Time now,
                                                       std::span<const ScheduleItem> items);

/// Whether EDF meets every deadline of `items` on `resource` (no timeline
/// built).  At most one item may be pinned_first, and only on a
/// non-preemptable resource.
/// Answers from the demand-bound prefilter when it is decisive; falls back
/// to the full EDF simulation otherwise.
[[nodiscard]] bool resource_feasible(const Resource& resource, Time now,
                                     std::span<const ScheduleItem> items);

/// resource_feasible for a demand_order-sorted list (the solvers'
/// incremental probe path).  Same verdicts as resource_feasible on any
/// permutation of `items`: the simulation is input-order independent and
/// the sorted prefilter scans the exact order the unsorted one sorts into.
[[nodiscard]] bool resource_feasible_sorted(const Resource& resource, Time now,
                                            std::span<const ScheduleItem> items);

/// Plan the whole window into `out`: groups `items` by their `resource`
/// field and simulates EDF on each physical resource.  Reuses `out`'s
/// timeline and completion storage, so a caller that keeps one schedule
/// across re-plans allocates nothing once the buffers have grown.  Items
/// mapped to a resource index >= platform size are a precondition
/// violation.
void build_window_schedule_into(const Platform& platform, Time now,
                                std::span<const ScheduleItem> items, WindowSchedule& out);

/// build_window_schedule_into a fresh schedule.
[[nodiscard]] WindowSchedule build_window_schedule(const Platform& platform, Time now,
                                                   std::span<const ScheduleItem> items);

} // namespace rmwp
