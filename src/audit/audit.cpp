#include "audit/audit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "core/edf.hpp"
#include "core/exact_rm.hpp"
#include "core/reservation.hpp"

namespace rmwp {

const char* to_string(AuditCode code) noexcept {
    switch (code) {
    case AuditCode::schedule_shape: return "schedule_shape";
    case AuditCode::segment_bounds: return "segment_bounds";
    case AuditCode::segment_overlap: return "segment_overlap";
    case AuditCode::unknown_segment: return "unknown_segment";
    case AuditCode::duplicate_item: return "duplicate_item";
    case AuditCode::wrong_timeline: return "wrong_timeline";
    case AuditCode::release_violated: return "release_violated";
    case AuditCode::work_conservation: return "work_conservation";
    case AuditCode::completion_mismatch: return "completion_mismatch";
    case AuditCode::deadline_missed: return "deadline_missed";
    case AuditCode::feasibility_mismatch: return "feasibility_mismatch";
    case AuditCode::edf_order: return "edf_order";
    case AuditCode::idle_while_ready: return "idle_while_ready";
    case AuditCode::non_preemptable_split: return "non_preemptable_split";
    case AuditCode::pinned_violation: return "pinned_violation";
    case AuditCode::reservation_overlap: return "reservation_overlap";
    case AuditCode::reservation_shifted: return "reservation_shifted";
    case AuditCode::offline_resource: return "offline_resource";
    case AuditCode::not_executable: return "not_executable";
    case AuditCode::throttle_ignored: return "throttle_ignored";
    case AuditCode::migration_miscount: return "migration_miscount";
    case AuditCode::duration_mismatch: return "duration_mismatch";
    case AuditCode::item_encoding: return "item_encoding";
    case AuditCode::energy_mismatch: return "energy_mismatch";
    case AuditCode::window_mismatch: return "window_mismatch";
    case AuditCode::instance_shape: return "instance_shape";
    case AuditCode::block_accounting: return "block_accounting";
    case AuditCode::demand_overflow: return "demand_overflow";
    case AuditCode::mapping_incomplete: return "mapping_incomplete";
    case AuditCode::rescue_partition: return "rescue_partition";
    case AuditCode::differential_admit: return "differential_admit";
    }
    return "unknown";
}

bool AuditReport::has(AuditCode code) const noexcept {
    for (const AuditViolation& violation : violations)
        if (violation.code == code) return true;
    return false;
}

void AuditReport::add(AuditCode code, std::string detail) {
    violations.push_back(AuditViolation{code, std::move(detail)});
}

void AuditReport::merge(AuditReport&& other) {
    for (AuditViolation& violation : other.violations) violations.push_back(std::move(violation));
    other.violations.clear();
}

std::string AuditReport::summary() const {
    std::ostringstream out;
    out << violations.size() << " audit violation(s):";
    for (const AuditViolation& violation : violations)
        out << " [" << to_string(violation.code) << "] " << violation.detail << ";";
    return out.str();
}

namespace {

/// The EDF priority order the paper fixes (reservations outrank everything;
/// then earliest deadline; real tasks beat the predicted task on ties via
/// the uid layout).  Re-stated here independently of edf.cpp on purpose.
[[nodiscard]] bool outranks(const ScheduleItem& a, const ScheduleItem& b) noexcept {
    if (a.reserved != b.reserved) return a.reserved;
    if (a.abs_deadline != b.abs_deadline) return a.abs_deadline < b.abs_deadline;
    if (a.release != b.release) return a.release < b.release;
    return a.uid < b.uid;
}

[[nodiscard]] std::string uid_str(TaskUid uid) {
    if (is_reserved_uid(uid)) return "reserved#" + std::to_string(uid & ~kReservedUidBase);
    if (is_predicted_uid(uid)) return "predicted#" + std::to_string(uid - kPredictedUidBase);
    return "task#" + std::to_string(uid);
}

/// First-principles occupied time of `task` if it ends up on `to`:
/// throttle-inflated remaining work plus migration overhead charged exactly
/// once (a relocation's cost replaces any unpaid prior overhead; staying put
/// keeps the unpaid part; unstarted tasks owe nothing).
struct ExpectedCost {
    double work = 0.0;     ///< remaining_fraction * wcet * throttle
    double overhead = 0.0; ///< migration time still to be paid on `to`
    double energy = 0.0;   ///< remaining energy + migration energy overhead

    [[nodiscard]] double duration() const noexcept { return work + overhead; }
};

[[nodiscard]] ExpectedCost expected_cost(const ActiveTask& task, const TaskType& type,
                                         ResourceId to, const PlatformHealth* health) {
    const bool migrates = task.started && to != task.resource;
    ExpectedCost cost;
    cost.work = task.remaining_fraction * type.wcet(to);
    if (health != nullptr) cost.work *= health->throttle(to);
    if (migrates)
        cost.overhead = type.migration_time(task.resource, to);
    else if (to == task.resource)
        cost.overhead = task.pending_overhead;
    cost.energy = task.remaining_fraction * type.energy(to) +
                  (migrates ? type.migration_energy(task.resource, to) : 0.0);
    return cost;
}

/// Diagnose a duration that disagrees with first principles: name the
/// specific accounting bug when the error matches its signature.
void diagnose_duration(AuditReport& report, const ScheduleItem& item, const ExpectedCost& cost,
                       double unthrottled_work, double migration_time, double tolerance) {
    const double error = item.duration - cost.duration();
    if (std::abs(error) <= tolerance) return;
    if (std::abs(item.duration - (unthrottled_work + cost.overhead)) <= tolerance) {
        report.add(AuditCode::throttle_ignored,
                   uid_str(item.uid) + " planned with the nominal WCET on a throttled resource");
        return;
    }
    if (migration_time > tolerance && (std::abs(error - migration_time) <= tolerance ||
                                       std::abs(error + migration_time) <= tolerance)) {
        report.add(AuditCode::migration_miscount,
                   uid_str(item.uid) + " migration overhead charged " +
                       (error > 0 ? "twice" : "zero times") + " instead of once");
        return;
    }
    report.add(AuditCode::duration_mismatch,
               uid_str(item.uid) + " duration " + std::to_string(item.duration) +
                   " != expected " + std::to_string(cost.duration()));
}

/// All per-timeline checks of audit_window for one physical resource.
void audit_timeline(AuditReport& report, const Resource& resource, Time now,
                    const std::vector<const ScheduleItem*>& items,
                    const ResourceTimeline& timeline, double tol) {
    // A margin safely above the EDF engine's own epsilon: only violations a
    // whole tolerance beyond any legitimate tie-break are flagged.
    const double margin = 10.0 * tol;
    const auto name = [&] { return " on " + resource.name(); };

    // -- segment structure: ordered, non-overlapping, inside the window.
    const std::vector<Segment>& segments = timeline.segments;
    for (std::size_t s = 0; s < segments.size(); ++s) {
        const Segment& segment = segments[s];
        if (segment.end <= segment.start || segment.start < now - tol)
            report.add(AuditCode::segment_bounds,
                       uid_str(segment.uid) + " segment [" + std::to_string(segment.start) +
                           ", " + std::to_string(segment.end) + ") outside window" + name());
        if (s > 0 && segment.start < segments[s - 1].end - tol)
            report.add(AuditCode::segment_overlap,
                       uid_str(segment.uid) + " overlaps " + uid_str(segments[s - 1].uid) +
                           name());
    }

    std::unordered_map<TaskUid, const ScheduleItem*> by_uid;
    std::size_t pinned_count = 0;
    for (const ScheduleItem* item : items) {
        if (!by_uid.emplace(item->uid, item).second)
            report.add(AuditCode::duplicate_item, uid_str(item->uid) + " listed twice" + name());
        if (item->pinned_first && ++pinned_count > 1)
            report.add(AuditCode::pinned_violation, "two pinned tasks" + name());
        if (item->pinned_first && resource.preemptable())
            report.add(AuditCode::pinned_violation,
                       uid_str(item->uid) + " pinned on a preemptable resource" + name());
    }

    // -- per-item execution accounting derived from the segments alone.
    std::unordered_map<TaskUid, double> executed;
    std::unordered_map<TaskUid, std::size_t> chunks;
    std::unordered_map<TaskUid, Time> last_end;
    for (const Segment& segment : segments) {
        const auto it = by_uid.find(segment.uid);
        if (it == by_uid.end()) {
            report.add(AuditCode::unknown_segment, uid_str(segment.uid) + " has no item" + name());
            continue;
        }
        const ScheduleItem& item = *it->second;
        if (segment.start < item.release - tol)
            report.add(AuditCode::release_violated,
                       uid_str(segment.uid) + " starts " + std::to_string(segment.start) +
                           " before release " + std::to_string(item.release) + name());
        executed[segment.uid] += segment.duration();
        ++chunks[segment.uid];
        last_end[segment.uid] = std::max(last_end[segment.uid], segment.end);
    }

    for (const ScheduleItem* item : items) {
        const double run = executed[item->uid];
        const double planned = std::max(item->duration, 0.0);
        if (std::abs(run - planned) > margin)
            report.add(AuditCode::work_conservation,
                       uid_str(item->uid) + " executed " + std::to_string(run) + " of planned " +
                           std::to_string(planned) + name());
        if (!resource.preemptable() && chunks[item->uid] > 1)
            report.add(AuditCode::non_preemptable_split,
                       uid_str(item->uid) + " split into " + std::to_string(chunks[item->uid]) +
                           " chunks" + name());
        if (item->reserved) {
            // A reservation occupies exactly its design-time window.
            const bool shifted = chunks[item->uid] != 1 ||
                                 std::abs(executed[item->uid] - item->duration) > margin ||
                                 std::abs(last_end[item->uid] -
                                          (item->release + item->duration)) > margin;
            if (shifted)
                report.add(AuditCode::reservation_shifted,
                           uid_str(item->uid) + " not exactly at [" +
                               std::to_string(item->release) + ", " +
                               std::to_string(item->release + item->duration) + ")" + name());
        }
    }

    // -- reserved windows must be pairwise disjoint by design.
    for (std::size_t a = 0; a < items.size(); ++a) {
        if (!items[a]->reserved) continue;
        for (std::size_t b = a + 1; b < items.size(); ++b) {
            if (!items[b]->reserved) continue;
            const Time lo = std::max(items[a]->release, items[b]->release);
            const Time hi = std::min(items[a]->release + items[a]->duration,
                                     items[b]->release + items[b]->duration);
            if (hi - lo > margin)
                report.add(AuditCode::reservation_overlap,
                           uid_str(items[a]->uid) + " and " + uid_str(items[b]->uid) +
                               " windows overlap" + name());
        }
    }

    // -- EDF order and work conservation over time (preemptable resources
    //    run exactly the highest-priority ready task and never idle with
    //    ready work; non-preemptable dispatching is audited structurally
    //    via the single-chunk rule above).
    if (resource.preemptable()) {
        std::unordered_map<TaskUid, double> done;
        Time prev_end = now;
        for (const Segment& segment : segments) {
            const auto running = by_uid.find(segment.uid);
            for (const ScheduleItem* item : items) {
                const double remaining = std::max(item->duration, 0.0) - done[item->uid];
                const bool ready =
                    item->release <= segment.start + tol && remaining > margin;
                if (!ready || item->uid == segment.uid) continue;
                if (segment.start - prev_end > margin && item->release <= prev_end + tol)
                    report.add(AuditCode::idle_while_ready,
                               "idle [" + std::to_string(prev_end) + ", " +
                                   std::to_string(segment.start) + ") while " +
                                   uid_str(item->uid) + " ready" + name());
                if (running != by_uid.end() && outranks(*item, *running->second))
                    report.add(AuditCode::edf_order,
                               uid_str(segment.uid) + " ran at " +
                                   std::to_string(segment.start) + " while higher-priority " +
                                   uid_str(item->uid) + " was ready" + name());
            }
            done[segment.uid] += segment.duration();
            prev_end = std::max(prev_end, segment.end);
        }
    }

    // -- processor-demand criterion: in every interval [r, d] spanned by a
    //    release and a deadline, the demand of items that must fully execute
    //    inside it cannot exceed the supply.  Purely item-derived, so a
    //    timeline that silently drops work cannot mask an overfull window.
    std::vector<Time> releases{now};
    for (const ScheduleItem* item : items) releases.push_back(item->release);
    for (const Time r : releases) {
        for (const ScheduleItem* bound : items) {
            const Time d = bound->abs_deadline;
            if (d <= r + tol) continue;
            double demand = 0.0;
            for (const ScheduleItem* item : items)
                if (item->release >= r - tol && item->abs_deadline <= d + tol)
                    demand += std::max(item->duration, 0.0);
            const double slack = margin + tol * static_cast<double>(items.size());
            if (demand > (d - r) + slack)
                report.add(AuditCode::demand_overflow,
                           "demand " + std::to_string(demand) + " exceeds supply " +
                               std::to_string(d - r) + " in [" + std::to_string(r) + ", " +
                               std::to_string(d) + ")" + name());
        }
    }
}

} // namespace

AuditReport ScheduleAuditor::audit_window(const Platform& platform, Time now,
                                          std::span<const ScheduleItem> items,
                                          const WindowSchedule& schedule,
                                          const PlatformHealth* health) const {
    AuditReport report;
    const double tol = options_.tolerance;
    const double margin = 10.0 * tol;

    if (schedule.per_resource.size() != platform.size()) {
        report.add(AuditCode::schedule_shape,
                   "schedule has " + std::to_string(schedule.per_resource.size()) +
                       " timelines for " + std::to_string(platform.size()) + " resources");
        return report;
    }

    // Group items by physical timeline; screen out malformed mappings.
    std::vector<std::vector<const ScheduleItem*>> by_physical(platform.size());
    for (const ScheduleItem& item : items) {
        if (item.resource >= platform.size()) {
            report.add(AuditCode::schedule_shape,
                       uid_str(item.uid) + " mapped to resource " +
                           std::to_string(item.resource) + " of " +
                           std::to_string(platform.size()));
            continue;
        }
        // Offline resources are infeasible *mapping* targets.  Design-time
        // reservations are exempt: their windows keep blocking the resource
        // through an outage (the critical task is not ours to re-map).
        if (!item.reserved && health != nullptr && !health->online(item.resource))
            report.add(AuditCode::offline_resource,
                       uid_str(item.uid) + " mapped to offline " +
                           platform.resource(item.resource).name());
        by_physical[platform.resource(item.resource).physical()].push_back(&item);
    }

    for (ResourceId i = 0; i < platform.size(); ++i) {
        const Resource& resource = platform.resource(i);
        if (resource.physical() != i) {
            // Operating points share the anchor's timeline; theirs stay empty.
            if (!schedule.per_resource[i].segments.empty())
                report.add(AuditCode::wrong_timeline,
                           "segments on non-anchor operating point " + resource.name());
            continue;
        }
        // A segment may only carry a uid mapped to this physical core.
        for (const Segment& segment : schedule.per_resource[i].segments) {
            const bool known = std::any_of(
                by_physical[i].begin(), by_physical[i].end(),
                [&](const ScheduleItem* item) { return item->uid == segment.uid; });
            if (!known)
                report.add(AuditCode::wrong_timeline,
                           uid_str(segment.uid) + " executes on " + resource.name() +
                               " without being mapped there");
        }
        audit_timeline(report, resource, now, by_physical[i], schedule.per_resource[i], tol);
    }

    // -- completion map vs. timelines, and the feasibility verdict itself.
    bool any_missed = false;
    for (const ScheduleItem& item : items) {
        if (item.resource >= platform.size()) continue;
        const auto completion = schedule.completion_of(item.uid);
        if (!completion.has_value()) {
            report.add(AuditCode::completion_mismatch, uid_str(item.uid) + " has no completion");
            continue;
        }
        if (item.duration > tol) {
            const auto segs = schedule.segments_of(item.uid);
            if (!segs.empty() && std::abs(segs.back().end - *completion) > margin)
                report.add(AuditCode::completion_mismatch,
                           uid_str(item.uid) + " completion " + std::to_string(*completion) +
                               " != last segment end " + std::to_string(segs.back().end));
        }
        if (*completion > item.abs_deadline + margin) {
            any_missed = true;
            if (schedule.feasible)
                report.add(AuditCode::deadline_missed,
                           uid_str(item.uid) + " completes " + std::to_string(*completion) +
                               " after deadline " + std::to_string(item.abs_deadline) +
                               " in a schedule claimed feasible");
        }
    }
    if (!schedule.feasible && !any_missed && !items.empty())
        report.add(AuditCode::feasibility_mismatch,
                   "schedule claimed infeasible but every completion meets its deadline");
    return report;
}

AuditReport ScheduleAuditor::audit_items(const Platform& platform, const Catalog& catalog,
                                         Time now, std::span<const ActiveTask> active,
                                         std::span<const ScheduleItem> items,
                                         const PlatformHealth* health) const {
    AuditReport report;
    const double tol = options_.tolerance;

    std::unordered_map<TaskUid, const ActiveTask*> tasks;
    for (const ActiveTask& task : active) tasks.emplace(task.uid, &task);

    std::size_t real_items = 0;
    for (const ScheduleItem& item : items) {
        if (item.reserved || is_predicted_uid(item.uid)) continue;
        ++real_items;
        const auto it = tasks.find(item.uid);
        if (it == tasks.end()) {
            report.add(AuditCode::mapping_incomplete,
                       uid_str(item.uid) + " scheduled but not in the active set");
            continue;
        }
        const ActiveTask& task = *it->second;
        const TaskType& type = catalog.type(task.type);

        if (item.resource >= platform.size() || !type.executable_on(item.resource)) {
            report.add(AuditCode::not_executable,
                       uid_str(item.uid) + " mapped to a resource its type cannot use");
            continue;
        }
        if (health != nullptr && !health->online(item.resource))
            report.add(AuditCode::offline_resource,
                       uid_str(item.uid) + " mapped to offline " +
                           platform.resource(item.resource).name());
        if (task.pinned && item.resource != task.resource)
            report.add(AuditCode::pinned_violation,
                       uid_str(item.uid) + " pinned to " +
                           platform.resource(task.resource).name() + " but scheduled elsewhere");
        if (item.pinned_first != task.pinned)
            report.add(AuditCode::pinned_violation,
                       uid_str(item.uid) + " pinned flag disagrees with the task state");
        if (std::abs(item.abs_deadline - task.absolute_deadline) > tol ||
            item.release < now - tol)
            report.add(AuditCode::item_encoding,
                       uid_str(item.uid) + " release/deadline disagree with the task state");

        const ExpectedCost cost = expected_cost(task, type, item.resource, health);
        const double unthrottled = task.remaining_fraction * type.wcet(item.resource);
        const double migration = task.started && item.resource != task.resource
                                     ? type.migration_time(task.resource, item.resource)
                                     : 0.0;
        diagnose_duration(report, item, cost, unthrottled, migration, tol);
    }
    if (real_items != active.size())
        report.add(AuditCode::mapping_incomplete,
                   std::to_string(real_items) + " scheduled of " +
                       std::to_string(active.size()) + " active tasks");
    return report;
}

AuditReport ScheduleAuditor::audit_instance(const ArrivalContext& context,
                                            const PlanInstance& instance) const {
    AuditReport report;
    const double tol = options_.tolerance;
    const Platform& platform = *context.platform;
    const std::size_t n = platform.size();
    const std::size_t real = context.active.size() + 1;

    if (instance.tasks.size() != real + instance.predicted_count ||
        instance.predicted_count > context.predicted.size() || instance.resource_count() != n) {
        report.add(AuditCode::instance_shape,
                   "instance holds " + std::to_string(instance.tasks.size()) + " tasks for " +
                       std::to_string(real) + " real + " +
                       std::to_string(instance.predicted_count) + " predicted");
        return report;
    }

    // -- planning window: K-bar = max_j t_left_j, recomputed independently.
    Time latest = context.candidate.absolute_deadline;
    for (const ActiveTask& task : context.active) latest = std::max(latest, task.absolute_deadline);
    for (std::size_t k = 0; k < instance.predicted_count; ++k)
        latest = std::max(latest, context.predicted[k].absolute_deadline());
    if (std::abs(instance.window - (latest - context.now)) > tol)
        report.add(AuditCode::window_mismatch,
                   "window " + std::to_string(instance.window) + " != max t_left " +
                       std::to_string(latest - context.now));

    // -- per-task cpm/epm tables vs. first principles.
    const auto check_real = [&](std::size_t j, const ActiveTask& task, bool candidate) {
        const PlanTask& plan = instance.tasks[j];
        const TaskType& type = context.catalog->type(task.type);
        if (plan.uid != task.uid || plan.is_predicted || plan.is_candidate != candidate) {
            report.add(AuditCode::instance_shape, uid_str(plan.uid) + " malformed plan task");
            return;
        }
        const auto executable = instance.executable(j);
        for (ResourceId i = 0; i < n; ++i) {
            const bool listed = std::ranges::find(executable, i) != executable.end();
            const bool offline = context.health != nullptr && !context.health->online(i);
            const bool usable =
                type.executable_on(i) && !offline && (!task.pinned || i == task.resource);
            if (listed != usable || std::isfinite(instance.cpm(j)[i]) != usable) {
                report.add(offline && listed ? AuditCode::offline_resource
                                             : AuditCode::instance_shape,
                           uid_str(plan.uid) + " executable set wrong on " +
                               platform.resource(i).name());
                continue;
            }
            if (!usable) continue;
            const ExpectedCost cost = expected_cost(task, type, i, context.health);
            ScheduleItem as_item;
            as_item.uid = plan.uid;
            as_item.duration = instance.cpm(j)[i];
            diagnose_duration(report, as_item, cost, task.remaining_fraction * type.wcet(i),
                              task.started && i != task.resource
                                  ? type.migration_time(task.resource, i)
                                  : 0.0,
                              tol);
            if (std::abs(instance.epm(j)[i] - cost.energy) > tol)
                report.add(AuditCode::energy_mismatch,
                           uid_str(plan.uid) + " epm " + std::to_string(instance.epm(j)[i]) +
                               " != expected " + std::to_string(cost.energy) + " on " +
                               platform.resource(i).name());
        }
    };

    for (std::size_t j = 0; j < context.active.size(); ++j)
        check_real(j, context.active[j], false);
    check_real(context.active.size(), context.candidate, true);

    for (std::size_t k = 0; k < instance.predicted_count; ++k) {
        const PlanTask& plan = instance.tasks[real + k];
        const PredictedTask& predicted = context.predicted[k];
        const TaskType& type = context.catalog->type(predicted.type);
        if (!plan.is_predicted || plan.uid != kPredictedUidBase + k ||
            std::abs(plan.release - std::max(predicted.arrival, context.now)) > tol ||
            std::abs(plan.abs_deadline - predicted.absolute_deadline()) > tol) {
            report.add(AuditCode::instance_shape, "predicted task " + std::to_string(k) +
                                                      " misencoded");
            continue;
        }
        for (const ResourceId i : instance.executable(real + k)) {
            double wcet = type.wcet(i);
            if (context.health != nullptr) wcet *= context.health->throttle(i);
            if (std::abs(instance.cpm(real + k)[i] - wcet) > tol)
                report.add(AuditCode::throttle_ignored,
                           "predicted task " + std::to_string(k) + " cpm misses throttle on " +
                               platform.resource(i).name());
            if (std::abs(instance.epm(real + k)[i] - type.energy(i)) > tol)
                report.add(AuditCode::energy_mismatch,
                           "predicted task " + std::to_string(k) + " epm mismatch on " +
                               platform.resource(i).name());
        }
    }

    // -- reservation blocks: per-anchor bookkeeping must agree.
    const auto blocks = instance.blocks();
    if (blocks.size() != n || instance.blocked_time().size() != n) {
        report.add(AuditCode::block_accounting, "block containers disagree with the platform");
        return report;
    }
    for (ResourceId i = 0; i < n; ++i) {
        double total = 0.0;
        for (const ScheduleItem& block : blocks[i]) {
            total += block.duration;
            if (!block.reserved || block.release < instance.now - tol)
                report.add(AuditCode::block_accounting,
                           "malformed reservation block on " + platform.resource(i).name());
        }
        const double blocked = instance.blocked_time()[i];
        if (std::abs(total - blocked) > tol * (1.0 + static_cast<double>(blocks[i].size())))
            report.add(AuditCode::block_accounting,
                       "blocked_time " + std::to_string(blocked) +
                           " != sum of blocks " + std::to_string(total) + " on " +
                           platform.resource(i).name());
    }
    return report;
}

AuditReport ScheduleAuditor::audit_decision(const ArrivalContext& context,
                                            const Decision& decision) const {
    AuditReport report;
    const Platform& platform = *context.platform;

    // -- encoding audit of the optimisation instance this activation used.
    report.merge(audit_instance(context, PlanInstance::build(context, context.predicted.size())));

    // -- mapping shape: admitted plans re-map the whole set exactly once;
    //    rejections change nothing.
    if (!decision.admitted) {
        if (!decision.assignments.empty())
            report.add(AuditCode::mapping_incomplete,
                       "rejected decision carries " +
                           std::to_string(decision.assignments.size()) + " assignments");
        return report;
    }

    std::vector<const ActiveTask*> mapped;
    std::size_t candidate_seen = 0;
    for (const TaskAssignment& assignment : decision.assignments) {
        const ActiveTask* task = nullptr;
        if (assignment.uid == context.candidate.uid) {
            task = &context.candidate;
            ++candidate_seen;
        } else {
            for (const ActiveTask& active : context.active)
                if (active.uid == assignment.uid) task = &active;
        }
        if (task == nullptr) {
            report.add(AuditCode::mapping_incomplete,
                       uid_str(assignment.uid) + " assigned but unknown");
            continue;
        }
        if (std::count_if(mapped.begin(), mapped.end(),
                          [&](const ActiveTask* seen) { return seen->uid == task->uid; }) > 0)
            report.add(AuditCode::mapping_incomplete, uid_str(task->uid) + " assigned twice");
        mapped.push_back(task);
    }
    if (candidate_seen != 1 || decision.assignments.size() != context.active.size() + 1)
        report.add(AuditCode::mapping_incomplete,
                   "admitted decision maps " + std::to_string(decision.assignments.size()) +
                       " of " + std::to_string(context.active.size() + 1) + " tasks");
    if (!report.ok()) return report;

    // -- realize the admitted mapping with first-principles items and verify
    //    the firm-deadline guarantee plus every window invariant.
    std::vector<ScheduleItem> items;
    items.reserve(decision.assignments.size());
    Time horizon = context.now;
    for (std::size_t j = 0; j < decision.assignments.size(); ++j) {
        const TaskAssignment& assignment = decision.assignments[j];
        const ActiveTask& task = *mapped[j];
        const TaskType& type = context.catalog->type(task.type);
        if (assignment.resource >= platform.size() || !type.executable_on(assignment.resource)) {
            report.add(AuditCode::not_executable,
                       uid_str(task.uid) + " admitted onto an unusable resource");
            return report;
        }
        const ExpectedCost cost = expected_cost(task, type, assignment.resource, context.health);
        ScheduleItem item;
        item.uid = task.uid;
        item.resource = assignment.resource;
        item.release = context.now;
        item.abs_deadline = task.absolute_deadline;
        item.duration = cost.duration();
        item.pinned_first = task.pinned;
        items.push_back(item);
        horizon = std::max(horizon, task.absolute_deadline);
    }
    if (context.reservations != nullptr && !context.reservations->empty())
        context.reservations->append_blocks(context.now, horizon, items);

    const WindowSchedule schedule = build_window_schedule(platform, context.now, items);
    if (!schedule.feasible)
        report.add(AuditCode::deadline_missed,
                   "admitted task set is not schedulable under EDF from first principles");
    // The admitted candidate joins the active set for the item audit.
    std::vector<ActiveTask> all(context.active.begin(), context.active.end());
    all.push_back(context.candidate);
    report.merge(audit_items(platform, *context.catalog, context.now, all, items,
                             context.health));
    report.merge(audit_window(platform, context.now, items, schedule, context.health));
    return report;
}

AuditReport ScheduleAuditor::audit_rescue(const RescueContext& context,
                                          const RescueDecision& decision) const {
    AuditReport report;
    const Platform& platform = *context.platform;

    // -- partition: every survivor appears in exactly one of kept/aborted.
    std::unordered_map<TaskUid, int> seen;
    for (const TaskAssignment& assignment : decision.kept) ++seen[assignment.uid];
    for (const TaskUid uid : decision.aborted) ++seen[uid];
    if (seen.size() != context.active.size() ||
        decision.kept.size() + decision.aborted.size() != context.active.size())
        report.add(AuditCode::rescue_partition,
                   "kept " + std::to_string(decision.kept.size()) + " + aborted " +
                       std::to_string(decision.aborted.size()) + " != " +
                       std::to_string(context.active.size()) + " survivors");
    for (const ActiveTask& task : context.active) {
        const auto it = seen.find(task.uid);
        if (it == seen.end() || it->second != 1)
            report.add(AuditCode::rescue_partition,
                       uid_str(task.uid) + " appears " +
                           std::to_string(it == seen.end() ? 0 : it->second) +
                           " times in the rescue verdict");
    }
    if (!report.ok()) return report;

    // -- kept mappings: healthy targets, schedulable from first principles.
    std::vector<ScheduleItem> items;
    std::vector<ActiveTask> kept_tasks;
    Time horizon = context.now;
    for (const TaskAssignment& assignment : decision.kept) {
        const ActiveTask* task = nullptr;
        for (const ActiveTask& active : context.active)
            if (active.uid == assignment.uid) task = &active;
        if (task == nullptr) continue; // unreachable: the partition check passed
        const TaskType& type = context.catalog->type(task->type);
        if (context.health != nullptr && !context.health->online(assignment.resource))
            report.add(AuditCode::offline_resource,
                       uid_str(task->uid) + " rescued onto an offline resource");
        if (assignment.resource >= platform.size() || !type.executable_on(assignment.resource)) {
            report.add(AuditCode::not_executable,
                       uid_str(task->uid) + " rescued onto an unusable resource");
            continue;
        }
        if (task->pinned && assignment.resource != task->resource)
            report.add(AuditCode::pinned_violation,
                       uid_str(task->uid) + " pinned task migrated by a rescue");

        const ExpectedCost cost = expected_cost(*task, type, assignment.resource, context.health);
        ScheduleItem item;
        item.uid = task->uid;
        item.resource = assignment.resource;
        item.release = context.now;
        item.abs_deadline = task->absolute_deadline;
        item.duration = cost.duration();
        item.pinned_first = task->pinned;
        items.push_back(item);
        kept_tasks.push_back(*task);
        horizon = std::max(horizon, task->absolute_deadline);
    }
    if (!report.ok()) return report;
    if (context.reservations != nullptr && !context.reservations->empty())
        context.reservations->append_blocks(context.now, horizon, items);

    const WindowSchedule schedule = build_window_schedule(platform, context.now, items);
    if (!schedule.feasible)
        report.add(AuditCode::deadline_missed,
                   "rescued task set is not schedulable under EDF from first principles");
    report.merge(audit_items(platform, *context.catalog, context.now, kept_tasks, items,
                             context.health));
    report.merge(audit_window(platform, context.now, items, schedule, context.health));
    return report;
}

AuditReport ScheduleAuditor::audit_plan_energy(const PlanInstance& instance,
                                               const std::vector<ResourceId>& mapping,
                                               double reported_energy) const {
    AuditReport report;
    if (mapping.size() != instance.tasks.size()) {
        report.add(AuditCode::energy_mismatch,
                   "mapping covers " + std::to_string(mapping.size()) + " of " +
                       std::to_string(instance.tasks.size()) + " plan tasks");
        return report;
    }
    double total = 0.0;
    for (std::size_t j = 0; j < instance.tasks.size(); ++j) {
        if (mapping[j] >= instance.resource_count() ||
            !std::isfinite(instance.epm(j)[mapping[j]])) {
            report.add(AuditCode::energy_mismatch,
                       uid_str(instance.tasks[j].uid) + " mapped outside its executable set");
            return report;
        }
        total += instance.epm(j)[mapping[j]];
    }
    const double slack =
        options_.tolerance * (1.0 + static_cast<double>(instance.tasks.size())) +
        1e-9 * std::abs(total);
    if (std::abs(total - reported_energy) > slack)
        report.add(AuditCode::energy_mismatch,
                   "plan energy " + std::to_string(reported_energy) +
                       " != sum of per-chunk energies " + std::to_string(total));
    return report;
}

ScheduleAuditor::Differential ScheduleAuditor::differential_admission(
    const ArrivalContext& context, const Decision& decision) const {
    Differential result;
    const std::size_t count = context.active.size() + 1 + context.predicted.size();
    if (count > options_.differential_max_tasks) return result;
    result.checked = true;

    ExactRM::Options exact_options;
    exact_options.node_limit = options_.differential_node_limit;

    // Mirror the Sec 4.1 admission ladder with the complete search: feasible
    // with all predictions, else trimmed, down to the prediction-free plan.
    for (std::size_t k = context.predicted.size() + 1; k-- > 0;) {
        const PlanInstance instance = PlanInstance::build(context, k);
        if (const auto exact = ExactRM::optimize(instance, exact_options)) {
            result.exact_admits = true;
            // Energy conservation of the exact plan itself.
            result.report.merge(audit_plan_energy(instance, exact->mapping, exact->energy));
            break;
        }
    }

    // The search is complete within the node budget, so "the RM admitted but
    // the exact search finds nothing feasible" proves one of the two sides
    // wrong — a hard violation either way.
    if (decision.admitted && !result.exact_admits)
        result.report.add(AuditCode::differential_admit,
                          "RM admitted a task set the complete search proves infeasible");
    return result;
}

} // namespace rmwp
