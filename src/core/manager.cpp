#include "core/manager.hpp"

#include <algorithm>

#include "core/reservation.hpp"
#include "util/check.hpp"

namespace rmwp {

const char* to_string(RejectReason reason) noexcept {
    switch (reason) {
    case RejectReason::none: return "none";
    case RejectReason::deadline_passed: return "deadline_passed";
    case RejectReason::heuristic_exhausted: return "heuristic_exhausted";
    case RejectReason::proved_infeasible: return "proved_infeasible";
    case RejectReason::solver_infeasible: return "solver_infeasible";
    case RejectReason::baseline_no_fit: return "baseline_no_fit";
    case RejectReason::overload: return "overload";
    }
    return "unknown";
}

ScheduleItem make_schedule_item(const ActiveTask& task, const TaskType& type, ResourceId to,
                                Time now, const PlatformHealth* health) {
    RMWP_EXPECT(type.executable_on(to));
    RMWP_EXPECT(!task.pinned || to == task.resource);
    ScheduleItem item;
    item.uid = task.uid;
    item.resource = to;
    item.release = now;
    item.abs_deadline = task.absolute_deadline;
    item.duration = occupied_time(task, type, to);
    if (health != nullptr) {
        RMWP_EXPECT(health->online(to));
        // Throttling stretches the remaining work, not the migration
        // overhead (the data move is memory-bound, not compute-bound).
        item.duration += (health->throttle(to) - 1.0) * remaining_time(task, type, to);
    }
    item.pinned_first = task.pinned;
    return item;
}

ScheduleItem make_predicted_item(const PredictedTask& predicted, const TaskType& type,
                                 ResourceId to, Time now) {
    RMWP_EXPECT(type.executable_on(to));
    ScheduleItem item;
    item.uid = kPredictedUid;
    item.resource = to;
    item.release = std::max(predicted.arrival, now);
    item.abs_deadline = predicted.absolute_deadline();
    item.duration = type.wcet(to);
    item.pinned_first = false;
    return item;
}

Decision ResourceManager::decide(const ArrivalContext& context) {
    RMWP_EXPECT(context.platform != nullptr);
    RMWP_EXPECT(context.catalog != nullptr);
    // Thread-local item and output buffers keep their capacity across
    // calls, so the wrapper adds no steady-state allocation: the Decision's
    // assignments vector stays the one allocation per decision
    // (tests/test_alloc_count.cpp).
    static thread_local BatchItem item;
    static thread_local std::vector<Decision> out;
    item.candidate = context.candidate;
    item.predicted.assign(context.predicted.begin(), context.predicted.end());
    BatchArrivalContext batch;
    batch.now = context.now;
    batch.platform = context.platform;
    batch.catalog = context.catalog;
    batch.active = context.active;
    batch.items = std::span<const BatchItem>(&item, 1);
    batch.reservations = context.reservations;
    batch.health = context.health;
    decide_batch(batch, out);
    RMWP_ENSURE(out.size() == 1);
    return std::move(out.front());
}

RescueDecision ResourceManager::rescue(const RescueContext& context) {
    RMWP_EXPECT(context.platform != nullptr);
    RMWP_EXPECT(context.catalog != nullptr);
    const Platform& platform = *context.platform;
    RescueDecision decision;

    // Non-replanning fallback: every surviving task stays where it is.
    // Tasks on an offline resource have nowhere to run without a migration,
    // which this policy never performs — they are aborted outright.
    Time horizon = context.now;
    // Pooled per-core schedules: their capacity survives across rescues.
    static thread_local std::vector<std::vector<ScheduleItem>> per_physical;
    per_physical.resize(platform.size());
    for (auto& items : per_physical) items.clear();
    for (const ActiveTask& task : context.active) {
        if (context.health != nullptr && !context.health->online(task.resource)) {
            decision.aborted.push_back(task.uid);
            continue;
        }
        horizon = std::max(horizon, task.absolute_deadline);
        const ResourceId anchor = platform.resource(task.resource).physical();
        per_physical[anchor].push_back(make_schedule_item(task, context.type_of(task),
                                                          task.resource, context.now,
                                                          context.health));
    }
    if (context.reservations != nullptr && !context.reservations->empty()) {
        for (const Resource& resource : platform)
            context.reservations->blocks_for(resource.id(), context.now, horizon,
                                             per_physical[resource.physical()]);
    }

    // Degraded capacity (throttle-inflated durations) can make the in-place
    // set unschedulable: shed the latest-deadline adaptive occupant of each
    // violated core until its EDF check passes again.
    for (const Resource& resource : platform) {
        if (resource.physical() != resource.id()) continue; // one pass per core
        auto& items = per_physical[resource.id()];
        while (!resource_feasible(resource, context.now, items)) {
            std::size_t victim = items.size();
            for (std::size_t k = 0; k < items.size(); ++k) {
                if (items[k].reserved) continue;
                if (victim == items.size() ||
                    items[k].abs_deadline > items[victim].abs_deadline)
                    victim = k;
            }
            RMWP_ENSURE(victim < items.size()); // reservations alone always fit
            decision.aborted.push_back(items[victim].uid);
            items.erase(items.begin() + static_cast<std::ptrdiff_t>(victim));
        }
        for (const ScheduleItem& item : items)
            if (!item.reserved) decision.kept.push_back(TaskAssignment{item.uid, item.resource});
    }
    return decision;
}

Time planning_window(const ArrivalContext& context, std::size_t predicted_count) {
    Time latest = context.candidate.absolute_deadline;
    for (const ActiveTask& task : context.active) latest = std::max(latest, task.absolute_deadline);
    const std::size_t count = std::min(predicted_count, context.predicted.size());
    for (std::size_t k = 0; k < count; ++k)
        latest = std::max(latest, context.predicted[k].absolute_deadline());
    RMWP_ENSURE(latest >= context.now);
    return latest - context.now;
}

WindowSchedule realize_decision(const ArrivalContext& context, const Decision& decision) {
    std::vector<ScheduleItem> items;
    items.reserve(decision.assignments.size());

    auto find_task = [&](TaskUid uid) -> const ActiveTask* {
        if (uid == context.candidate.uid) return &context.candidate;
        for (const ActiveTask& task : context.active)
            if (task.uid == uid) return &task;
        return nullptr;
    };

    std::size_t candidate_seen = 0;
    for (const TaskAssignment& assignment : decision.assignments) {
        const ActiveTask* task = find_task(assignment.uid);
        RMWP_EXPECT(task != nullptr);
        if (task == &context.candidate) ++candidate_seen;
        items.push_back(
            make_schedule_item(*task, context.type_of(*task), assignment.resource, context.now));
    }
    if (decision.admitted) {
        RMWP_EXPECT(candidate_seen == 1);
        RMWP_EXPECT(decision.assignments.size() == context.active.size() + 1);
    } else {
        RMWP_EXPECT(decision.assignments.empty());
        for (const ActiveTask& task : context.active)
            items.push_back(
                make_schedule_item(task, context.type_of(task), task.resource, context.now));
    }

    if (context.reservations != nullptr && !context.reservations->empty()) {
        Time horizon = context.now;
        for (const ScheduleItem& item : items)
            horizon = std::max(horizon, item.abs_deadline);
        context.reservations->append_blocks(context.now, horizon, items);
    }

    return build_window_schedule(*context.platform, context.now, items);
}

} // namespace rmwp
