#include "core/reservation.hpp"

#include <atomic>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace rmwp {
namespace {

/// Uid layout: [63] reserved flag, [62:32] task index, [31:0] instance.
constexpr TaskUid kInstanceBits = 32;

TaskUid reserved_uid(std::size_t task_index, std::uint64_t instance) {
    RMWP_EXPECT(instance < (TaskUid{1} << kInstanceBits));
    return kReservedUidBase | (static_cast<TaskUid>(task_index) << kInstanceBits) | instance;
}

std::size_t task_index_of(TaskUid uid) {
    RMWP_EXPECT(is_reserved_uid(uid));
    return static_cast<std::size_t>((uid & ~kReservedUidBase) >> kInstanceBits);
}

} // namespace

std::uint64_t ReservationTable::next_revision() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

ReservationTable::ReservationTable(std::vector<CriticalTask> tasks) : tasks_(std::move(tasks)) {
    for (const CriticalTask& task : tasks_) {
        RMWP_EXPECT(!task.name.empty());
        RMWP_EXPECT(task.period > 0.0);
        RMWP_EXPECT(task.duration > 0.0);
        RMWP_EXPECT(task.duration <= task.period);
        RMWP_EXPECT(task.offset >= 0.0);
        RMWP_EXPECT(task.energy_per_instance >= 0.0);
    }
    // Same-resource reservations must never overlap: with arbitrary periods
    // the exact check is a lifetime simulation, so we enforce the simple
    // sufficient condition used by static allocators — the summed
    // utilisation per resource stays below 1 and windows are validated
    // lazily when expanded (an overlap surfaces as an infeasible schedule).
    for (std::size_t a = 0; a < tasks_.size(); ++a) {
        double utilization = tasks_[a].utilization();
        for (std::size_t b = 0; b < tasks_.size(); ++b) {
            if (a == b || tasks_[a].resource != tasks_[b].resource) continue;
            if (b > a) utilization += tasks_[b].utilization();
        }
        RMWP_EXPECT(utilization <= 1.0 + 1e-9);
    }
}

double ReservationTable::utilization_of(ResourceId resource) const noexcept {
    double total = 0.0;
    for (const CriticalTask& task : tasks_)
        if (task.resource == resource) total += task.utilization();
    return total;
}

void ReservationTable::blocks_for(ResourceId resource, Time from, Time until,
                                  std::vector<ScheduleItem>& out) const {
    RMWP_EXPECT(from <= until);
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
        const CriticalTask& task = tasks_[t];
        if (task.resource != resource) continue;

        // First instance whose window end is after `from`.
        std::uint64_t instance = 0;
        if (from > task.offset + task.duration) {
            instance = static_cast<std::uint64_t>(
                std::ceil((from - task.offset - task.duration) / task.period));
        }
        Time previous_end = -std::numeric_limits<Time>::infinity();
        for (;; ++instance) {
            const Time start = task.offset + static_cast<double>(instance) * task.period;
            const Time end = start + task.duration;
            if (end <= from) continue;
            if (start >= until) break;

            ScheduleItem block;
            block.uid = reserved_uid(t, instance);
            block.resource = resource;
            // Clip an in-progress window to its remaining part.
            block.release = std::max(start, from);
            block.duration = end - block.release;
            block.abs_deadline = end;
            block.reserved = true;
            // Expanded blocks intersect the query window, carry positive
            // reserved time, and successive instances of one task never
            // overlap (duration <= period is a constructor precondition).
            RMWP_ENSURE(block.release >= from && block.release <= until);
            RMWP_ENSURE(block.duration > 0.0);
            RMWP_ENSURE(block.release >= previous_end - 1e-9);
            previous_end = end;
            out.push_back(block);
        }
    }
}

void ReservationTable::append_blocks(Time from, Time until,
                                     std::vector<ScheduleItem>& out) const {
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
        // blocks_for covers every task of a resource: expand each distinct
        // resource once, at its first task.
        const ResourceId resource = tasks_[t].resource;
        bool seen = false;
        for (std::size_t s = 0; s < t; ++s) seen = seen || tasks_[s].resource == resource;
        if (!seen) blocks_for(resource, from, until, out);
    }
}

const CriticalTask& ReservationTable::task_of(TaskUid uid) const {
    const std::size_t index = task_index_of(uid);
    RMWP_EXPECT(index < tasks_.size());
    return tasks_[index];
}

} // namespace rmwp
