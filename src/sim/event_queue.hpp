// A small discrete-event simulation kernel: a time-ordered event queue with
// stable FIFO ordering for simultaneous events, fed from two sources.
//
//   * schedule() pushes a one-off event onto a heap (fault onset and
//     recovery); it stays until popped.
//   * arm() adds to the armed set, which the owner replaces as a whole
//     (clear_armed(), then one arm() per event).  The resource-management
//     simulator re-arms every active task's completion after each re-plan,
//     so a plan's stale completions are dropped in O(1) instead of lying
//     in the heap as cancelled entries.  The set is sorted once per re-arm,
//     latest first, and pops from its back.
//
// Both sources draw from one sequence counter and pop() merges them by
// (time, sequence), so equal-time events keep their insertion order across
// the two: a fault scheduled before a re-arm pops before the completions
// armed at its instant, and one scheduled after (a later fault chunk) pops
// after them.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "workload/trace.hpp"

namespace rmwp {

/// Event payload: a small POD the simulation interprets.
struct Event {
    Time time = 0.0;
    std::uint32_t kind = 0;     ///< simulation-defined discriminator
    std::uint64_t payload = 0;  ///< simulation-defined data (e.g. a task uid)
};

class EventQueue {
public:
    /// Schedule a one-off event; events at equal times pop in insertion
    /// order — the tie-break that makes runs deterministic when, e.g., a
    /// fault onset coincides with a completion.  `time` must be a number and
    /// must not lie before the last popped event.
    void schedule(Time time, std::uint32_t kind, std::uint64_t payload);

    /// Drop every armed event.
    void clear_armed() noexcept;

    /// Add an event to the armed set (same ordering and preconditions as
    /// schedule()); it stays until popped or until clear_armed().
    void arm(Time time, std::uint32_t kind, std::uint64_t payload);

    /// True when no events remain.
    [[nodiscard]] bool empty() const noexcept { return heap_.empty() && armed_.empty(); }

    /// Pop the earliest event of either source.  Requires !empty().
    [[nodiscard]] Event pop();

    /// Time of the earliest event.  Requires !empty().
    [[nodiscard]] Time next_time();

    /// Events ever scheduled or armed.
    [[nodiscard]] std::size_t scheduled_count() const noexcept { return total_scheduled_; }

private:
    struct Entry {
        Event event;
        std::uint64_t sequence = 0;
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            if (a.event.time != b.event.time) return a.event.time > b.event.time;
            return a.sequence > b.sequence;
        }
    };

    [[nodiscard]] Entry make_entry(Time time, std::uint32_t kind, std::uint64_t payload);
    /// Sort the armed set latest first if an arm() left it unsorted.
    void sort_armed();
    /// True when the earliest event is the armed set's back, false when it
    /// is the heap's top.  Requires !empty().
    [[nodiscard]] bool armed_first();

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::vector<Entry> armed_; ///< latest first once sorted; pops from the back
    bool armed_sorted_ = true;
    std::uint64_t next_sequence_ = 0;
    std::size_t total_scheduled_ = 0;
    /// Dispatch horizon: no event may be scheduled before it, and pops are
    /// monotone in time (the tie-break keeps equal times in FIFO order).
    Time last_popped_time_ = -std::numeric_limits<Time>::infinity();
};

} // namespace rmwp
