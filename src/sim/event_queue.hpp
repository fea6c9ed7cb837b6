// A small discrete-event simulation kernel: a time-ordered event queue with
// stable FIFO ordering for simultaneous events and O(1) lazy cancellation.
//
// Cancellation is by generation watermark: cancel_groups_through(g)
// invalidates every event scheduled under groups 1..g, while group 0 (the
// default) is never cancelled.  The resource-management simulator numbers
// its plans 1, 2, ... and cancels the current one on every re-plan, so the
// whole cancellation state is one integer however long the run.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>

#include "workload/trace.hpp"

namespace rmwp {

/// Event payload: a small POD the simulation interprets.
struct Event {
    Time time = 0.0;
    std::uint32_t kind = 0;     ///< simulation-defined discriminator
    std::uint64_t payload = 0;  ///< simulation-defined data (e.g. a task uid)
    std::uint64_t group = 0;    ///< cancellation group
};

class EventQueue {
public:
    /// Schedule an event; events at equal times pop in insertion order —
    /// the tie-break that makes runs deterministic when, e.g., a fault
    /// onset coincides with a completion.  `time` must be a number and must
    /// not lie before the last popped event.
    void schedule(Time time, std::uint32_t kind, std::uint64_t payload, std::uint64_t group = 0);

    /// Invalidate every event scheduled under groups 1..`group` (lazy:
    /// they are discarded on pop).  `group` must be positive and must not
    /// lie below an earlier watermark; group 0 is never cancelled.
    void cancel_groups_through(std::uint64_t group);

    /// True when no valid events remain.
    [[nodiscard]] bool empty();

    /// Pop the earliest valid event.  Requires !empty().
    [[nodiscard]] Event pop();

    /// Time of the earliest valid event.  Requires !empty().
    [[nodiscard]] Time next_time();

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

    [[nodiscard]] bool cancelled(std::uint64_t group) const noexcept {
        return group != 0 && group <= cancelled_through_;
    }
    void drop_cancelled();

    std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
    std::uint64_t cancelled_through_ = 0; ///< groups 1..cancelled_through_ are dead
    std::uint64_t next_sequence_ = 0;
    std::size_t total_scheduled_ = 0;
    /// Dispatch horizon: no event may be scheduled before it, and pops are
    /// monotone in time (the tie-break keeps equal times in FIFO order).
    Time last_popped_time_ = -std::numeric_limits<Time>::infinity();
};

} // namespace rmwp
