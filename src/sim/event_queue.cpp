#include "sim/event_queue.hpp"

#include <cmath>

#include "util/check.hpp"

namespace rmwp {

void EventQueue::schedule(Time time, std::uint32_t kind, std::uint64_t payload,
                          std::uint64_t group) {
    RMWP_EXPECT(!cancelled(group));
    RMWP_EXPECT(!std::isnan(time));
    // Scheduling into the dispatched past would silently reorder the
    // simulation (the event would fire "now" regardless of its timestamp).
    RMWP_EXPECT(time >= last_popped_time_);
    queue_.push(Entry{Event{time, kind, payload, group}, next_sequence_++});
    ++total_scheduled_;
}

void EventQueue::cancel_groups_through(std::uint64_t group) {
    RMWP_EXPECT(group != 0); // group 0 holds the events that are never cancelled
    RMWP_EXPECT(group >= cancelled_through_);
    cancelled_through_ = group;
}

void EventQueue::drop_cancelled() {
    while (!queue_.empty() && cancelled(queue_.top().event.group)) queue_.pop();
}

bool EventQueue::empty() {
    drop_cancelled();
    return queue_.empty();
}

Event EventQueue::pop() {
    drop_cancelled();
    RMWP_EXPECT(!queue_.empty());
    const Event event = queue_.top().event;
    queue_.pop();
    // Dispatch is monotone in time; simultaneous events keep their
    // insertion order (deterministic fault-onset vs. arrival interleaving).
    RMWP_ENSURE(event.time >= last_popped_time_);
    last_popped_time_ = event.time;
    return event;
}

Time EventQueue::next_time() {
    drop_cancelled();
    RMWP_EXPECT(!queue_.empty());
    return queue_.top().event.time;
}

} // namespace rmwp
