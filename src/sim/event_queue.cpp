#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rmwp {

EventQueue::Entry EventQueue::make_entry(Time time, std::uint32_t kind, std::uint64_t payload) {
    RMWP_EXPECT(!std::isnan(time));
    // Scheduling into the dispatched past would silently reorder the
    // simulation (the event would fire "now" regardless of its timestamp).
    RMWP_EXPECT(time >= last_popped_time_);
    ++total_scheduled_;
    return Entry{Event{time, kind, payload}, next_sequence_++};
}

void EventQueue::schedule(Time time, std::uint32_t kind, std::uint64_t payload) {
    heap_.push(make_entry(time, kind, payload));
}

void EventQueue::clear_armed() noexcept {
    armed_.clear();
    armed_sorted_ = true;
}

void EventQueue::arm(Time time, std::uint32_t kind, std::uint64_t payload) {
    armed_.push_back(make_entry(time, kind, payload));
    armed_sorted_ = false;
}

void EventQueue::sort_armed() {
    if (armed_sorted_) return;
    // Latest first under the heap's own order, so the back is the earliest.
    std::sort(armed_.begin(), armed_.end(), Later{});
    armed_sorted_ = true;
}

bool EventQueue::armed_first() {
    RMWP_EXPECT(!empty());
    sort_armed();
    if (armed_.empty()) return false;
    if (heap_.empty()) return true;
    return Later{}(heap_.top(), armed_.back());
}

Event EventQueue::pop() {
    Event event;
    if (armed_first()) {
        event = armed_.back().event;
        armed_.pop_back();
    } else {
        event = heap_.top().event;
        heap_.pop();
    }
    // Dispatch is monotone in time; simultaneous events keep their
    // insertion order (deterministic fault-onset vs. completion interleaving).
    RMWP_ENSURE(event.time >= last_popped_time_);
    last_popped_time_ = event.time;
    return event;
}

Time EventQueue::next_time() {
    return armed_first() ? armed_.back().event.time : heap_.top().event.time;
}

} // namespace rmwp
