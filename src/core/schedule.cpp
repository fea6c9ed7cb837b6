#include "core/schedule.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rmwp {

std::optional<Time> WindowSchedule::completion_of(TaskUid uid) const {
    const auto it = std::lower_bound(
        completion.begin(), completion.end(), uid,
        [](const std::pair<TaskUid, Time>& entry, TaskUid key) { return entry.first < key; });
    if (it == completion.end() || it->first != uid) return std::nullopt;
    return it->second;
}

std::vector<Segment> WindowSchedule::segments_of(TaskUid uid) const {
    std::vector<Segment> result;
    for (const auto& timeline : per_resource)
        for (const Segment& s : timeline.segments)
            if (s.uid == uid) result.push_back(s);
    std::sort(result.begin(), result.end(),
              [](const Segment& a, const Segment& b) { return a.start < b.start; });
    // One task never executes in two places at once: its segments, merged
    // across all timelines, must still be non-overlapping in time.
    for (std::size_t s = 1; s < result.size(); ++s)
        RMWP_ENSURE(result[s].start >= result[s - 1].end - 1e-9);
    return result;
}

} // namespace rmwp
