#include "core/edf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

/// Absolute tolerance for time comparisons; times are O(1e4) ms and
/// durations O(10) ms, so 1e-6 is far below any meaningful quantity while
/// absorbing accumulated floating-point noise.
constexpr double kEps = 1e-6;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Margin against floating-point ordering noise: the prefilter sums
/// durations in deadline order while the simulation accumulates along its
/// dispatch path, so the two totals can disagree in the last few ulps
/// (~1e-8 at the time magnitudes used here).  Verdicts within kSafety of a
/// threshold degrade to `unknown` and fall back to the simulation.
constexpr double kSafety = 1e-7;

/// Struct-of-arrays task records for the EDF inner loop.  The dispatch scans
/// (pick, next-reservation, preemption horizon) touch one or two fields of
/// every open task per step; parallel arrays keep those scans cache-dense
/// instead of striding over 56-byte records.  Thread-local: admission probes
/// run this thousands of times per trace and must not pay a heap round-trip
/// each time.
struct EdfArrays {
    std::vector<Time> release;
    std::vector<Time> deadline;
    std::vector<double> remaining;
    std::vector<TaskUid> uid;
    std::vector<std::uint8_t> reserved;
    std::vector<std::uint8_t> done;

    void clear() noexcept {
        release.clear();
        deadline.clear();
        remaining.clear();
        uid.clear();
        reserved.clear();
        done.clear();
    }

    void push(const ScheduleItem& item) {
        release.push_back(item.release);
        deadline.push_back(item.abs_deadline);
        remaining.push_back(item.duration);
        uid.push_back(item.uid);
        reserved.push_back(item.reserved ? 1 : 0);
        done.push_back(item.duration <= 0.0 ? 1 : 0);
    }

    [[nodiscard]] std::size_t size() const noexcept { return release.size(); }
};

/// Shared preemptive/non-preemptive EDF simulation.  When `record` is null
/// only feasibility is computed.  The task records live in struct-of-arrays
/// layout; every comparison happens in the same order as the historical
/// array-of-structs loop, so timelines and verdicts are bit-identical
/// (tests/test_edf.cpp pins them).
bool simulate_edf(const Resource& resource, Time now, std::span<const ScheduleItem> items,
                  ResourceTimeline* record, CompletionList* completion) {
    RMWP_STAGE_SCOPE(obs::Stage::edf_simulate);
    bool feasible = true;
    Time cur = now;

    auto emit = [&](TaskUid uid, Time start, Time end) {
        if (record == nullptr || end <= start) return;
        // The timeline invariant: segments are emitted in time order and
        // never overlap (the resource executes one task at a time).
        RMWP_ENSURE(record->segments.empty() || start >= record->segments.back().end - kEps);
        // Coalesce with the previous segment when the same task continues.
        if (!record->segments.empty() && record->segments.back().uid == uid &&
            std::abs(record->segments.back().end - start) <= kEps) {
            record->segments.back().end = end;
            return;
        }
        record->segments.push_back(Segment{uid, start, end});
    };

    auto finish = [&](TaskUid uid, Time abs_deadline, Time end) {
        if (completion != nullptr) completion->emplace_back(uid, end);
        if (end > abs_deadline + kEps) feasible = false;
    };

    thread_local EdfArrays soa_buffer;
    EdfArrays& soa = soa_buffer;
    soa.clear();

    // Strict-weak EDF ordering with deterministic tie-breaks.  Design-time
    // reservations outrank every adaptive task; the predicted task carries
    // the maximum uid, so on deadline ties real tasks win — exactly the
    // paper's "SL1 = deadline earlier than or equal to tau_p".
    auto edf_before = [&](std::size_t a, std::size_t b) noexcept {
        if (soa.reserved[a] != soa.reserved[b]) return soa.reserved[a] != 0;
        if (soa.deadline[a] != soa.deadline[b]) return soa.deadline[a] < soa.deadline[b];
        if (soa.release[a] != soa.release[b]) return soa.release[a] < soa.release[b];
        return soa.uid[a] < soa.uid[b];
    };

    // Whether a not-yet-released task `u` preempts the currently running
    // `pick` on a preemptable resource at u's release.  Reservations preempt
    // any adaptive task; adaptive tasks preempt by strictly earlier
    // deadline; nothing preempts a reservation (overlapping reservations
    // are a design-time error and simply surface as infeasibility).
    auto preempts = [&](std::size_t u, std::size_t pick) noexcept {
        if (soa.reserved[pick] != 0) return false;
        if (soa.reserved[u] != 0) return true;
        return edf_before(u, pick);
    };

    // Bring the items into the mutable arrays; run the pinned task (the one
    // currently executing on a non-preemptable resource) first.
    for (const ScheduleItem& item : items) {
        RMWP_EXPECT(item.duration >= 0.0);
        RMWP_EXPECT(item.release >= now - kEps);
        if (item.pinned_first) {
            RMWP_EXPECT(!resource.preemptable());
            const Time end = cur + item.duration;
            emit(item.uid, cur, end);
            finish(item.uid, item.abs_deadline, end);
            cur = end;
            continue;
        }
        soa.push(item);
    }

    // Zero-duration items complete at their release, but no earlier than
    // the pinned head's end — wherever the head sits in the input, so the
    // verdict stays input-order independent.
    const std::size_t count = soa.size();
    std::size_t open = 0;
    for (std::size_t j = 0; j < count; ++j) {
        if (soa.done[j] == 0) ++open;
        else finish(soa.uid[j], soa.deadline[j], std::max(cur, soa.release[j]));
    }

    while (open > 0) {
        // Highest-priority ready item (reservations first, then EDF).
        std::size_t pick = kNone;
        for (std::size_t j = 0; j < count; ++j) {
            if (soa.done[j] != 0 || soa.release[j] > cur + kEps) continue;
            if (pick == kNone || edf_before(j, pick)) pick = j;
        }

        // Non-preemptable resources dispatch at boundaries only, so an
        // adaptive task may start only if it completes before the next
        // reservation begins — otherwise it would overrun a window that is
        // guaranteed at design time.  Fall back to the longest-fitting EDF
        // choice, or idle until the reservation.
        Time next_reservation = std::numeric_limits<Time>::infinity();
        for (std::size_t j = 0; j < count; ++j)
            if (soa.done[j] == 0 && soa.reserved[j] != 0 && soa.release[j] > cur + kEps)
                next_reservation = std::min(next_reservation, soa.release[j]);
        if (!resource.preemptable() && pick != kNone && soa.reserved[pick] == 0 &&
            cur + soa.remaining[pick] > next_reservation + kEps) {
            pick = kNone;
            for (std::size_t j = 0; j < count; ++j) {
                if (soa.done[j] != 0 || soa.release[j] > cur + kEps || soa.reserved[j] != 0)
                    continue;
                if (cur + soa.remaining[j] > next_reservation + kEps) continue;
                if (pick == kNone || edf_before(j, pick)) pick = j;
            }
        }

        if (pick == kNone) {
            // Nothing dispatchable: idle to the next release (a future
            // arrival or the next reserved window).
            Time next = next_reservation;
            for (std::size_t j = 0; j < count; ++j)
                if (soa.done[j] == 0 && soa.release[j] > cur + kEps)
                    next = std::min(next, soa.release[j]);
            RMWP_ENSURE(std::isfinite(next));
            cur = std::max(cur, next);
            continue;
        }

        Time end = cur + soa.remaining[pick];
        if (resource.preemptable()) {
            // A future release preempts the running task if it outranks it
            // (a reservation always; an adaptive task by earlier deadline).
            Time preempt_at = std::numeric_limits<Time>::infinity();
            for (std::size_t j = 0; j < count; ++j) {
                if (soa.done[j] != 0 || j == pick) continue;
                if (soa.release[j] > cur + kEps && soa.release[j] < end - kEps &&
                    preempts(j, pick)) {
                    preempt_at = std::min(preempt_at, soa.release[j]);
                }
            }
            if (preempt_at < end) {
                emit(soa.uid[pick], cur, preempt_at);
                soa.remaining[pick] -= preempt_at - cur;
                cur = preempt_at;
                continue;
            }
        }
        emit(soa.uid[pick], cur, end);
        soa.remaining[pick] = 0.0;
        soa.done[pick] = 1;
        --open;
        finish(soa.uid[pick], soa.deadline[pick], end);
        cur = end;
    }

    return feasible;
}

/// The demand-bound scan shared by the sorted and unsorted prefilters.
/// `range` yields the items in demand order; `proj` dereferences an entry.
/// `exact` arrives true iff the exact fast path applies (see the header
/// contract) and is further degraded inside the borderline band.
template <typename Range, typename Proj>
EdfPrefilter demand_scan(Time now, const Range& range, Proj&& proj, bool exact) {
    double work = 0.0;
    for (const auto& entry : range) {
        const ScheduleItem& item = proj(entry);
        work += item.duration;
        const double slack = item.abs_deadline - now;
        // Everything with deadline <= this one must execute inside
        // [now, deadline]; no schedule can create capacity.
        if (work > slack + kEps + kSafety) return EdfPrefilter::infeasible;
        if (work > slack + kEps - kSafety) exact = false;
    }
    return exact ? EdfPrefilter::feasible : EdfPrefilter::unknown;
}

/// Exact replay of run-to-completion EDF for a non-preemptable resource
/// with nothing reserved and at most one pinned head (`head`, null when
/// none).  `range` yields the items in demand order, which is the
/// simulation's dispatch priority once reservations are absent.  A cursor
/// walks that order; items not yet released when the cursor passes them
/// wait in a small pending list (in practice the predicted task), and each
/// dispatch takes the first released pending item, else the cursor item,
/// else idles to the smallest pending release.  Every time value is
/// computed with the same floating-point operations, in the same order, as
/// simulate_edf, so the verdict is the simulation's — for O(L * (F + 1))
/// work with F pending items, and a single pass when everything is
/// released.
template <typename Range, typename Proj>
EdfPrefilter run_to_completion_replay(Time now, const ScheduleItem* head, const Range& range,
                                      Proj&& proj) {
    Time cur = now;
    if (head != nullptr) {
        cur = cur + head->duration;
        if (cur > head->abs_deadline + kEps) return EdfPrefilter::infeasible;
    }
    // Zero-duration items never dispatch: they complete at their release,
    // but no earlier than the head's end.
    const Time head_end = cur;

    thread_local std::vector<const ScheduleItem*> pending_buffer;
    std::vector<const ScheduleItem*>& pending = pending_buffer;
    pending.clear();
    // Dispatch the released pending items, earliest in demand order first,
    // re-scanning after each dispatch moves the clock; false on a miss.
    auto run_released_pending = [&] {
        for (std::size_t j = 0; j < pending.size();) {
            const ScheduleItem& next = *pending[j];
            if (next.release > cur + kEps) {
                ++j;
                continue;
            }
            cur = cur + next.duration;
            if (cur > next.abs_deadline + kEps) return false;
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(j));
            j = 0; // the clock moved: an earlier pending item may be released now
        }
        return true;
    };

    for (const auto& entry : range) {
        const ScheduleItem& item = proj(entry);
        if (item.pinned_first) continue;
        if (item.duration <= 0.0) {
            if (std::max(head_end, item.release) > item.abs_deadline + kEps)
                return EdfPrefilter::infeasible;
            continue;
        }
        // Pending items precede `item` in demand order, so any released one
        // dispatches first.
        if (!pending.empty() && !run_released_pending()) return EdfPrefilter::infeasible;
        if (item.release > cur + kEps) {
            pending.push_back(&item);
            continue;
        }
        cur = cur + item.duration;
        if (cur > item.abs_deadline + kEps) return EdfPrefilter::infeasible;
    }
    while (!pending.empty()) {
        if (!run_released_pending()) return EdfPrefilter::infeasible;
        if (pending.empty()) break;
        // Nothing released: idle to the next release.
        Time next = std::numeric_limits<Time>::infinity();
        for (const ScheduleItem* item : pending) next = std::min(next, item->release);
        cur = std::max(cur, next);
    }
    return EdfPrefilter::feasible;
}

/// The shared prefilter body behind the sorted and unsorted entry points.
/// `range` yields the items in demand order; `proj` dereferences an entry.
///
/// On a preemptable resource with nothing reserved and nothing pinned,
/// dispatch is plain preemptive EDF, where the processor-demand criterion
/// is exact even with not-yet-released items: the set is schedulable iff
/// for every release point t1 (here: `now` plus each distinct future
/// release) and every deadline t2, the work of items confined to [t1, t2]
/// fits in t2 - t1.  The `now`-anchored scan is demand_scan above; the
/// future-release scans run below, so plans carrying a predicted task (the
/// common admission probe) resolve analytically instead of falling back to
/// the EDF simulation.  Soundness against the simulation's kEps dispatch
/// slop: an item may start up to kEps before its release and finish up to
/// kEps past its deadline, so a future-release window really offers
/// slack + 2*kEps — only demand beyond that (plus kSafety) is declared
/// infeasible; the feasible verdict claims no eps credit at all.
/// Reservations and pinned items outrank EDF, so those still degrade to
/// the simulation (`unknown`).
///
/// On a non-preemptable resource (the GPU — the majority of admission
/// probes) with no reservation and at most one pinned head, the
/// run-to-completion replay above is the simulation's verdict, future
/// releases (the predicted task) included.  A reservation, or two-plus
/// pinned heads (which run in input order, not demand order), keeps the
/// necessary-condition demand scan and lets the simulation decide.
template <typename Range, typename Proj>
EdfPrefilter prefilter_verdict(const Resource& resource, Time now, const Range& range,
                               Proj&& proj) {
    bool reserved = false;
    std::size_t pinned = 0;
    const ScheduleItem* head = nullptr;
    thread_local std::vector<Time> releases_buffer;
    std::vector<Time>& future = releases_buffer;
    future.clear();
    for (const auto& entry : range) {
        const ScheduleItem& item = proj(entry);
        if (item.reserved) reserved = true;
        if (item.pinned_first) {
            ++pinned;
            head = &item;
        } else if (item.release > now) {
            future.push_back(item.release);
        }
    }

    if (!resource.preemptable()) {
        if (!reserved && pinned <= 1) return run_to_completion_replay(now, head, range, proj);
        return demand_scan(now, range, proj, /*exact=*/false);
    }

    const bool plain = !reserved && pinned == 0;
    const EdfPrefilter anchored = demand_scan(now, range, proj, plain);
    if (anchored == EdfPrefilter::infeasible) return anchored;
    if (!plain) return EdfPrefilter::unknown;
    if (future.empty() || anchored == EdfPrefilter::unknown) return anchored;

    std::sort(future.begin(), future.end());
    future.erase(std::unique(future.begin(), future.end()), future.end());
    for (const Time release : future) {
        double work = 0.0;
        for (const auto& entry : range) {
            const ScheduleItem& item = proj(entry);
            if (item.release < release) continue;
            work += item.duration;
            const double slack = item.abs_deadline - release;
            if (work > slack + 2.0 * kEps + kSafety) return EdfPrefilter::infeasible;
            if (work > slack - kSafety) return EdfPrefilter::unknown;
        }
    }
    return EdfPrefilter::feasible;
}

/// Attribute a prefilter verdict to the installed stage profile (obs hook;
/// identity on the verdict either way).
EdfPrefilter note_verdict(EdfPrefilter verdict) noexcept {
    switch (verdict) {
    case EdfPrefilter::infeasible: RMWP_STAGE_VERDICT(prefilter_infeasible); break;
    case EdfPrefilter::feasible: RMWP_STAGE_VERDICT(prefilter_feasible); break;
    case EdfPrefilter::unknown: RMWP_STAGE_VERDICT(prefilter_unknown); break;
    }
    return verdict;
}

} // namespace

std::size_t insert_demand_ordered(std::vector<ScheduleItem>& items, const ScheduleItem& item) {
    RMWP_EXPECT(item.duration >= 0.0);
    const auto pos = std::upper_bound(items.begin(), items.end(), item, demand_order);
    const auto index = static_cast<std::size_t>(pos - items.begin());
    items.insert(pos, item);
    RMWP_ENSURE(index < items.size());
    RMWP_ENSURE(items[index].uid == item.uid);
    return index;
}

EdfPrefilter edf_demand_prefilter(const Resource& resource, Time now,
                                  std::span<const ScheduleItem> items) {
    RMWP_STAGE_SCOPE(obs::Stage::prefilter);
    if (items.empty()) return note_verdict(EdfPrefilter::feasible);

    thread_local std::vector<const ScheduleItem*> order_buffer;
    std::vector<const ScheduleItem*>& order = order_buffer;
    order.clear();
    order.reserve(items.size());
    for (const ScheduleItem& item : items) order.push_back(&item);
    std::sort(order.begin(), order.end(), [](const ScheduleItem* a, const ScheduleItem* b) {
        return demand_order(*a, *b);
    });

    return note_verdict(prefilter_verdict(resource, now, order,
                                          [](const ScheduleItem* item) -> const ScheduleItem& {
                                              return *item;
                                          }));
}

EdfPrefilter edf_demand_prefilter_sorted(const Resource& resource, Time now,
                                         std::span<const ScheduleItem> items) {
    RMWP_STAGE_SCOPE(obs::Stage::prefilter);
    if (items.empty()) return note_verdict(EdfPrefilter::feasible);
#ifdef RMWP_AUDIT
    // The incremental-state drift gate: callers promise demand order.
    RMWP_EXPECT(std::is_sorted(items.begin(), items.end(), demand_order));
#endif
    return note_verdict(prefilter_verdict(resource, now, items,
                                          [](const ScheduleItem& item) -> const ScheduleItem& {
                                              return item;
                                          }));
}

bool resource_feasible(const Resource& resource, Time now, std::span<const ScheduleItem> items) {
    switch (edf_demand_prefilter(resource, now, items)) {
    case EdfPrefilter::infeasible: return false;
    case EdfPrefilter::feasible: return true;
    case EdfPrefilter::unknown: break;
    }
    return simulate_edf(resource, now, items, nullptr, nullptr);
}

bool resource_feasible_sorted(const Resource& resource, Time now,
                              std::span<const ScheduleItem> items) {
    switch (edf_demand_prefilter_sorted(resource, now, items)) {
    case EdfPrefilter::infeasible: return false;
    case EdfPrefilter::feasible: return true;
    case EdfPrefilter::unknown: break;
    }
    return simulate_edf(resource, now, items, nullptr, nullptr);
}

void build_window_schedule_into(const Platform& platform, Time now,
                                std::span<const ScheduleItem> items, WindowSchedule& out) {
    out.start = now;
    out.feasible = true;
    out.per_resource.resize(platform.size());
    out.completion.clear();

    // Operating points of one DVFS core share the core's timeline: group by
    // the physical anchor, so two tasks on different frequency levels of
    // the same core serialise like any other same-resource pair.  The
    // grouping buffers are thread-local: the simulator rebuilds the window
    // after every activation, and per-rebuild vector-of-vectors churn was a
    // visible slice of the serve-loop profile.
    thread_local std::vector<std::vector<ScheduleItem>> grouped_buffer;
    std::vector<std::vector<ScheduleItem>>& grouped = grouped_buffer;
    if (grouped.size() < platform.size()) grouped.resize(platform.size());
    for (ResourceId i = 0; i < platform.size(); ++i) grouped[i].clear();
    for (const ScheduleItem& item : items) {
        RMWP_EXPECT(item.resource < platform.size());
        grouped[platform.resource(item.resource).physical()].push_back(item);
    }
    for (ResourceId i = 0; i < platform.size(); ++i) {
        ResourceTimeline& timeline = out.per_resource[i];
        timeline.segments.clear();
        if (platform.resource(i).physical() != i) {
            RMWP_EXPECT(grouped[i].empty());
            continue;
        }
        const bool feasible =
            simulate_edf(platform.resource(i), now, grouped[i], &timeline, &out.completion);
        out.feasible = out.feasible && feasible;
    }
    // Every item finishes exactly once; with distinct uids (a precondition
    // on `items`) the uid-sorted list answers completion_of unambiguously.
    RMWP_ENSURE(out.completion.size() == items.size());
    std::sort(out.completion.begin(), out.completion.end());
    RMWP_EXPECT(std::adjacent_find(out.completion.begin(), out.completion.end(),
                                   [](const auto& a, const auto& b) {
                                       return a.first == b.first;
                                   }) == out.completion.end());
}

WindowSchedule build_window_schedule(const Platform& platform, Time now,
                                     std::span<const ScheduleItem> items) {
    WindowSchedule schedule;
    build_window_schedule_into(platform, now, items, schedule);
    return schedule;
}

} // namespace rmwp
