#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/stage_timer.hpp"
#include "obs/trace_sink.hpp"
#include "util/check.hpp"
#include "util/hexfloat.hpp"
#include "util/rng.hpp"

namespace rmwp {
namespace {

constexpr double kFractionEps = 1e-9;

constexpr std::uint32_t kCompletionEvent = 0;
constexpr std::uint32_t kFaultOnsetEvent = 1;
constexpr std::uint32_t kFaultRecoveryEvent = 2;

constexpr const char* kCheckpointContext = "engine checkpoint";

} // namespace

// The engine's one recording path: RMWP_RECORD emits an event and updates
// the metric it maps to (SimEngine::record).  Compiled out entirely,
// arguments unevaluated, when observability is disabled.
#ifdef RMWP_OBS
namespace {

/// The counted event kinds and their counter names, in registration
/// order.  `reject` registers one counter per RejectReason ("reject.<r>");
/// `exec` feeds the busy_time.<resource> gauges instead.
constexpr std::pair<obs::EventKind, const char*> kEventCounters[] = {
    {obs::EventKind::admit, "admit"},
    {obs::EventKind::reject, "reject."},
    {obs::EventKind::preempt, "preempt"},
    {obs::EventKind::migrate, "migrate"},
    {obs::EventKind::complete, "complete"},
    {obs::EventKind::abort_overhead, "abort_overhead"},
    {obs::EventKind::plan_rebuild, "plan_rebuild"},
    {obs::EventKind::rescue_begin, "rescue.activation"},
    {obs::EventKind::rescue_keep, "rescue.keep"},
    {obs::EventKind::rescue_abort, "rescue.abort"},
    {obs::EventKind::fault_onset, "fault.onset"},
    {obs::EventKind::fault_recovery, "fault.recovery"},
};

/// The resource the decision maps `uid` to (kNoResource if none).
std::int64_t mapped_resource(const Decision& decision, TaskUid uid) {
    std::int64_t mapped = obs::kNoResource;
    for (const TaskAssignment& assignment : decision.assignments)
        if (assignment.uid == uid) mapped = static_cast<std::int64_t>(assignment.resource);
    return mapped;
}

} // namespace

#define RMWP_RECORD(...)                                   \
    do {                                                   \
        if (options_.sink != nullptr) record(__VA_ARGS__); \
    } while (false)

void SimEngine::record(Time t, obs::EventKind kind, std::uint64_t task, std::int64_t resource,
                       double detail, std::uint32_t aux) {
    options_.sink->emit(t, kind, task, resource, detail, aux);
    if (kind == obs::EventKind::reject) ins_.reject[aux]->add();
    else if (kind == obs::EventKind::exec)
        ins_.busy_time[static_cast<std::size_t>(resource)]->add(detail);
    else if (obs::Counter* counter = ins_.count[static_cast<std::size_t>(kind)]) counter->add();
}
#else
#define RMWP_RECORD(...) \
    do {                 \
    } while (false)
#endif

SimEngine::SimEngine(const Platform& platform, const Catalog& catalog, ResourceManager& rm,
                     Predictor& predictor, const ReservationTable* reservations,
                     const SimOptions& options)
    : platform_(platform),
      catalog_(catalog),
      rm_(rm),
      predictor_(predictor),
      reservations_(reservations),
      options_(options) {
    set_fault_schedule(options.fault_schedule, -std::numeric_limits<Time>::infinity(),
                       /*include_events_at_from=*/true);
#ifdef RMWP_OBS
    if (options_.sink == nullptr) return;
    obs::MetricsRegistry& m = options_.sink->metrics();
    for (const auto& [kind, name] : kEventCounters) {
        if (kind != obs::EventKind::reject) {
            ins_.count[static_cast<std::size_t>(kind)] = &m.counter(name);
            continue;
        }
        for (std::size_t r = 0; r < kRejectReasonCount; ++r)
            ins_.reject[r] =
                &m.counter(name + std::string(to_string(static_cast<RejectReason>(r))));
    }
    // Sink self-accounting: how much of the event stream survived the
    // ring.  Filled in once at the end of the run — the values are
    // functions of the (deterministic) event count and the configured
    // capacity, so they stay in the deterministic scope.
    ins_.sink_events_total = &m.counter("sink.events_total");
    ins_.sink_dropped = &m.counter("sink.dropped");
    ins_.sink_ring_occupancy = &m.gauge("sink.ring_occupancy");
    ins_.busy_time.resize(platform_.size());
    for (ResourceId i = 0; i < platform_.size(); ++i)
        ins_.busy_time[i] = &m.gauge("busy_time." + std::to_string(i));
    // An HDR's cells, sum and extrema are exact functions of the samples,
    // so deterministic_equal compares plan_size exactly (sizes below 64
    // even get unit-width buckets).
    ins_.plan_size = &m.hdr("plan_size");
    ins_.admission_latency_ns = &m.hdr("admission_latency_ns", obs::MetricScope::host);
#endif
}

Time SimEngine::stream_arrival_batch(std::span<const StreamArrival> arrivals, Time wake) {
    RMWP_EXPECT(!arrivals.empty());
    for (const StreamArrival& arrival : arrivals) {
        RMWP_EXPECT(arrival.uid < kReservedUidBase);
        RMWP_EXPECT(wake >= arrival.request.arrival);
    }

    batch_entries_.clear();
    for (const StreamArrival& arrival : arrivals) {
        // Events before the member's arrival happen first, so its arrival
        // event takes its place in time order even when the wake is later.
        drain_until(arrival.request.arrival);
        RMWP_RECORD(arrival.request.arrival, obs::EventKind::arrival, arrival.uid,
                    obs::kNoResource, arrival.request.absolute_deadline());
        ++result_.requests;
        result_.reference_energy += catalog_.type(arrival.request.type).mean_energy();
        BatchEntry entry;
        entry.request = arrival.request;
        entry.uid = arrival.uid;
        batch_entries_.push_back(std::move(entry));
    }
    drain_until(wake);

    const Time decision_time = wake_up(wake);
    ++result_.activations; // one activation for the whole group
    decide_batch_on(decision_time);
    rebuild(decision_time);
    return decision_time;
}

void SimEngine::stream_shed(const Request& request, [[maybe_unused]] TaskUid uid) {
    ++result_.requests;
    result_.reference_energy += catalog_.type(request.type).mean_energy();
    ++result_.rejected;
    RMWP_RECORD(request.arrival, obs::EventKind::reject, uid, obs::kNoResource, 0.0,
                static_cast<std::uint32_t>(RejectReason::overload));
}

void SimEngine::drain_until(Time t) {
    while (!events_.empty() && events_.next_time() < t) dispatch(events_.pop());
}

void SimEngine::drain_through(Time t) {
    while (!events_.empty() && events_.next_time() <= t) dispatch(events_.pop());
}

void SimEngine::set_fault_schedule(const FaultSchedule* schedule, Time from,
                                   bool include_events_at_from) {
    options_.fault_schedule = schedule;
    if (schedule == nullptr) return;
    const auto after = [&](Time t) { return include_events_at_from ? t >= from : t > from; };
    const auto& faults = schedule->events();
    for (std::size_t f = 0; f < faults.size(); ++f) {
        if (after(faults[f].start)) events_.schedule(faults[f].start, kFaultOnsetEvent, f);
        if (std::isfinite(faults[f].end) && after(faults[f].end))
            events_.schedule(faults[f].end, kFaultRecoveryEvent, f);
    }
}

TraceResult SimEngine::finish_stream() {
    while (!events_.empty()) dispatch(events_.pop());
    advance(std::numeric_limits<Time>::infinity());
    RMWP_ENSURE(active_.empty());
#ifdef RMWP_OBS
    if (options_.sink != nullptr) {
        ins_.sink_events_total->add(options_.sink->total_emitted());
        ins_.sink_dropped->add(options_.sink->dropped());
        ins_.sink_ring_occupancy->add(static_cast<double>(options_.sink->occupancy()));
        result_.obs_metrics = options_.sink->metrics().snapshot();
    }
#endif
    return result_;
}

void SimEngine::dispatch(const Event& event) {
    if (event.kind == kFaultOnsetEvent || event.kind == kFaultRecoveryEvent) {
        handle_fault(event.time, event.kind == kFaultOnsetEvent,
                     static_cast<std::size_t>(event.payload));
    } else {
        advance(event.time);
        // Every rebuild re-arms the completions of the current plan, so the
        // task must really be gone by now.
        RMWP_ENSURE(find_task(event.payload) == nullptr);
#ifdef RMWP_AUDIT
        // Completion audit: the executed window must still satisfy
        // every structural invariant it satisfied when planned.
        // (Window-only: task states have advanced past the items.)
        if (options_.audit)
            run_audit(auditor_.audit_window(platform_, schedule_.start, plan_items_, schedule_,
                                            &health_));
#endif
        // With execution-time variation the completion was (likely)
        // earlier than the WCET plan assumed: re-plan immediately so
        // queued tasks reclaim the slack.  The same holds whenever this
        // advance retired a task before its planned slice closed: the
        // slice's tail is stale plan, and the next advance must not walk
        // it.
        if (options_.execution_time_factor_min < 1.0 || plan_stale_) rebuild(event.time);
    }
}

ActiveTask* SimEngine::find_task(TaskUid uid) {
    for (ActiveTask& task : active_)
        if (task.uid == uid) return &task;
    return nullptr;
}

double SimEngine::actual_work(TaskUid uid) const {
    const auto it = actual_work_.find(uid);
    return it == actual_work_.end() ? 1.0 : it->second;
}

void SimEngine::charge_energy(double energy) {
    result_.total_energy += energy;
    if (!health_.all_nominal()) result_.degraded_energy += energy;
}

void SimEngine::advance(Time to) {
    const Time from = clock_;
    to = std::max(to, from);
    for (ResourceId i = 0; i < platform_.size(); ++i) {
        if (schedule_.per_resource.size() <= i) break;
        const bool non_preemptable = !platform_.resource(i).preemptable();
        for (const Segment& segment : schedule_.per_resource[i].segments) {
            if (segment.start >= to) break;
            // Only the part of the segment inside (from, to] is new work;
            // earlier advances already consumed the prefix.
            const Time begin = std::max(segment.start, from);
            const Time executed_until = std::min(segment.end, to);
            const double duration = executed_until - begin;
            if (duration <= 0.0) continue;

            if (is_reserved_uid(segment.uid)) {
                // Critical reservation: accrue its energy pro rata.
                const CriticalTask& critical = reservations_->task_of(segment.uid);
                result_.critical_energy +=
                    duration / critical.duration * critical.energy_per_instance;
                continue;
            }
            ActiveTask* task = find_task(segment.uid);
            RMWP_ENSURE(task != nullptr);
            task->started = true;
            if (non_preemptable) task->pinned = true;

            // One exec slice per executed span; repeated advances over
            // one segment yield adjacent slices, never overlaps, so the
            // per-resource busy time is the plain sum of slice durations.
            RMWP_RECORD(begin, obs::EventKind::exec, segment.uid, static_cast<std::int64_t>(i),
                        duration);

            const double overhead = std::min(task->pending_overhead, duration);
            task->pending_overhead -= overhead;
            const double progress_time = duration - overhead;
            // Progress and energy rates come from the task's mapped
            // resource entry (its operating point on DVFS platforms);
            // `i` is the physical timeline the segment lives on.
            const TaskType& type = catalog_.type(task->type);
            // A throttled resource stretches the effective WCET by its
            // factor (the energy per unit of work is unchanged).
            const double wcet = type.wcet(task->resource) * health_.throttle(task->resource);
            double fraction = std::min(progress_time / wcet, task->remaining_fraction);

            // Early completion: the task's real work can be less than
            // its WCET budget; it finishes the moment the actual work is
            // done, mid-segment.
            //
            // Tolerance: planner segment endpoints are sums carried at the
            // clock's magnitude, so the fraction a segment yields can fall
            // short of the planned amount by ~ulp(clock)/wcet — which
            // outgrows any fixed fraction epsilon on long horizons (at
            // clock ~3.5e7 one ulp is already ~7.5e-9).  Accept completion
            // whenever the residual work, expressed in time, is below the
            // same kTimeEps used for deadline comparisons.
            const double done_before = 1.0 - task->remaining_fraction;
            const double actual = actual_work(task->uid);
            const double fraction_eps = std::max(kFractionEps, kTimeEps / wcet);
            Time completed_at = -1.0;
            if (done_before + fraction >= actual - fraction_eps) {
                fraction = std::max(0.0, actual - done_before);
                completed_at = begin + overhead + fraction * wcet;
            }

            charge_energy(fraction * type.energy(task->resource));
            task->remaining_fraction -= fraction;

            if (completed_at >= 0.0) {
                task->remaining_fraction = 0.0;
                ++result_.completed;
                // Retired before its planned work ends (an early completion,
                // or the tolerance above firing mid-slice): the rest of its
                // slice stays on the timeline until the next rebuild.
                if (schedule_.completion_of(task->uid).value_or(executed_until) >
                    executed_until)
                    plan_stale_ = true;
                RMWP_RECORD(completed_at, obs::EventKind::complete, segment.uid,
                            static_cast<std::int64_t>(i));
                RMWP_ENSURE(completed_at <= task->absolute_deadline + kTimeEps);
            } else if (executed_until >= segment.end &&
                       task->remaining_fraction > kFractionEps) {
                // The planned slice closed with work left: the task is
                // preempted here and resumes in a later slice.
                RMWP_RECORD(segment.end, obs::EventKind::preempt, segment.uid,
                            static_cast<std::int64_t>(i));
            }
        }
    }
    std::erase_if(active_, [this](const ActiveTask& task) {
        if (!task.finished()) return false;
        // Drop the hidden-work entry with its task so the map stays
        // O(active set) over unbounded streams.
        actual_work_.erase(task.uid);
        return true;
    });
    clock_ = std::max(clock_, std::min(to, schedule_horizon()));
}

Time SimEngine::schedule_horizon() const {
    Time latest = clock_;
    for (const ResourceTimeline& timeline : schedule_.per_resource)
        if (!timeline.segments.empty())
            latest = std::max(latest, timeline.segments.back().end);
    return latest;
}

Time SimEngine::wake_up(Time wake) {
    const Time overhead = predictor_.overhead();
    Time decision_time = std::max(wake + overhead, clock_);
    if (overhead > 0.0 && options_.overhead_stalls_platform) {
        // The manager runs on the platform: execution halts during the
        // decision window.  Progress stops at the wake-up; the clock
        // jumps to the decision time with the skipped segments left
        // unexecuted (rebuild() re-plans the remaining work from there).
        advance(wake);
        decision_time = std::max(wake, clock_) + overhead;
        clock_ = decision_time;
        abort_doomed(decision_time);
    } else {
        advance(decision_time);
    }
    return decision_time;
}

void SimEngine::reject_doomed([[maybe_unused]] TaskUid uid, [[maybe_unused]] Time decision_time) {
    ++result_.rejected;
    RMWP_RECORD(decision_time, obs::EventKind::reject, uid, obs::kNoResource, 0.0,
                static_cast<std::uint32_t>(RejectReason::deadline_passed));
}

/// Everything downstream of the RM verdict — the audit, the observability
/// record, the admit/reject accounting, and the state mutation — for one
/// decided entry.
void SimEngine::commit_decision(const ArrivalContext& context, const Decision& decision,
                                Time decision_time) {
    const ActiveTask& candidate = context.candidate;

#ifdef RMWP_OBS
    if (options_.sink != nullptr) {
        // sim scope: the size of the instance the RM planned over.
        ins_.plan_size->record(context.active.size() + 1);
    }
#endif

#ifdef RMWP_AUDIT
    if (options_.audit) {
        AuditReport report = auditor_.audit_decision(context, decision);
        if (options_.audit_differential) {
            auto differential = auditor_.differential_admission(context, decision);
            if (differential.checked) {
                ++result_.audit_differential_checks;
                if (differential.exact_admits && !decision.admitted)
                    ++result_.audit_differential_gaps;
                report.merge(std::move(differential.report));
            }
        }
        run_audit(std::move(report));
    }
#endif

    if (decision.admitted) {
        ++result_.accepted;
        if (decision.used_prediction) ++result_.plans_with_prediction;
        RMWP_RECORD(decision_time, obs::EventKind::admit, candidate.uid,
                    mapped_resource(decision, candidate.uid), 0.0,
                    decision.used_prediction ? 1u : 0u);
        apply(decision, candidate, decision_time);
    } else {
        ++result_.rejected;
        RMWP_RECORD(decision_time, obs::EventKind::reject, candidate.uid, obs::kNoResource, 0.0,
                    static_cast<std::uint32_t>(decision.reason));
    }
}

/// Decide every entry of batch_entries_ with one rm_.decide_batch call —
/// the engine's only decision path: a single arrival is a one-entry batch.
/// The per-entry protocol is the sequential one, re-ordered but not
/// re-defined: predictor observations and lookaheads interleave per entry
/// exactly as sequential same-instant activations would issue them, doomed
/// requests (deadline already passed) never reach the RM, and each
/// decision is committed against the active set as left by the previous
/// entry's commit — so with a zero-overhead predictor the resulting state
/// is bit-identical to deciding the entries one at a time.
void SimEngine::decide_batch_on(Time decision_time) {
    batch_items_.clear();
    for (BatchEntry& entry : batch_entries_) {
        predictor_.observe_arrival(entry.request);

        entry.candidate = ActiveTask{};
        entry.candidate.uid = entry.uid;
        entry.candidate.type = entry.request.type;
        entry.candidate.arrival = entry.request.arrival;
        entry.candidate.absolute_deadline = entry.request.absolute_deadline();

        // A request whose deadline already passed while waiting for the
        // activation boundary cannot be served.
        if (entry.candidate.absolute_deadline <= decision_time + kTimeEps) {
            entry.item = kNotAdmissible;
            continue;
        }
        BatchItem item;
        item.candidate = entry.candidate;
        item.predicted = predictor_.predict_upcoming(decision_time, options_.lookahead);
        entry.item = batch_items_.size();
        batch_items_.push_back(std::move(item));
    }

    // The RM runs — and its latency is recorded — only when some entry is
    // admissible: an all-doomed group takes no decision and no sample.
    if (!batch_items_.empty()) {
        BatchArrivalContext batch;
        batch.now = decision_time;
        batch.platform = &platform_;
        batch.catalog = &catalog_;
        batch.active = active_;
        batch.items = batch_items_;
        batch.reservations = reservations_;
        batch.health = &health_;

        // The timestamps bracket the *whole* decide_batch call: under
        // sharded admission (DESIGN.md §15) that includes every bucket's
        // solve and the cross-shard merge, so the recorded decision latency
        // is the end-to-end figure — never a single bucket's solve time.
        // RMWP_LINT_ALLOW(R1): measures RM overhead on the host (paper Fig 5); host-time
        const auto started = std::chrono::steady_clock::now();
        rm_.decide_batch(batch, batch_decisions_);
        // RMWP_LINT_ALLOW(R1): measures RM overhead on the host (paper Fig 5); host-time
        const auto finished = std::chrono::steady_clock::now();
        result_.decision_seconds += std::chrono::duration<double>(finished - started).count();
        RMWP_ENSURE(batch_decisions_.size() == batch_items_.size());

#ifdef RMWP_OBS
        const auto decide_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(finished - started).count());
        obs::stage_add_timed_ns(obs::Stage::decide, decide_ns);
        if (options_.sink != nullptr) {
            // host scope: one record per decide_batch call — on a coalesced
            // group the amortised cost is the quantity of interest.
            ins_.admission_latency_ns->record(decide_ns);
        }
#endif
    }

    for (const BatchEntry& entry : batch_entries_) {
        if (entry.item == kNotAdmissible) {
            reject_doomed(entry.uid, decision_time);
            continue;
        }
        // The context is rebuilt per entry against the *evolving* active
        // set — it is what the audit (and the obs plan-size metric) would
        // have seen on the sequential path.
        ArrivalContext context;
        context.now = decision_time;
        context.platform = &platform_;
        context.catalog = &catalog_;
        context.active = active_;
        context.candidate = entry.candidate;
        // The RM is done with the item: hand its predictions over.
        context.predicted = std::move(batch_items_[entry.item].predicted);
        context.reservations = reservations_;
        context.health = &health_;
        commit_decision(context, batch_decisions_[entry.item], decision_time);
    }
}

void SimEngine::handle_fault(Time event_time, bool onset, std::size_t fault_index) {
    advance(event_time);
    // A decision stall can have pushed the clock past the event; health
    // and the re-plan are then evaluated at the later instant.
    const Time now = std::max(event_time, clock_);
    const FaultEvent& fault = options_.fault_schedule->events()[fault_index];
    health_ = options_.fault_schedule->health_at(platform_, now);

    if (onset) {
        if (fault.takes_offline()) ++result_.resource_outages;
        else ++result_.throttle_events;
        RMWP_RECORD(now, obs::EventKind::fault_onset, obs::kNoTask,
                    static_cast<std::int64_t>(fault.resource), fault.factor,
                    static_cast<std::uint32_t>(fault.kind));
        rescue_activation(now);
    } else {
        RMWP_RECORD(now, obs::EventKind::fault_recovery, obs::kNoTask,
                    static_cast<std::int64_t>(fault.resource), 1.0,
                    static_cast<std::uint32_t>(fault.kind));
        // Capacity restored (or a throttle relaxed): the current set is
        // still feasible, so only the schedule needs refreshing.
        rebuild(now);
    }
}

void SimEngine::rescue_activation(Time now) {
    ++result_.rescue_activations;
    RMWP_RECORD(now, obs::EventKind::rescue_begin, obs::kNoTask, obs::kNoResource,
                static_cast<double>(active_.size()));

    // Interrupt displaced tasks (their resource went offline).  On a
    // preemptable resource the saved context survives the fault and the
    // task resumes elsewhere after a real migration; non-preemptable
    // resources (GPU-like) lose the in-flight execution state, so the
    // task restarts from scratch — no longer started, pinned, or owing
    // migration time.
    std::vector<TaskUid> displaced;
    for (ActiveTask& task : active_) {
        if (health_.online(task.resource)) continue;
        displaced.push_back(task.uid);
        if (!platform_.resource(task.resource).preemptable()) {
            task.remaining_fraction = 1.0;
            task.started = false;
            task.pinned = false;
            task.pending_overhead = 0.0;
        }
    }

    RescueContext context;
    context.now = now;
    context.platform = &platform_;
    context.catalog = &catalog_;
    context.active = active_;
    context.health = &health_;
    context.reservations = reservations_;

    // RMWP_LINT_ALLOW(R1): measures rescue overhead on the host; host-time field only
    const auto started = std::chrono::steady_clock::now();
    const RescueDecision decision = rm_.rescue(context);
    // RMWP_LINT_ALLOW(R1): measures rescue overhead on the host; host-time field only
    const auto finished = std::chrono::steady_clock::now();
    result_.rescue_decision_seconds +=
        std::chrono::duration<double>(finished - started).count();

#ifdef RMWP_AUDIT
    if (options_.audit) run_audit(auditor_.audit_rescue(context, decision));
#endif

    RMWP_ENSURE(decision.kept.size() + decision.aborted.size() == active_.size());

    for (const TaskUid uid : decision.aborted) {
        const std::size_t before = active_.size();
        std::erase_if(active_, [uid](const ActiveTask& task) { return task.uid == uid; });
        RMWP_ENSURE(active_.size() + 1 == before);
        actual_work_.erase(uid);
        ++result_.fault_aborted;
        RMWP_RECORD(now, obs::EventKind::rescue_abort, uid);
    }

    const auto was_displaced = [&](TaskUid uid) {
        return std::find(displaced.begin(), displaced.end(), uid) != displaced.end();
    };
    for (const TaskAssignment& assignment : decision.kept) {
        ActiveTask* task = find_task(assignment.uid);
        RMWP_ENSURE(task != nullptr);
        RMWP_ENSURE(health_.online(assignment.resource));
        if (assignment.resource != task->resource && relocate(*task, assignment.resource, now))
            ++result_.rescue_migrations;
        if (was_displaced(assignment.uid)) ++result_.rescued;
        RMWP_RECORD(now, obs::EventKind::rescue_keep, assignment.uid,
                    static_cast<std::int64_t>(assignment.resource), 0.0,
                    was_displaced(assignment.uid) ? 1u : 0u);
    }

    rebuild(now);
}

void SimEngine::apply(const Decision& decision, const ActiveTask& candidate, Time now) {
    for (std::size_t k = 0; k < decision.assignments.size(); ++k) {
        const TaskAssignment& assignment = decision.assignments[k];
        if (assignment.uid == candidate.uid) {
            ActiveTask admitted = candidate;
            admitted.resource = assignment.resource;
            active_.push_back(admitted);
            if (options_.execution_time_factor_min < 1.0) {
                // An independent stream per uid: the draw does not depend on
                // which requests were admitted before, and a checkpoint needs
                // no RNG state — replaying uid j always sees the same draw.
                actual_work_[admitted.uid] = Rng(options_.execution_seed)
                                                 .derive(admitted.uid)
                                                 .uniform(options_.execution_time_factor_min, 1.0);
            }
            continue;
        }
        // The RM planned over active_ as it stands, so the assignments
        // walk it in lockstep.
        ActiveTask* task = find_assigned(std::span(active_), k, assignment.uid);
        RMWP_ENSURE(task != nullptr);
        if (assignment.resource != task->resource) relocate(*task, assignment.resource, now);
    }
}

bool SimEngine::relocate(ActiveTask& task, ResourceId to, [[maybe_unused]] Time now) {
    RMWP_ENSURE(!task.pinned); // non-preemptable tasks never move
    bool migrated = false;
    if (task.started) {
        const TaskType& type = catalog_.type(task.type);
        // Relocation replaces any unpaid migration time with the new pair's
        // cost — exactly what occupied_time() plans with.  A level switch on
        // the same core costs nothing and moves no state, so it is not
        // counted as a migration.
        task.pending_overhead = type.migration_time(task.resource, to);
        migrated = platform_.resource(task.resource).physical() !=
                   platform_.resource(to).physical();
        if (migrated) {
            const double energy = type.migration_energy(task.resource, to);
            charge_energy(energy);
            result_.migration_energy += energy;
            ++result_.migrations;
            RMWP_RECORD(now, obs::EventKind::migrate, task.uid,
                        static_cast<std::int64_t>(task.resource), energy,
                        static_cast<std::uint32_t>(to));
        }
    }
    task.resource = to;
    return migrated;
}

void SimEngine::plan_current(Time now) {
    plan_items_.clear();
    Time horizon = now;
    for (const ActiveTask& task : active_) {
        plan_items_.push_back(
            make_schedule_item(task, catalog_.type(task.type), task.resource, now, &health_));
        horizon = std::max(horizon, task.absolute_deadline);
    }
    if (reservations_ != nullptr && !reservations_->empty())
        reservations_->append_blocks(now, horizon, plan_items_);
    build_window_schedule_into(platform_, now, plan_items_, schedule_);
}

void SimEngine::abort_doomed(Time now) {
    // Plans into schedule_ like rebuild(), which always follows before the
    // clock moves on.
    while (true) {
        plan_current(now);
        if (schedule_.feasible) return;
        const std::size_t before = active_.size();
        std::vector<TaskUid> doomed;
        std::erase_if(active_, [&](const ActiveTask& task) {
            const auto completion = schedule_.completion_of(task.uid);
            const bool late =
                completion.has_value() && *completion > task.absolute_deadline + kTimeEps;
            if (late) doomed.push_back(task.uid);
            return late;
        });
        if (active_.size() == before) {
            // No adaptive task misses its own deadline, so the
            // infeasibility is a *reservation* made late (e.g. a pinned
            // task overrunning into a reserved window after a stall).
            // Kill one adaptive occupant of each violated resource.
            for (const ScheduleItem& item : plan_items_) {
                if (!item.reserved) continue;
                const auto completion = schedule_.completion_of(item.uid);
                if (!completion || *completion <= item.abs_deadline + kTimeEps) continue;
                bool removed = false;
                std::erase_if(active_, [&](const ActiveTask& task) {
                    if (removed || task.resource != item.resource) return false;
                    removed = true;
                    doomed.push_back(task.uid);
                    return true;
                });
            }
            RMWP_ENSURE(active_.size() < before);
        }
        for (const TaskUid uid : doomed) {
            actual_work_.erase(uid);
            RMWP_RECORD(now, obs::EventKind::abort_overhead, uid);
        }
        result_.aborted += before - active_.size();
    }
}

Time SimEngine::actual_completion(const ActiveTask& task, Time planned) const {
    const double actual = actual_work(task.uid);
    if (actual >= 1.0) return planned;
    const TaskType& type = catalog_.type(task.type);
    double work_left = std::max(0.0, actual - (1.0 - task.remaining_fraction)) *
                       type.wcet(task.resource) * health_.throttle(task.resource);
    double overhead_left = task.pending_overhead;
    // Within one plan a task runs only on its resource's physical timeline,
    // whose segments are already in time order.
    const ResourceId timeline = platform_.resource(task.resource).physical();
    for (const Segment& segment : schedule_.per_resource[timeline].segments) {
        if (segment.uid != task.uid) continue;
        double duration = segment.duration();
        const double overhead = std::min(overhead_left, duration);
        overhead_left -= overhead;
        duration -= overhead;
        if (duration >= work_left - 1e-12) return segment.start + overhead + work_left;
        work_left -= duration;
    }
    return planned;
}

void SimEngine::rebuild(Time now) {
    RMWP_STAGE_SCOPE(obs::Stage::rebuild);
    RMWP_RECORD(now, obs::EventKind::plan_rebuild, obs::kNoTask, obs::kNoResource,
                static_cast<double>(active_.size()));
    plan_current(now);
#ifdef RMWP_AUDIT
    if (options_.audit) run_audit(audit_schedule());
#endif
    RMWP_ENSURE(schedule_.feasible);
    plan_stale_ = false;

    events_.clear_armed();
    for (const ActiveTask& task : active_) {
        const auto completion = schedule_.completion_of(task.uid);
        RMWP_ENSURE(completion.has_value());
        events_.arm(actual_completion(task, *completion), kCompletionEvent, task.uid);
    }
}

void SimEngine::save_stream(std::ostream& os) {
    // Clean cut: everything at or before the clock has happened (a fault
    // event landing exactly on the checkpoint instant is processed now, in
    // the same order an uninterrupted run would process it next), so
    // restore only re-derives strictly later events.
    drain_through(clock_);

    os << "RMWP-SIM-ENGINE 1\n";
    put_f64(os, clock_);

    os << platform_.size() << '\n';
    for (ResourceId i = 0; i < platform_.size(); ++i) {
        os << (health_.online(i) ? 1 : 0) << ' ';
        put_f64(os, health_.throttle(i));
    }

    os << active_.size() << '\n';
    for (const ActiveTask& task : active_) {
        os << task.uid << ' ' << task.type << ' ' << task.resource << ' '
           << (task.started ? 1 : 0) << ' ' << (task.pinned ? 1 : 0) << '\n';
        put_f64(os, task.arrival);
        put_f64(os, task.absolute_deadline);
        put_f64(os, task.remaining_fraction);
        put_f64(os, task.pending_overhead);
        put_f64(os, actual_work(task.uid));
    }

    // TraceResult accumulators from kTraceResultFields: the counts on one
    // line, then one line per double, each in declared order (host fields
    // included: a restored run reports the total effort spent across both
    // halves).
    const char* separator = "";
    for_each_trace_result_field<std::size_t>([&](const auto& field) {
        os << separator << result_.*field.member;
        separator = " ";
    });
    os << '\n';
    for_each_trace_result_field<double>(
        [&](const auto& field) { put_f64(os, result_.*field.member); });
}

void SimEngine::restore_stream(std::istream& is, const FaultSchedule* faults) {
    RMWP_EXPECT(active_.empty() && clock_ == 0.0);
    std::string magic, version;
    if (!(is >> magic >> version) || magic != "RMWP-SIM-ENGINE" || version != "1")
        throw std::runtime_error("engine checkpoint: bad header");
    clock_ = get_f64(is, kCheckpointContext);

    const auto resource_count = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    if (resource_count != platform_.size())
        throw std::runtime_error("engine checkpoint: platform size mismatch");
    health_ = PlatformHealth{};
    for (ResourceId i = 0; i < platform_.size(); ++i) {
        const bool online = get_u64(is, kCheckpointContext) != 0;
        const double throttle = get_f64(is, kCheckpointContext);
        // Health is per physical core; apply through the first operating
        // point that owns the core (set_* fan out to siblings).
        if (platform_.resource(i).physical() != i) continue;
        if (!online) health_.set_online(platform_, i, false);
        if (throttle != 1.0) health_.set_throttle(platform_, i, throttle);
    }

    const auto active_count = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    active_.clear();
    actual_work_.clear();
    for (std::size_t k = 0; k < active_count; ++k) {
        ActiveTask task;
        task.uid = get_u64(is, kCheckpointContext);
        task.type = static_cast<TaskTypeId>(get_u64(is, kCheckpointContext));
        task.resource = static_cast<ResourceId>(get_u64(is, kCheckpointContext));
        task.started = get_u64(is, kCheckpointContext) != 0;
        task.pinned = get_u64(is, kCheckpointContext) != 0;
        task.arrival = get_f64(is, kCheckpointContext);
        task.absolute_deadline = get_f64(is, kCheckpointContext);
        task.remaining_fraction = get_f64(is, kCheckpointContext);
        task.pending_overhead = get_f64(is, kCheckpointContext);
        const double work = get_f64(is, kCheckpointContext);
        if (work < 1.0) actual_work_[task.uid] = work;
        if (task.type >= catalog_.size() || task.resource >= platform_.size())
            throw std::runtime_error("engine checkpoint: task references unknown type/resource");
        active_.push_back(task);
    }

    for_each_trace_result_field<std::size_t>([&](const auto& field) {
        result_.*field.member = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    });
    for_each_trace_result_field<double>(
        [&](const auto& field) { result_.*field.member = get_f64(is, kCheckpointContext); });

    // Re-derive everything save_stream did not carry: pending fault events
    // strictly after the cut (the restored health mask already reflects
    // events at or before it) and the completion schedule.
    set_fault_schedule(faults, clock_, /*include_events_at_from=*/false);
#ifdef RMWP_AUDIT
    // The re-derivation rebuild is not part of the simulated timeline (an
    // uninterrupted run has no event here), so its audit must not count:
    // restored runs promise bit-identical TraceResults, counters included.
    const std::size_t audit_checks_before = result_.audit_checks;
#endif
    rebuild(clock_);
#ifdef RMWP_AUDIT
    result_.audit_checks = audit_checks_before;
#endif
}

#ifdef RMWP_AUDIT
AuditReport SimEngine::audit_schedule() const {
    AuditReport report = auditor_.audit_items(platform_, catalog_, schedule_.start, active_,
                                              plan_items_, &health_);
    report.merge(
        auditor_.audit_window(platform_, schedule_.start, plan_items_, schedule_, &health_));
    return report;
}

void SimEngine::run_audit(AuditReport report) {
    ++result_.audit_checks;
    if (!report.ok()) throw audit_error(report);
}
#endif

} // namespace rmwp
