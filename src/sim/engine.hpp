// The simulation engine behind both execution front-ends (DESIGN.md §11).
//
// The engine has one entry point for arrivals, stream_arrival_batch(group,
// wake): a group of requests the manager picks up at one wake-up.  Two
// drivers feed it:
//
//   * simulate_trace() (sim/simulator.hpp) walks a whole trace and owns the
//     activation policy: one group per arrival (the paper's protocol), or,
//     with options.activation_period, one group per period boundary;
//   * run_serve() (src/serve) feeds arrivals as they come, one at a time or
//     coalesced by its batch window, and checkpoints the engine state
//     (save_stream) to resume it bit-identically (restore_stream).
//
// Both drivers share every line of the execution model — advance(),
// admission, migration charging, fault rescue, schedule rebuild — so serve
// cannot drift from the simulator it is tested against.  The engine sees
// the predictor only through its streaming interface (observe_arrival /
// predict_upcoming); the trace driver adapts trace-bound predictors.
//
// This header is an internal engine API (consumed by sim/simulator.cpp and
// src/serve); experiment code should keep calling simulate_trace().
#pragma once

#include <array>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/manager.hpp"
#include "core/reservation.hpp"
#include "fault/fault.hpp"
#include "metrics/trace_result.hpp"
#include "obs/event.hpp"
#include "predict/predictor.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "workload/catalog.hpp"
#include "workload/trace.hpp"

#ifdef RMWP_AUDIT
#include "audit/audit.hpp"
#endif

namespace rmwp::obs {
class Counter;
class Gauge;
class HdrHistogram;
} // namespace rmwp::obs

namespace rmwp {

/// Time comparison tolerance of the engine's deadline checks, shared with
/// the trace driver's activation-boundary merge.
inline constexpr Time kTimeEps = 1e-6;

/// One member of an arrival group (stream_arrival_batch).
struct StreamArrival {
    Request request;
    TaskUid uid = 0;
};

class SimEngine {
public:
    /// Events of options.fault_schedule (if any) are scheduled here; the
    /// engine starts at clock 0 with an empty active set.  One engine runs
    /// one trace or one stream.
    SimEngine(const Platform& platform, const Catalog& catalog, ResourceManager& rm,
              Predictor& predictor, const ReservationTable* reservations,
              const SimOptions& options);

    SimEngine(const SimEngine&) = delete;
    SimEngine& operator=(const SimEngine&) = delete;

    /// Feed a group of arrivals the manager picks up at one wake-up `wake`
    /// (>= every member's arrival; later when an activation period or an
    /// admission queue delayed them).  Internal events before each member's
    /// arrival are processed before its arrival is recorded, then those
    /// before `wake`; then one advance, one rm_.decide_batch and one
    /// schedule rebuild serve the whole group.  A single arrival is a group
    /// of one.  Per-request accounting (requests, reference energy,
    /// predictor observations, decisions) is identical to feeding the
    /// members as groups of one at this wake; with a zero-overhead
    /// predictor the resulting simulation state is bit-identical too (the
    /// amortisation only shows once decision costs or predictor overheads
    /// are charged).  Task uids must be unique and strictly increasing,
    /// below kReservedUidBase.  Returns the decision instant.
    Time stream_arrival_batch(std::span<const StreamArrival> arrivals, Time wake);

    /// Account one request shed by serve-side overload protection: counted
    /// as rejected with RejectReason::overload.  The manager never sees it.
    void stream_shed(const Request& request, TaskUid uid);

    /// Process internal events (completions, faults) strictly before /
    /// up to and including `t`.  stream_arrival_batch drains up to its wake
    /// itself; these are for fault-chunk boundaries and quiescing.
    void drain_until(Time t);
    void drain_through(Time t);

    /// Replace the injected-fault schedule (serve generates faults in
    /// bounded chunks).  Events with onset/recovery after `from` are
    /// scheduled; `include_events_at_from` selects whether events exactly
    /// at `from` are included (true when entering a fresh chunk whose
    /// window starts at `from`, false when resuming from a checkpoint
    /// taken at `from`, where the health mask already reflects them).
    /// The previous schedule's events must have been drained
    /// (drain_through the old chunk's end) before switching.
    void set_fault_schedule(const FaultSchedule* schedule, Time from,
                            bool include_events_at_from);

    /// Drain every remaining event, execute the schedule to quiescence and
    /// return the final result.
    [[nodiscard]] TraceResult finish_stream();

    /// Checkpoint the streaming state (clock, active set, health mask,
    /// accumulated results) as versioned text with bit-exact doubles.
    /// Drains events at exactly the current clock first, so the checkpoint
    /// is a clean cut: everything <= clock happened, everything later is
    /// re-derived on restore.  Predictor and arrival-source state are
    /// checkpointed by their owners (src/serve).
    void save_stream(std::ostream& os);

    /// Inverse of save_stream on a freshly constructed engine.  `faults` is
    /// the regenerated fault chunk covering the checkpoint clock (null when
    /// serve runs fault-free); pending fault events and the completion
    /// schedule are re-derived.  Throws std::runtime_error on a malformed or
    /// mismatched checkpoint.
    void restore_stream(std::istream& is, const FaultSchedule* faults);

    [[nodiscard]] Time clock() const noexcept { return clock_; }
    [[nodiscard]] std::size_t active_count() const noexcept { return active_.size(); }
    /// Accumulated result so far (final only after finish_stream()).
    [[nodiscard]] const TraceResult& result() const noexcept { return result_; }

private:
#ifdef RMWP_OBS
    /// The event -> metric table (DESIGN.md §10), registered once when the
    /// sink is attached and in a fixed order, so the snapshot layout never
    /// depends on which events the run happens to hit.
    struct Instruments {
        /// Counter of each event kind; null for kinds counted below or not
        /// at all.
        std::array<obs::Counter*, obs::kEventKindCount> count{};
        /// `reject`: one counter per RejectReason (the event's aux).
        std::array<obs::Counter*, kRejectReasonCount> reject{};
        /// `exec`: the slice duration (detail), summed per resource.
        std::vector<obs::Gauge*> busy_time;
        // What no event carries: sink self-accounting and the histograms.
        obs::Counter* sink_events_total = nullptr;
        obs::Counter* sink_dropped = nullptr;
        obs::Gauge* sink_ring_occupancy = nullptr;
        obs::HdrHistogram* plan_size = nullptr;
        obs::HdrHistogram* admission_latency_ns = nullptr;
    };

    /// Emit one event to the attached sink and update the metric the table
    /// maps it to.  Called through RMWP_RECORD, which skips it (arguments
    /// unevaluated) when no sink is attached.
    void record(Time t, obs::EventKind kind, std::uint64_t task = obs::kNoTask,
                std::int64_t resource = obs::kNoResource, double detail = 0.0,
                std::uint32_t aux = 0);
#endif

    [[nodiscard]] ActiveTask* find_task(TaskUid uid);
    [[nodiscard]] double actual_work(TaskUid uid) const;
    void charge_energy(double energy);
    void advance(Time to);
    [[nodiscard]] Time schedule_horizon() const;
    [[nodiscard]] Time wake_up(Time wake);
    void dispatch(const Event& event);
    void reject_doomed(TaskUid uid, Time decision_time);
    void commit_decision(const ArrivalContext& context, const Decision& decision,
                         Time decision_time);
    void decide_batch_on(Time decision_time);
    void handle_fault(Time event_time, bool onset, std::size_t fault_index);
    void rescue_activation(Time now);
    void apply(const Decision& decision, const ActiveTask& candidate, Time now);
    /// Move `task` to resource `to` and charge the move: migration time
    /// when started, plus energy, counters and a `migrate` event when the
    /// move is physical.  Returns whether it was a physical migration.
    bool relocate(ActiveTask& task, ResourceId to, Time now);
    /// Plan the active set (plus reservation blocks) at `now` into
    /// plan_items_ and schedule_, reusing their storage.
    void plan_current(Time now);
    void abort_doomed(Time now);
    [[nodiscard]] Time actual_completion(const ActiveTask& task, Time planned) const;
    void rebuild(Time now);

#ifdef RMWP_AUDIT
    [[nodiscard]] AuditReport audit_schedule() const;
    void run_audit(AuditReport report);
#endif

    const Platform& platform_;
    const Catalog& catalog_;
    ResourceManager& rm_;
    Predictor& predictor_;
    const ReservationTable* reservations_ = nullptr;
    SimOptions options_;

    std::vector<ActiveTask> active_;
    /// Current resource health (all nominal unless faults are injected).
    PlatformHealth health_;
    /// The current plan and the items it was built from (plan_current()
    /// rebuilds both in place; the audit re-checks the pair).
    std::vector<ScheduleItem> plan_items_;
    WindowSchedule schedule_;
    /// Fault onsets/recoveries on the heap; the current plan's completions
    /// in the armed set, replaced by every rebuild.
    EventQueue events_;
    Time clock_ = 0.0;
    /// Set when advance() retires a task before the end of its planned
    /// slice; the completion handler then re-plans before the clock moves
    /// past the stale tail.  Cleared by every rebuild.
    bool plan_stale_ = false;
    TraceResult result_;
    /// Hidden actual work per task (fraction of WCET, drawn from
    /// Rng(execution_seed).derive(uid)); the RM never sees it.  Entries are
    /// dropped when their task retires, so the map is O(active set) — a
    /// requirement for the bounded-memory serve mode.
    std::unordered_map<TaskUid, double> actual_work_;

    /// The group being decided.  Member buffers: groups run on the hot
    /// path and must not reallocate per arrival.
    struct BatchEntry {
        Request request;
        TaskUid uid = 0;
        ActiveTask candidate;
        /// Index into batch_items_, or kNotAdmissible when the deadline
        /// already passed at decision time (the RM never sees those).
        std::size_t item = kNotAdmissible;
    };
    static constexpr std::size_t kNotAdmissible = static_cast<std::size_t>(-1);
    std::vector<BatchEntry> batch_entries_;
    std::vector<BatchItem> batch_items_;
    std::vector<Decision> batch_decisions_;

#ifdef RMWP_OBS
    Instruments ins_;
#endif

#ifdef RMWP_AUDIT
    ScheduleAuditor auditor_;
#endif
};

} // namespace rmwp
