// The reusable simulation engine behind both execution front-ends
// (DESIGN.md §11):
//
//   * batch  — simulate_trace() (sim/simulator.hpp) wraps run(): the whole
//     trace is known up front, arrivals are pre-scheduled as events, and
//     the predictor uses its trace-based interface;
//   * stream — the long-running serve mode (src/serve) feeds arrivals one
//     at a time via stream_arrival(): nothing about the future is known,
//     the predictor uses its streaming interface, and the engine state can
//     be checkpointed (save_stream) and resumed (restore_stream)
//     bit-identically.
//
// Both front-ends share every line of the execution model — advance(),
// admission, migration charging, fault rescue, schedule rebuild — so serve
// cannot drift from the simulator it is tested against.  The batch path is
// unchanged by the extraction: with the same inputs, run() performs the
// same operations in the same order as the pre-refactor simulator.
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
#include "predict/predictor.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
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

/// One member of a coalesced streaming batch (stream_arrival_batch).
struct StreamArrival {
    Request request;
    TaskUid uid = 0;
};

class SimEngine {
public:
    SimEngine(const Platform& platform, const Catalog& catalog, ResourceManager& rm,
              Predictor& predictor, const ReservationTable* reservations,
              const SimOptions& options);

    SimEngine(const SimEngine&) = delete;
    SimEngine& operator=(const SimEngine&) = delete;

    /// Batch mode: run one whole trace to completion (the simulate_trace
    /// protocol).  One engine runs exactly one trace OR one stream.
    [[nodiscard]] TraceResult run(const Trace& trace);

    // --- streaming interface (serve mode) ---

    /// Enter streaming mode.  Periodic-activation batching is a batch-only
    /// feature (options.activation_period must be 0).
    void begin_stream();

    /// Feed one arrival.  `wake` is the instant the manager picks the
    /// request up (== request.arrival unless an admission queue delayed
    /// it); internal events before `wake` are processed first, execution is
    /// advanced, the RM decides, and the schedule is rebuilt — the same
    /// wake-up protocol as a batch arrival.  Task uids must be unique and
    /// strictly increasing, below kReservedUidBase.  Returns the decision
    /// instant.
    Time stream_arrival(const Request& request, TaskUid uid, Time wake);

    /// Feed a coalesced group of arrivals deciding at one shared wake-up:
    /// one event drain, one advance, one rm_.decide_batch, one schedule
    /// rebuild for the whole group.  Per-request accounting (requests,
    /// reference energy, predictor observations, decisions) is identical to
    /// feeding the members through stream_arrival one by one at this wake;
    /// with a zero-overhead predictor the resulting simulation state is
    /// bit-identical too (the amortisation only shows once decision costs
    /// or predictor overheads are charged).  Returns the decision instant.
    Time stream_arrival_batch(std::span<const StreamArrival> arrivals, Time wake);

    /// Account one request shed by serve-side overload protection: counted
    /// as rejected with RejectReason::overload.  The manager never sees it.
    void stream_shed(const Request& request, TaskUid uid);

    /// Process internal events (completions, faults) strictly before /
    /// up to and including `t`.  stream_arrival drains up to its wake
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
    /// return the final result (the batch postamble).
    [[nodiscard]] TraceResult finish_stream();

    /// Checkpoint the streaming state (clock, active set, health mask,
    /// accumulated results) as versioned text with bit-exact doubles.
    /// Drains events at exactly the current clock first, so the checkpoint
    /// is a clean cut: everything <= clock happened, everything later is
    /// re-derived on restore.  Predictor and arrival-source state are
    /// checkpointed by their owners (src/serve).
    void save_stream(std::ostream& os);

    /// Inverse of save_stream on a freshly constructed engine (after
    /// begin_stream).  `faults` is the regenerated fault chunk covering the
    /// checkpoint clock (null when serve runs fault-free); pending fault
    /// events and the completion schedule are re-derived.  Throws
    /// std::runtime_error on a malformed or mismatched checkpoint.
    void restore_stream(std::istream& is, const FaultSchedule* faults);

    [[nodiscard]] Time clock() const noexcept { return clock_; }
    [[nodiscard]] std::size_t active_count() const noexcept { return active_.size(); }
    /// Accumulated result so far (final only after run()/finish_stream()).
    [[nodiscard]] const TraceResult& result() const noexcept { return result_; }

private:
#ifdef RMWP_OBS
    /// Cached instrument handles (DESIGN.md §10).  Registered once per run,
    /// in a fixed order, so hot-path sites update through pointers instead
    /// of name lookups and the snapshot layout never depends on which
    /// events the run happens to hit.
    struct Instruments {
        obs::Counter* admit = nullptr;
        std::array<obs::Counter*, kRejectReasonCount> reject{};
        obs::Counter* preempt = nullptr;
        obs::Counter* migrate = nullptr;
        obs::Counter* complete = nullptr;
        obs::Counter* abort_overhead = nullptr;
        obs::Counter* plan_rebuild = nullptr;
        obs::Counter* rescue_activation = nullptr;
        obs::Counter* rescue_keep = nullptr;
        obs::Counter* rescue_abort = nullptr;
        obs::Counter* fault_onset = nullptr;
        obs::Counter* fault_recovery = nullptr;
        obs::Counter* sink_events_total = nullptr;
        obs::Counter* sink_dropped = nullptr;
        obs::Gauge* sink_ring_occupancy = nullptr;
        std::vector<obs::Gauge*> busy_time; ///< indexed by ResourceId
        obs::HdrHistogram* plan_size = nullptr;
        obs::HdrHistogram* admission_latency_ns = nullptr;
    };
#endif

    [[nodiscard]] ActiveTask* find_task(TaskUid uid);
    [[nodiscard]] double actual_work(TaskUid uid) const;
    void charge_energy(double energy);
    void advance(Time to);
    [[nodiscard]] Time schedule_horizon() const;
    [[nodiscard]] Time wake_up(Time wake);
    void dispatch(const Event& event);
    void process_request(std::size_t index, Time decision_time);
    void reject_doomed(TaskUid uid, Time decision_time);
    void commit_decision(const ArrivalContext& context, const Decision& decision,
                         Time decision_time);
    void decide_batch_on(Time decision_time);
    void handle_arrival(std::size_t index);
    void handle_arrival_batch(Time arrival_time);
    void enqueue_for_batch(std::size_t index);
    void handle_activation(Time boundary);
    void handle_fault(Time event_time, bool onset, std::size_t fault_index);
    void rescue_activation(Time now);
    void apply(const Decision& decision, const ActiveTask& candidate, Time now);
    [[nodiscard]] WindowSchedule plan_current(Time now,
                                              std::vector<ScheduleItem>* items_out = nullptr) const;
    void abort_doomed(Time now);
    [[nodiscard]] Time actual_completion(const ActiveTask& task, Time planned) const;
    void rebuild(Time now);
    [[nodiscard]] TraceResult finalize();

#ifdef RMWP_AUDIT
    [[nodiscard]] AuditReport audit_schedule() const;
    void run_audit(AuditReport report);
#endif

#ifdef RMWP_OBS
    void init_obs();
#endif

    const Platform& platform_;
    const Catalog& catalog_;
    ResourceManager& rm_;
    Predictor& predictor_;
    const ReservationTable* reservations_ = nullptr;
    SimOptions options_;
    /// Batch-mode trace (null in streaming mode).
    const Trace* trace_ = nullptr;
    /// Streaming mode: arrivals are fed by the caller and the predictor's
    /// streaming interface is used.
    bool streaming_ = false;

    std::vector<ActiveTask> active_;
    /// Current resource health (all nominal unless faults are injected).
    PlatformHealth health_;
    WindowSchedule schedule_;
    EventQueue events_;
    Time clock_ = 0.0;
    std::uint64_t generation_ = 1;
    /// Set when advance() retires a task before the end of its planned
    /// slice; the completion handler then re-plans before the clock moves
    /// past the stale tail.  Cleared by every rebuild.
    bool plan_stale_ = false;
    TraceResult result_;
    Rng execution_rng_;
    /// Hidden actual work per task (fraction of WCET); the RM never sees
    /// it.  Entries are dropped when their task retires, so the map is
    /// O(active set) — a requirement for the bounded-memory serve mode.
    std::unordered_map<TaskUid, double> actual_work_;
    /// Periodic-activation state (batch mode only).
    std::vector<std::size_t> pending_;
    Time last_activation_scheduled_ = -1.0;

    /// Coalesced-arrival state (options.batch_arrivals / the streaming
    /// batch entry point).  Member buffers: batches run on the hot path and
    /// must not reallocate per group.
    struct BatchEntry {
        Request request;
        TaskUid uid = 0;
        std::size_t trace_index = 0; ///< batch mode only (predictor interface)
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
    /// The items the current execution schedule was built from, and the
    /// build instant — kept so completions can re-audit the window.
    std::vector<ScheduleItem> audited_items_;
    Time audited_now_ = 0.0;
#endif
};

} // namespace rmwp
