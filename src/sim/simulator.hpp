// The trace-driven simulation protocol of Sec 5: a driver loop over the
// engine's single arrival entry point (sim/engine.hpp) that feeds each
// request to the resource manager at its activation, executes the planned
// window schedules between activations, and accounts energy, migrations,
// and admission outcomes.
//
// Event flow per arrival:
//   1. execution is advanced from the previous event to the decision time
//      (arrival + prediction overhead) along the current window schedule —
//      tasks progress, complete, consume energy;
//   2. the predictor observes the arrival and produces the lookahead;
//   3. the RM decides admission + the new mapping for the whole active set;
//   4. migrations implied by the new mapping are charged (energy now, time
//      as pending overhead on the target resource);
//   5. the execution schedule (real tasks only — the predicted task is a
//      planning constraint, never an occupant) is rebuilt and stale
//      completion events are cancelled.
#pragma once

#include <memory>

#include "core/manager.hpp"
#include "core/reservation.hpp"
#include "fault/fault.hpp"
#include "metrics/trace_result.hpp"
#include "predict/predictor.hpp"
#include "sim/event_queue.hpp"
#include "workload/catalog.hpp"
#include "workload/trace.hpp"

namespace rmwp::obs {
class TraceSink;
} // namespace rmwp::obs

namespace rmwp {

struct SimOptions {
    /// Independent invariant auditing (src/audit).  Only compiled in under
    /// the RMWP_AUDIT build option; with both on, every admission decision,
    /// fault rescue, rebuilt execution schedule, and completion is
    /// re-verified from first principles and a violation throws
    /// rmwp::audit_error.  The auditor never mutates audited state, so
    /// audited runs are bit-identical to unaudited ones (only the
    /// TraceResult audit counters differ).
    bool audit = true;
    /// Differential mode: additionally cross-check each admission verdict
    /// against the complete branch-and-bound search on small instances.
    /// An RM admit the exact search proves infeasible is a hard violation;
    /// the reverse (an overly conservative rejection) is only counted.
    /// Off by default — it re-solves every small instance exactly.
    bool audit_differential = false;
    /// Sec 5.5 overhead model.  When true (default), the prediction+RM
    /// overhead stalls the whole platform: the manager runs on the managed
    /// cores, so no task makes progress during the decision window — each
    /// activation costs overhead/interarrival of total capacity, which is
    /// what makes even perfect prediction lose once the overhead reaches a
    /// few percent of the mean interarrival time (Fig 5).  When false, the
    /// overhead only delays the decision (tasks keep running) and merely
    /// consumes the arriving task's deadline slack — a strictly milder
    /// model, kept for comparison.
    bool overhead_stalls_platform = true;
    /// How many upcoming requests the predictor is asked for (the paper's
    /// RM plans with 1; more is the lookahead extension).
    std::size_t lookahead = 1;
    /// Execution-time variation (extension; 1.0 reproduces the paper's
    /// WCET-exact evaluation).  Each admitted task's *actual* work is a
    /// uniformly random fraction in [execution_time_factor_min, 1] of its
    /// WCET.  The RM keeps planning with the pessimistic WCET; the
    /// simulator detects early completions and immediately re-plans, so the
    /// reclaimed slack benefits queued tasks (work-conserving).
    double execution_time_factor_min = 1.0;
    /// Seed for the per-task execution-time draws (independent of the
    /// workload generation seeds).  Task uid j draws from
    /// Rng(execution_seed).derive(j), so its actual work does not depend on
    /// which other requests were admitted, nor on the front-end.
    std::uint64_t execution_seed = 0;
    /// Injected faults (fault-tolerance extension; null = fault-free, which
    /// is bit-identical to the pre-extension simulator).  Every fault onset
    /// and recovery becomes a discrete event: onsets (capacity loss)
    /// interrupt the tasks running on the struck resource — preemptable
    /// resources keep their progress, non-preemptable ones (GPU-like) lose
    /// it — and trigger a fault-rescue RM activation that re-plans the
    /// surviving set; recoveries only rebuild the schedule under the
    /// restored capacity.  A rescued task never misses its deadline (the
    /// rescue re-plan is verified like any admission).
    const FaultSchedule* fault_schedule = nullptr;
    /// RM activation policy of the trace driver, simulate_trace()
    /// (extension; 0 reproduces the paper's activation on every arrival).
    /// With a positive period the manager wakes only at period boundaries
    /// and decides, as one group, on all requests that arrived since the
    /// previous activation, in arrival order: queueing delay consumes
    /// deadline slack, but any per-activation prediction overhead (Fig 5) is
    /// paid once per group instead of once per request.  The engine never
    /// reads it; serve requires 0 (it coalesces by its own batch window).
    Time activation_period = 0.0;
    /// Observability sink (DESIGN.md §10).  When non-null (and the build
    /// has RMWP_OBS, the default) the run records structured events —
    /// arrivals, admissions/rejections with reason codes, executed slices,
    /// preemptions, migrations, fault and rescue steps, plan rebuilds —
    /// plus a metrics snapshot into TraceResult::obs_metrics.  Attaching a
    /// sink never changes the simulated outcome: every other TraceResult
    /// field is bit-identical with and without it.  The sink must outlive
    /// the run and is single-threaded (one sink per run).
    obs::TraceSink* sink = nullptr;
};

/// Run one trace against one RM + predictor.  The predictor is stateful and
/// must be freshly constructed per run.
[[nodiscard]] TraceResult simulate_trace(const Platform& platform, const Catalog& catalog,
                                         const Trace& trace, ResourceManager& rm,
                                         Predictor& predictor, const SimOptions& options = {});

/// Same, with design-time critical reservations (Sec 2): the reserved
/// windows execute with absolute priority, their energy is accounted in
/// TraceResult::critical_energy, and the adaptive RM plans around them.
[[nodiscard]] TraceResult simulate_trace(const Platform& platform, const Catalog& catalog,
                                         const Trace& trace, ResourceManager& rm,
                                         Predictor& predictor,
                                         const ReservationTable& reservations,
                                         const SimOptions& options = {});

} // namespace rmwp
