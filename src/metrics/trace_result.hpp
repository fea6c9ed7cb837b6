// Per-trace outcome of one simulation run: admission counts, energy, and
// RM bookkeeping — the raw material for every figure of Sec 5.
//
// `kTraceResultFields` lists every member but `obs_metrics` once, in
// declared order.  Result equality (`equivalent_ignoring_host_time`,
// `describe_differences`), the engine checkpoint's result block and the
// determinism tests all read that list, and a compile-time guard in
// trace_result.cpp fails the build when a member is added without an entry
// (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "obs/metrics.hpp"

namespace rmwp {

struct TraceResult {
    std::size_t requests = 0;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t completed = 0;
    /// Admitted tasks that missed their deadline.  The engine throws on a
    /// miss (the firm-real-time guarantee), so a returned result always
    /// reads 0; the only miss serve's monitor can see is the one faked by
    /// `chaos_fake_miss_at`.
    std::size_t deadline_misses = 0;
    /// Admitted tasks aborted because prediction/RM overhead stalls made
    /// their deadline unreachable (only possible when overhead > 0; their
    /// firm-real-time result would be useless, so they are dropped).
    std::size_t aborted = 0;
    /// Admitted tasks aborted by a fault-rescue activation: their resource
    /// failed (or throttled) and no re-mapping could still meet their
    /// deadline.  Accounting: accepted = completed + aborted + fault_aborted.
    std::size_t fault_aborted = 0;

    double total_energy = 0.0;      ///< execution + migration energy (adaptive tasks)
    double migration_energy = 0.0;
    std::size_t migrations = 0;
    /// Energy consumed by design-time critical reservations within the
    /// simulated horizon (kept separate from the adaptive total so RM
    /// comparisons are unaffected by the static workload).
    double critical_energy = 0.0;

    std::size_t activations = 0;
    /// Activations whose accepted plan used the predicted task.
    std::size_t plans_with_prediction = 0;
    /// Wall-clock seconds spent inside ResourceManager::decide.  A host
    /// field: it measures the host, not the simulated system, so run
    /// comparisons skip it.
    double decision_seconds = 0.0;

    // -- auditing (all zero unless built with RMWP_AUDIT and audit on) --
    /// Audit passes performed (decisions, rescues, rebuilds, completions).
    /// A violation never increments anything: the simulator throws.
    std::size_t audit_checks = 0;
    /// Admission verdicts the differential mode solved exactly.
    std::size_t audit_differential_checks = 0;
    /// Heuristic rejections the complete search overturned — allowed
    /// incompleteness (Sec 5.2), counted for visibility, never an error.
    std::size_t audit_differential_gaps = 0;

    // -- fault-tolerance extension (all zero without injected faults) --
    /// Outage/permanent-failure onsets that struck the platform.
    std::size_t resource_outages = 0;
    /// Throttle-interval onsets.
    std::size_t throttle_events = 0;
    /// Capacity-loss events that triggered a fault-rescue RM activation.
    std::size_t rescue_activations = 0;
    /// Displaced tasks (their resource went offline) that a rescue
    /// activation re-mapped onto surviving capacity and kept alive.
    std::size_t rescued = 0;
    /// Physical migrations performed by rescue activations (also counted in
    /// `migrations`/`migration_energy`).
    std::size_t rescue_migrations = 0;
    /// Wall-clock seconds spent inside ResourceManager::rescue — the
    /// re-planning component of recovery latency.  A host field, like
    /// `decision_seconds`.
    double rescue_decision_seconds = 0.0;
    /// Share of total_energy consumed while the platform was degraded
    /// (at least one resource offline or throttled).
    double degraded_energy = 0.0;

    /// Normalisation reference: the sum over *all* requests (accepted or
    /// not) of the request's resource-averaged energy.  Dividing by it makes
    /// energies comparable across traces and RM configurations: a manager
    /// that accepts more work reports proportionally higher normalised
    /// energy, which is exactly the effect Fig 3 discusses.
    double reference_energy = 0.0;

    /// Metrics recorded by the observability layer (DESIGN.md §10); empty
    /// unless a TraceSink was attached to the run.  Deliberately outside
    /// `kTraceResultFields`: the snapshot mixes sim- and
    /// host-scoped entries and has its own determinism predicate
    /// (obs::deterministic_equal), and attaching a sink must never change
    /// whether two runs compare equal.
    obs::MetricsSnapshot obs_metrics;

    [[nodiscard]] double rejection_percent() const noexcept {
        return requests == 0 ? 0.0
                             : 100.0 * static_cast<double>(rejected) /
                                   static_cast<double>(requests);
    }
    /// Requests that produced no useful result: rejected at admission,
    /// aborted because of overhead stalls, or aborted by a fault rescue.
    [[nodiscard]] double loss_percent() const noexcept {
        return requests == 0 ? 0.0
                             : 100.0 * static_cast<double>(rejected + aborted + fault_aborted) /
                                   static_cast<double>(requests);
    }
    [[nodiscard]] double acceptance_percent() const noexcept {
        return requests == 0 ? 0.0 : 100.0 - rejection_percent();
    }
    [[nodiscard]] double normalized_energy() const noexcept {
        return reference_energy <= 0.0 ? 0.0 : total_energy / reference_energy;
    }
};

/// One entry of `kTraceResultFields`: a member's name, its pointer, and
/// whether it is a host field (a wall clock of the host, not state of the
/// simulated system).
template <typename T>
struct TraceResultField {
    using value_type = T;
    std::string_view name;
    T TraceResult::*member;
    bool host = false;
};

/// Every member of TraceResult except `obs_metrics`, in declared order.
inline constexpr auto kTraceResultFields = std::tuple{
    TraceResultField<std::size_t>{"requests", &TraceResult::requests},
    TraceResultField<std::size_t>{"accepted", &TraceResult::accepted},
    TraceResultField<std::size_t>{"rejected", &TraceResult::rejected},
    TraceResultField<std::size_t>{"completed", &TraceResult::completed},
    TraceResultField<std::size_t>{"deadline_misses", &TraceResult::deadline_misses},
    TraceResultField<std::size_t>{"aborted", &TraceResult::aborted},
    TraceResultField<std::size_t>{"fault_aborted", &TraceResult::fault_aborted},
    TraceResultField<double>{"total_energy", &TraceResult::total_energy},
    TraceResultField<double>{"migration_energy", &TraceResult::migration_energy},
    TraceResultField<std::size_t>{"migrations", &TraceResult::migrations},
    TraceResultField<double>{"critical_energy", &TraceResult::critical_energy},
    TraceResultField<std::size_t>{"activations", &TraceResult::activations},
    TraceResultField<std::size_t>{"plans_with_prediction", &TraceResult::plans_with_prediction},
    TraceResultField<double>{"decision_seconds", &TraceResult::decision_seconds, true},
    TraceResultField<std::size_t>{"audit_checks", &TraceResult::audit_checks},
    TraceResultField<std::size_t>{"audit_differential_checks",
                                  &TraceResult::audit_differential_checks},
    TraceResultField<std::size_t>{"audit_differential_gaps",
                                  &TraceResult::audit_differential_gaps},
    TraceResultField<std::size_t>{"resource_outages", &TraceResult::resource_outages},
    TraceResultField<std::size_t>{"throttle_events", &TraceResult::throttle_events},
    TraceResultField<std::size_t>{"rescue_activations", &TraceResult::rescue_activations},
    TraceResultField<std::size_t>{"rescued", &TraceResult::rescued},
    TraceResultField<std::size_t>{"rescue_migrations", &TraceResult::rescue_migrations},
    TraceResultField<double>{"rescue_decision_seconds", &TraceResult::rescue_decision_seconds,
                             true},
    TraceResultField<double>{"degraded_energy", &TraceResult::degraded_energy},
    TraceResultField<double>{"reference_energy", &TraceResult::reference_energy},
};

/// `visit(field)` for every entry of `kTraceResultFields`, in list order;
/// given `T`, only for the entries whose value type is `T`.
template <typename T = void, typename Visit>
constexpr void for_each_trace_result_field(Visit&& visit) {
    std::apply(
        [&](const auto&... field) {
            const auto visit_one = [&](const auto& f) {
                using Value = typename std::decay_t<decltype(f)>::value_type;
                if constexpr (std::is_void_v<T> || std::is_same_v<Value, T>) visit(f);
            };
            (visit_one(field), ...);
        },
        kTraceResultFields);
}

/// Bit-exact equality over every non-host field of `kTraceResultFields`.
/// The two host fields (`decision_seconds`, `rescue_decision_seconds`) are
/// the only ones allowed to differ between runs — this is the determinism
/// contract the parallel experiment engine is tested against (DESIGN.md
/// Sec 9).
[[nodiscard]] bool equivalent_ignoring_host_time(const TraceResult& a,
                                                 const TraceResult& b) noexcept;

/// One line per non-host field on which `a` and `b` differ, naming the
/// field and both values (doubles in hexfloat); empty exactly when
/// `equivalent_ignoring_host_time(a, b)`.  Tests compare it with "".
[[nodiscard]] std::string describe_differences(const TraceResult& a, const TraceResult& b);

} // namespace rmwp
