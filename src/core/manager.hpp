// The resource-manager interface (Sec 2, Sec 4).
//
// An RM is activated once per arriving request.  It sees the platform, the
// admitted-but-unfinished tasks (state already advanced to the activation
// time), the newly arrived task, and — when prediction is enabled — the
// predicted next request.  It returns an admission verdict plus a full
// mapping for the task set; the simulator turns that mapping into the
// executed schedule.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/edf.hpp"
#include "core/schedule.hpp"
#include "core/task_state.hpp"
#include "platform/health.hpp"
#include "platform/platform.hpp"
#include "workload/catalog.hpp"

namespace rmwp {

/// The predicted next request req_p (type + timing), as delivered by a
/// predictor.  Used by the RM purely as a planning constraint (Sec 4.1).
struct PredictedTask {
    TaskTypeId type = 0;
    Time arrival = 0.0;            ///< predicted s_p
    Time relative_deadline = 0.0;  ///< d_p

    [[nodiscard]] Time absolute_deadline() const noexcept { return arrival + relative_deadline; }
};

class ReservationTable;

/// Everything an RM activation can look at.
struct ArrivalContext {
    Time now = 0.0;                       ///< decision time (arrival + prediction overhead)
    const Platform* platform = nullptr;
    const Catalog* catalog = nullptr;
    std::span<const ActiveTask> active;   ///< admitted, unfinished, advanced to `now`
    ActiveTask candidate;                 ///< the newly arrived task (mapping ignored)
    /// Predicted upcoming requests, nearest first.  The paper's predictor
    /// looks one request ahead (size <= 1); deeper lookahead is an
    /// extension (see bench_lookahead).  Empty when prediction is off.
    std::vector<PredictedTask> predicted;
    /// Design-time critical reservations the plan must respect (optional).
    const ReservationTable* reservations = nullptr;
    /// Runtime resource health (fault-tolerance extension; null = nominal).
    /// Offline resources are infeasible mapping targets; throttled ones are
    /// planned with WCETs inflated by the throttle factor.
    const PlatformHealth* health = nullptr;

    [[nodiscard]] const TaskType& type_of(const ActiveTask& task) const {
        return catalog->type(task.type);
    }
};

/// One task's new mapping.
struct TaskAssignment {
    TaskUid uid = 0;
    ResourceId resource = 0;
};

/// Why a candidate was turned away (observability layer, DESIGN.md §10).
/// The code distinguishes *proven* infeasibility from allowed heuristic
/// incompleteness (Sec 5.2), so per-reason rejection counters explain a
/// Fig. 2 cell instead of just sizing it.  Carried in reject TraceEvents
/// (aux field) and the per-reason `reject.<reason>` counters.
enum class RejectReason : std::uint8_t {
    none = 0,            ///< admitted — no rejection happened
    deadline_passed,     ///< deadline expired before the decision instant (simulator pre-check)
    heuristic_exhausted, ///< Algorithm 1 found no placement (may be incomplete)
    proved_infeasible,   ///< complete branch-and-bound proved no mapping exists
    solver_infeasible,   ///< MILP relaxation/search reported infeasible or hit its budget
    baseline_no_fit,     ///< greedy non-replanning placement found no slot
    overload,            ///< shed by serve-mode admission-queue backpressure (src/serve)
};

inline constexpr std::size_t kRejectReasonCount = 7;

[[nodiscard]] const char* to_string(RejectReason reason) noexcept;

/// The RM's verdict for one activation.
struct Decision {
    bool admitted = false;
    /// True when the accepted plan includes the predicted task as a
    /// constraint; false when the plan came from the no-prediction fallback.
    bool used_prediction = false;
    /// Why the candidate was rejected (none when admitted).  Every RM sets
    /// its own code so rejection counters separate proven infeasibility
    /// from heuristic incompleteness.
    RejectReason reason = RejectReason::none;
    /// New mapping for every real task in the window (active tasks always;
    /// the candidate too iff admitted).  Empty on rejection: the previous
    /// mapping stays in force.  The solver RMs list them in instance order
    /// — the active set as given, then the candidate — which lets the
    /// folds below walk them in lockstep (find_assigned).
    std::vector<TaskAssignment> assignments;
};

/// A fault-triggered re-planning request (fault-tolerance extension).
/// There is no new candidate: capacity was lost (outage or throttle onset)
/// and the surviving task set must be re-planned on the remaining healthy
/// resources.  Displaced tasks — those whose current resource is offline in
/// `health` — must be re-mapped or aborted; tasks interrupted on a
/// non-preemptable resource have already had their progress reset by the
/// simulator.
struct RescueContext {
    Time now = 0.0;
    const Platform* platform = nullptr;
    const Catalog* catalog = nullptr;
    std::span<const ActiveTask> active; ///< surviving tasks, advanced to `now`
    const PlatformHealth* health = nullptr;
    const ReservationTable* reservations = nullptr;

    [[nodiscard]] const TaskType& type_of(const ActiveTask& task) const {
        return catalog->type(task.type);
    }
};

/// Outcome of a rescue activation.  Every task of the context appears in
/// exactly one of the two lists; every kept mapping must be schedulable
/// (the simulator re-verifies — a rescued task never misses its deadline).
struct RescueDecision {
    std::vector<TaskAssignment> kept;
    std::vector<TaskUid> aborted;
};

/// One arrival of a coalesced batch: the candidate plus the predictions
/// that were current when it was observed (predictors are fed in arrival
/// order before the batch decision, so item m's predictions already reflect
/// items 0..m-1 — exactly the sequential interleaving).
struct BatchItem {
    ActiveTask candidate;
    std::vector<PredictedTask> predicted;
};

/// A coalesced activation: several arrivals sharing one decision instant.
/// `active` is the admitted set as of `now`; decisions are taken item by
/// item in order, each against the state left by the previous admissions —
/// the batch entry point exists so RMs can share the per-activation setup
/// (plan rebuild, block refresh, demand-bound state) across the items, not
/// to change semantics.
struct BatchArrivalContext {
    Time now = 0.0;
    const Platform* platform = nullptr;
    const Catalog* catalog = nullptr;
    std::span<const ActiveTask> active;
    std::span<const BatchItem> items;
    const ReservationTable* reservations = nullptr;
    const PlatformHealth* health = nullptr;

    [[nodiscard]] const TaskType& type_of(const ActiveTask& task) const {
        return catalog->type(task.type);
    }
};

/// Sharded admission configuration (DESIGN.md §15).  The plan is
/// partitioned by resource group (connected components of the "some type can
/// execute on both resources" relation) and folded into at most `shards`
/// solve buckets, solved one after another on the calling thread.
/// Decisions are bit-identical to the unsharded solve at any shard count —
/// sharding trades nothing but latency.  `shards <= 1` selects the
/// unsharded solve exactly.  The ladder driver (LadderRM) reads the config
/// and wraps the solve of the heuristic and exact RMs in the sharded
/// decorator; BaselineRM and MilpRM ignore it (their solvers do not
/// decompose provably bit-identically; see DESIGN.md §15).
struct ShardConfig {
    std::size_t shards = 1; ///< max solve buckets (1 = one whole-plan solve)
};

/// Abstract resource manager.
class ResourceManager {
public:
    virtual ~ResourceManager() = default;
    /// Decide a batch of same-instant arrivals, appending one Decision per
    /// item (in item order) to `out`.  Contract: a multi-item batch is
    /// bit-identical to deciding the items one at a time at the same
    /// instant, each against the active set the previous admissions left
    /// (the engine's differential tests pin it).  This is the one admission
    /// body every RM implements; the engine decides only through it.
    virtual void decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) = 0;
    /// One arrival, decided as a batch of one.  Virtual only so a timing
    /// decorator can wrap it; RMs implement decide_batch instead.
    [[nodiscard]] virtual Decision decide(const ArrivalContext& context);
    /// Fault-rescue re-planning.  The default implementation is the
    /// non-replanning fallback (used by BaselineRM): tasks stay on their
    /// current resource; anything displaced, or no longer schedulable in
    /// place under the degraded capacity, is aborted.  The solver RMs
    /// re-plan through LadderRM's rescue ladder to migrate tasks off the
    /// lost capacity.
    [[nodiscard]] virtual RescueDecision rescue(const RescueContext& context);
    [[nodiscard]] virtual std::string name() const = 0;

    /// Sharded-admission configuration.  Set once, at construction/setup
    /// time, before the RM is shared across engine threads: the config is
    /// read unsynchronised on every decision, by LadderRM only.  RMs whose
    /// solvers do not decompose bit-identically (baseline, milp) ignore it.
    void set_shard_config(const ShardConfig& config) noexcept { shard_config_ = config; }
    [[nodiscard]] const ShardConfig& shard_config() const noexcept { return shard_config_; }

private:
    ShardConfig shard_config_;
};

/// The entry of `entries` that assignment `k` of a Decision names.  In
/// instance order that is entries[k], so folding a whole decision is
/// linear; a uid search covers the case where the positions disagree.
/// nullptr when no entry carries `uid`.
template <typename Entry>
[[nodiscard]] Entry* find_assigned(std::span<Entry> entries, std::size_t k,
                                   TaskUid uid) noexcept {
    if (k < entries.size() && entries[k].uid == uid) return &entries[k];
    for (Entry& entry : entries)
        if (entry.uid == uid) return &entry;
    return nullptr;
}

/// Build the ScheduleItem for a real task under a candidate assignment.
/// With a health mask, the duration is inflated by the target resource's
/// throttle factor (remaining work only; migration overhead is unscaled).
[[nodiscard]] ScheduleItem make_schedule_item(const ActiveTask& task, const TaskType& type,
                                              ResourceId to, Time now,
                                              const PlatformHealth* health = nullptr);

/// Build the ScheduleItem for the predicted (virtual) task on a resource.
[[nodiscard]] ScheduleItem make_predicted_item(const PredictedTask& predicted,
                                               const TaskType& type, ResourceId to, Time now);

/// Planning window length K = max_j t_left_j over the given tasks and the
/// first `predicted_count` predicted tasks.  Requires a non-empty task set.
[[nodiscard]] Time planning_window(const ArrivalContext& context, std::size_t predicted_count);

/// Rebuild the window schedule implied by a decision (real tasks only) and
/// verify feasibility.  Used by the simulator and by tests as the
/// ground-truth check that an RM never admits an unschedulable set.
[[nodiscard]] WindowSchedule realize_decision(const ArrivalContext& context,
                                              const Decision& decision);

} // namespace rmwp
