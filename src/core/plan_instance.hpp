// One RM activation's optimisation instance: the task set S-bar (active
// tasks + candidate + optionally predicted tasks), the planning window
// K-bar, and a row store of per-task cpm/epm tables and reservation blocks,
// read through accessors by the heuristic, the exact optimiser and the MILP
// encoder so all three agree on the instance by construction.  A whole
// instance owns its store; a shard bucket's sub-instance copies only its
// scalar tasks and views the parent's store (DESIGN.md §15).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/manager.hpp"

namespace rmwp {

/// One task of the optimisation instance; its costs are in row `row`.
struct PlanTask {
    TaskUid uid = 0;
    Time release = 0.0;
    Time abs_deadline = 0.0;
    bool pinned = false;
    ResourceId pinned_resource = 0;
    bool is_predicted = false;
    bool is_candidate = false;
    std::size_t row = 0; ///< row in the (owned or viewed) store

    [[nodiscard]] Time time_left(Time now) const noexcept { return abs_deadline - now; }
};

/// An instance's row store: per task one fixed-stride row (refilled in
/// place without shifting the rows after it) of cpm/epm over all resources
/// and of executable-resource slots, plus the window's reservation data.
struct PlanRows {
    std::size_t stride = 0;                        ///< resources per row
    std::vector<double> cpm;                       ///< rows x stride, row-major
    std::vector<double> epm;                       ///< rows x stride, row-major
    std::vector<ResourceId> executable;            ///< rows x stride slots
    std::vector<std::size_t> executable_count;     ///< used slots per row
    std::vector<std::vector<ScheduleItem>> blocks; ///< see PlanInstance::blocks()
    std::vector<double> blocked_time;              ///< see PlanInstance::blocked_time()
};

/// The full instance for one activation.
struct PlanInstance {
    const Platform* platform = nullptr;
    Time now = 0.0;
    Time window = 0.0; ///< K-bar = max_j t_left_j
    std::vector<PlanTask> tasks; ///< candidate and (if any) predicted are last
    std::size_t predicted_count = 0; ///< predicted tasks included (at the tail)

    [[nodiscard]] bool has_predicted() const noexcept { return predicted_count > 0; }

    /// Build from an activation context.  `predicted_count` selects how
    /// many of the context's predicted tasks (nearest first) join the
    /// instance as planning constraints — the Sec 4.1 fallback re-plans
    /// with 0; bool converts naturally (true = 1 predicted, false = none).
    /// The from-scratch reference: admission runs on BatchPlanner, and an
    /// RMWP_AUDIT build checks every assembled instance against this.
    [[nodiscard]] static PlanInstance build(const ArrivalContext& context,
                                            std::size_t predicted_count);

    /// Build a fault-rescue instance over `tasks` (a subset of the rescue
    /// context's survivors): no candidate, no predicted task, resource
    /// health applied (offline resources excluded from `executable`,
    /// throttled cpm inflated).  A task can legitimately end up with an
    /// empty executable set here — it cannot be rescued.
    [[nodiscard]] static PlanInstance build_rescue(const RescueContext& context,
                                                   std::span<const ActiveTask> tasks);

    /// Become a view of `parent` (which must outlive its use): the same
    /// platform, time and window, no tasks, and `parent`'s store.  The
    /// caller appends copies of parent tasks, which keep their rows.
    void view(const PlanInstance& parent);

    [[nodiscard]] std::size_t resource_count() const noexcept { return platform->size(); }

    /// The rows of tasks[j]: cpm_{j,i} / epm_{j,i} for every resource i
    /// (+inf where it cannot execute), and the resources it can execute on
    /// (respecting pinning), ascending.
    [[nodiscard]] std::span<const double> cpm(std::size_t j) const { return row(rows().cpm, j); }
    [[nodiscard]] std::span<const double> epm(std::size_t j) const { return row(rows().epm, j); }
    [[nodiscard]] std::span<const ResourceId> executable(std::size_t j) const {
        return row(rows().executable, j).first(rows().executable_count[tasks[j].row]);
    }
    /// Critical-reservation blocks intersecting the window, per resource.
    [[nodiscard]] std::span<const std::vector<ScheduleItem>> blocks() const {
        return rows().blocks;
    }
    /// Reserved time per resource within the window (capacity reduction).
    [[nodiscard]] std::span<const double> blocked_time() const { return rows().blocked_time; }

    /// ScheduleItem for assigning tasks[index] to resource i.
    [[nodiscard]] ScheduleItem item_for(std::size_t index, ResourceId i) const;

    /// Convert a per-task resource assignment into Decision assignments for
    /// the real tasks (predicted excluded).
    [[nodiscard]] std::vector<TaskAssignment> real_assignments(
        std::span<const ResourceId> mapping) const;

private:
    friend class BatchPlanner;

    [[nodiscard]] const PlanRows& rows() const noexcept {
        return viewed_ != nullptr ? *viewed_ : rows_;
    }
    template <typename T>
    [[nodiscard]] std::span<const T> row(const std::vector<T>& table, std::size_t j) const {
        return {table.data() + tasks[j].row * rows().stride, rows().stride};
    }

    // Builders of the owned store: size it for `count` tasks (keeping the
    // rows below; the store never shrinks), (re)fill tasks[j] and its row,
    // and fill the window's reservation data.
    void resize(std::size_t count);
    void fill_real(std::size_t j, const TaskType& type, const ActiveTask& task, bool is_candidate,
                   const PlatformHealth* health);
    void fill_predicted(std::size_t j, const TaskType& type, const PlatformHealth* health,
                        const PredictedTask& predicted, std::size_t step);
    void fill_blocks(const ReservationTable* reservations);

    PlanRows rows_;                    ///< the owned store; unused by a view
    const PlanRows* viewed_ = nullptr; ///< the parent's store, in a view
};

/// Shared planning state for one coalesced batch of same-instant arrivals:
/// the working active set (base) is materialised as plan tasks once, and
/// each item's ladder rungs only rewrite the candidate + predicted tail of
/// the pooled instance.  On admission the candidate folds into the base and
/// only rows whose task actually moved are recomputed — one plan rebuild
/// per batch instead of one per (item × rung).  Under RMWP_AUDIT every
/// assembled instance is compared field-by-field against a from-scratch
/// PlanInstance::build of the equivalent sequential context, proving the
/// incremental base never drifts.
class BatchPlanner {
public:
    /// Buffers (working set, pooled instance and its row store) live on a
    /// thread-local arena, so a steady stream of batches does no heap work
    /// beyond the Decision outputs (pinned by tests/test_alloc_count.cpp).
    /// Consequently at most one BatchPlanner may be live per thread — the
    /// one-per-decide_batch usage of the solver RMs.
    explicit BatchPlanner(const BatchArrivalContext& batch);

    [[nodiscard]] std::size_t item_count() const noexcept { return batch_->items.size(); }
    [[nodiscard]] std::size_t predicted_count(std::size_t m) const {
        return batch_->items[m].predicted.size();
    }

    /// Assemble the instance for item `m` at ladder rung `k` (that many
    /// predicted tasks included).  The reference is valid until the next
    /// assemble/admit call.
    [[nodiscard]] const PlanInstance& assemble(std::size_t m, std::size_t k);

    /// Fold item `m`, admitted with `mapping` over the last assembled
    /// instance, into the shared working set (mirroring the simulator's
    /// RM-visible apply) and return its Decision (used_prediction unset —
    /// the ladder fills it).
    [[nodiscard]] Decision admit(std::size_t m, std::span<const ResourceId> mapping);

private:
    static constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

    const BatchArrivalContext* batch_;
    std::vector<ActiveTask>& working_;  ///< active set incl. prior admissions
    std::size_t base_count_ = 0;        ///< prefix of instance_.tasks mirroring working_
    std::size_t candidate_for_ = kNoItem; ///< item whose candidate row is cached
    PlanInstance& instance_;
};

/// Reusable scratch arena for Algorithm 1: the per-task option lists,
/// per-resource schedule buffers, and the cached selection state of the
/// heuristic's outer loop (each task's regret and best option, and the
/// dirty list of tasks whose cache a placement invalidated).  Admission
/// runs thousands of times per trace; reset() reuses the buffers, so
/// steady-state admission does no heap work at all.  The knapsack state is
/// sized to the plan, not the platform: one Option per (task, executable
/// resource) pair, which is all the solver ever reads — a task confined to
/// one island of a 29-resource platform has its island's few options, not
/// a 29-cell matrix row.  Obtain via local(): the arena is thread-local by
/// design — the parallel experiment engine shares one RM object across
/// threads, so solver scratch must never live on the RM itself.
struct PlanScratch {
    /// One (task, executable resource) pair of the knapsack.
    struct Option {
        double f = 0.0;   ///< desirability f_{j,i}
        double cpm = 0.0; ///< weight cpm_{j,i}
        ResourceId resource = 0;
        ResourceId anchor = 0; ///< physical anchor of `resource`
        bool excluded = false; ///< tried and unschedulable
    };
    /// A task that has options on one physical anchor, with the smallest
    /// and largest of their cpm: the capacity-crossing invalidation index.
    struct AnchorUser {
        std::size_t task = 0;
        double min_cpm = 0.0;
        double max_cpm = 0.0;
    };

    // Knapsack state.  Task j's options are options[option_begin[j] ..
    // option_begin[j + 1]) in `executable` order — the order every
    // tie-break of the solver scans in.
    std::vector<Option> options;
    std::vector<std::size_t> option_begin; ///< count + 1 offsets
    std::vector<double> capacity;          ///< per physical resource
    std::vector<std::uint8_t> mapped;
    std::vector<ResourceId> mapping;
    std::vector<std::vector<ScheduleItem>> assigned; ///< per physical resource
    std::vector<ResourceId> phys; ///< resource id -> physical anchor id

    // Capacity-crossing invalidation index, grouped by physical anchor:
    // anchor a's users are users[user_begin[a] .. user_begin[a + 1]).
    // While the index is built, user_next[a] holds the last task counted
    // on a, then a's fill cursor.
    // user_max_cpm[a] is the largest option cpm on anchor a: a placement
    // that leaves capacity at or above it can dirty none of a's users.
    std::vector<AnchorUser> users;
    std::vector<std::size_t> user_begin; ///< n + 1 offsets
    std::vector<std::size_t> user_next;
    std::vector<double> user_max_cpm; ///< per physical anchor

    // Per-task selection cache.  A task's regret and best option read only
    // its exclusions and the tests cpm > capacity, so they stay valid until
    // one of its options is excluded or an anchor's capacity crosses one of
    // its cpm values there; such a task waits on `dirty` for its refresh.
    std::vector<double> regret;           ///< selection key; -inf once mapped
    std::vector<std::size_t> best_option; ///< first most desirable feasible
                                          ///< option, option_begin[j + 1] if none
    std::vector<std::size_t> dirty;       ///< unmapped tasks awaiting refresh

    /// Size every per-task buffer for the instance, empty the option lists
    /// and the invalidation index, and seed the per-resource schedule
    /// buffers from its reservation blocks.
    void reset(const PlanInstance& instance);

    /// Total heap footprint of the arena's buffers (capacities, not
    /// sizes).  Reported as the obs stage profile's high-water mark.
    [[nodiscard]] std::uint64_t footprint_bytes() const noexcept;

    /// The calling thread's arena.
    [[nodiscard]] static PlanScratch& local();
};

/// The driver every solver RM runs on: the Sec 4.1 admission ladder over
/// a BatchPlanner, the fault-rescue ladder, the proof tracking behind the
/// rejection reasons, and the sharded solve (DESIGN.md §15).  An RM
/// supplies only its solver.  With more than one shard configured, a
/// decomposing solver and a batch that splits into more than one
/// resource-group bucket, every admission rung runs on the thread's
/// ShardedSolver, which calls `solve` once per bucket.
class LadderRM : public ResourceManager {
public:
    /// What a solve serves: an arrival's admission ladder, or a fault
    /// rescue (where ExactRM tightens its node budget).
    enum class Purpose : std::uint8_t { admit, rescue };

    /// Admission over the shared BatchPlanner base: for each item, try the
    /// plan with all its predicted tasks, trimming the furthest prediction
    /// on failure (nearest predictions are the most reliable), down to the
    /// prediction-free plan; reject with `rejection` only when even that
    /// fails.  One plan rebuild per batch, bit-identical decisions to
    /// deciding the items one at a time and at any shard count.
    void decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) final;

    /// Re-plan the complete surviving set on the healthy capacity; while
    /// that fails, shed the most constraining task (largest best-case load
    /// relative to its remaining slack) and retry.  Tasks with no feasible
    /// resource at all are shed first.
    [[nodiscard]] RescueDecision rescue(const RescueContext& context) final;

    /// Map every task of `instance` to a resource (indexed like
    /// instance.tasks), or nullopt when the solver found no feasible
    /// mapping.  The span views this thread's solver scratch and is valid
    /// until the next solve on the same thread.  A failure that does not
    /// prove infeasibility clears `proven`; nothing else touches it, so one
    /// flag ANDs the proofs of several solves.
    [[nodiscard]] virtual std::optional<std::span<const ResourceId>> solve(
        const PlanInstance& instance, Purpose purpose, bool& proven) const = 0;

private:
    /// The reason for a rejected candidate; `proven` is the AND of every
    /// failed rung's (and, sharded, every failed bucket's) proof.
    [[nodiscard]] virtual RejectReason rejection(bool proven) const = 0;

    /// Whether per-resource-group sub-solves merge bit-identically into
    /// the whole-instance solve — the condition for sharding.
    [[nodiscard]] virtual bool decomposes() const noexcept = 0;
};

} // namespace rmwp
