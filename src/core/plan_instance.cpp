#include "core/plan_instance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/edf.hpp"
#include "core/reservation.hpp"
#include "core/shard.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

/// Size `per_anchor` to `n` empty lists, keeping every list's capacity.
void reset_per_anchor(std::vector<std::vector<ScheduleItem>>& per_anchor, std::size_t n) {
    per_anchor.resize(n);
    for (auto& blocks : per_anchor) blocks.clear();
}

/// Append every resource's blocks intersecting [from, until) to its
/// physical anchor's list in `blocks`, adding their durations to the
/// anchor's `blocked_time` in generation order.
void expand_blocks(const Platform& platform, const ReservationTable& reservations, Time from,
                   Time until, std::vector<std::vector<ScheduleItem>>& blocks,
                   std::vector<double>& blocked_time) {
    for (ResourceId i = 0; i < platform.size(); ++i) {
        const ResourceId anchor = platform.resource(i).physical();
        const std::size_t first = blocks[anchor].size();
        reservations.blocks_for(i, from, until, blocks[anchor]);
        for (std::size_t b = first; b < blocks[anchor].size(); ++b)
            blocked_time[anchor] += blocks[anchor][b].duration;
    }
}

/// Fill row j of `rows` for a task of `type`: every cell +inf, then each
/// executable resource that `allowed` accepts and that is online gets its
/// cpm and epm from `cost` and is listed, in the type's ascending order —
/// the order a dense scan over all resources produces.
template <typename Allowed, typename Cost>
void fill_row(PlanRows& rows, std::size_t j, const TaskType& type, const PlatformHealth* health,
              Allowed allowed, Cost cost) {
    const std::size_t n = rows.stride;
    RMWP_EXPECT(type.resource_count() == n);
    double* const cpm = rows.cpm.data() + j * n;
    double* const epm = rows.epm.data() + j * n;
    ResourceId* const executable = rows.executable.data() + j * n;
    std::fill_n(cpm, n, std::numeric_limits<double>::infinity());
    std::fill_n(epm, n, std::numeric_limits<double>::infinity());
    std::size_t count = 0;
    for (const ResourceId i : type.executable_resources()) {
        if (!allowed(i)) continue;
        if (health != nullptr && !health->online(i)) continue; // offline = infeasible
        cost(i, cpm[i], epm[i]);
        executable[count++] = i;
    }
    rows.executable_count[j] = count;
    // Under a degraded platform a task can have no feasible resource left
    // (e.g. an accelerator-only candidate while the accelerator is offline);
    // solvers treat it as immediately unsatisfiable and the ladder rejects
    // (admission) or aborts it (rescue).  On a healthy platform every task
    // has at least one executable resource by construction.
    RMWP_ENSURE(health != nullptr || count > 0);
}

} // namespace

void PlanInstance::resize(std::size_t count) {
    RMWP_EXPECT(viewed_ == nullptr);
    const std::size_t n = platform->size();
    tasks.resize(count);
    rows_.stride = n;
    // The store only grows: rows past `count` are never read, and the
    // rung-to-rung regrowth would otherwise zero rows the fill overwrites.
    rows_.cpm.resize(std::max(rows_.cpm.size(), count * n));
    rows_.epm.resize(std::max(rows_.epm.size(), count * n));
    rows_.executable.resize(std::max(rows_.executable.size(), count * n));
    rows_.executable_count.resize(std::max(rows_.executable_count.size(), count));
}

void PlanInstance::fill_real(std::size_t j, const TaskType& type, const ActiveTask& task,
                             bool is_candidate, const PlatformHealth* health) {
    RMWP_EXPECT(viewed_ == nullptr && j < tasks.size());
    tasks[j] = {.uid = task.uid, .release = now, .abs_deadline = task.absolute_deadline,
                .pinned = task.pinned, .pinned_resource = task.resource,
                .is_candidate = is_candidate, .row = j};
    fill_row(
        rows_, j, type, health, [&](ResourceId i) { return !task.pinned || i == task.resource; },
        [&](ResourceId i, double& cpm, double& epm) {
            cpm = occupied_time(task, type, i);
            if (health != nullptr)
                cpm += (health->throttle(i) - 1.0) * remaining_time(task, type, i);
            epm = assignment_energy(task, type, i);
        });
}

void PlanInstance::fill_predicted(std::size_t j, const TaskType& type,
                                  const PlatformHealth* health, const PredictedTask& predicted,
                                  std::size_t step) {
    RMWP_EXPECT(viewed_ == nullptr && j < tasks.size());
    tasks[j] = {.uid = kPredictedUidBase + step, .release = std::max(predicted.arrival, now),
                .abs_deadline = predicted.absolute_deadline(), .is_predicted = true, .row = j};
    fill_row(rows_, j, type, health, [](ResourceId) { return true; },
             [&](ResourceId i, double& cpm, double& epm) {
                 cpm = health != nullptr ? type.wcet(i) * health->throttle(i) : type.wcet(i);
                 epm = type.energy(i);
             });
}

/// Reservation blocks intersecting [now, now + window), grouped per
/// physical core (reservations occupy the core whatever operating point
/// other work uses), plus the per-core blocked-time capacity reduction.
///
/// Memoised at two levels.  The raw expansion is computed once per
/// (table, now) at the largest window seen — blocks_for never clips a
/// block's duration at the far end, so any narrower window's block set is
/// the exact generation-order subsequence with release < now + window, and
/// the blocked-time float sums (accumulated in generation order) come out
/// bit-identical to a direct query.  The derived per-window set is then
/// cached for the admission ladder's rungs, which almost always share one
/// window.  The key uses the table's revision (process-unique, contents
/// immutable), never its address, so recycled allocations cannot alias.
void PlanInstance::fill_blocks(const ReservationTable* reservations) {
    RMWP_EXPECT(viewed_ == nullptr);
    const std::size_t n = platform->size();
    rows_.blocked_time.assign(n, 0.0);
    if (reservations == nullptr || reservations->empty()) {
        // The instance may be pooled: drop any stale blocks of a previous
        // activation that did have reservations.
        reset_per_anchor(rows_.blocks, n);
        return;
    }

    struct BlockCache {
        std::uint64_t revision = 0;
        Time now = -1.0;
        std::size_t resources = 0;
        // Raw expansion at `horizon`, per anchor, in generation order.
        Time horizon = -1.0;
        std::vector<std::vector<ScheduleItem>> raw;
        // Derived (filtered + dispatch-sorted) set for `window`.
        Time window = -1.0;
        std::vector<std::vector<ScheduleItem>> blocks;
        std::vector<double> blocked_time;
    };
    thread_local BlockCache cache;

    const bool base_hit = cache.revision == reservations->revision() &&
                          cache.now == now && cache.resources == n;
    if (!base_hit || window > cache.horizon) {
        RMWP_STAGE_SCOPE(obs::Stage::sorted_refresh);
        cache.revision = reservations->revision();
        cache.now = now;
        cache.resources = n;
        cache.horizon = window;
        reset_per_anchor(cache.raw, n);
        for (ResourceId i = 0; i < n; ++i)
            reservations->blocks_for(i, now, now + window,
                                     cache.raw[platform->resource(i).physical()]);
        cache.window = -2.0; // invalidate the derived level
    }

    if (cache.window != window) {
        RMWP_STAGE_SCOPE(obs::Stage::sorted_refresh);
        cache.window = window;
        reset_per_anchor(cache.blocks, n);
        cache.blocked_time.assign(n, 0.0);
        if (window <= 0.0) {
            // Degenerate window: `release` collapses start==now with
            // start<now, which decide inclusion at width zero differently —
            // fall back to a direct query (cold: real admissions always
            // have a positive window).
            expand_blocks(*platform, *reservations, now,
                          now + window, cache.blocks, cache.blocked_time);
        } else {
            // A block intersects [now, now + window) iff it starts before
            // the window end; for positive windows that is exactly
            // release < now + window (an in-progress block has
            // release == now < end).
            const Time until = now + window;
            for (ResourceId anchor = 0; anchor < n; ++anchor) {
                for (const ScheduleItem& block : cache.raw[anchor]) {
                    if (block.release >= until) continue;
                    cache.blocked_time[anchor] += block.duration;
                    cache.blocks[anchor].push_back(block);
                }
            }
        }
#ifdef RMWP_AUDIT
        // Drift gate for the superset-filter shortcut: a direct expansion
        // at this exact window must agree block-for-block and bit-for-bit
        // on the accumulated blocked time.
        {
            std::vector<std::vector<ScheduleItem>> direct(n);
            std::vector<double> direct_time(n, 0.0);
            expand_blocks(*platform, *reservations, now,
                          now + window, direct, direct_time);
            for (ResourceId anchor = 0; anchor < n; ++anchor) {
                RMWP_ENSURE(direct_time[anchor] == cache.blocked_time[anchor]);
                RMWP_ENSURE(direct[anchor].size() == cache.blocks[anchor].size());
                for (std::size_t b = 0; b < direct[anchor].size(); ++b) {
                    RMWP_ENSURE(direct[anchor][b].uid == cache.blocks[anchor][b].uid);
                    RMWP_ENSURE(direct[anchor][b].release == cache.blocks[anchor][b].release);
                    RMWP_ENSURE(direct[anchor][b].duration == cache.blocks[anchor][b].duration);
                }
            }
        }
#endif
        // Dispatch order (release time): keeps every consumer — solver
        // probes, the demand prefilter's deadline scan — from re-ordering
        // the same immovable windows on every probe.
        for (auto& anchor_blocks : cache.blocks)
            std::sort(anchor_blocks.begin(), anchor_blocks.end(),
                      [](const ScheduleItem& a, const ScheduleItem& b) {
                          return a.release != b.release ? a.release < b.release
                                                        : a.uid < b.uid;
                      });
    }
    rows_.blocks = cache.blocks;
    rows_.blocked_time = cache.blocked_time;
}

void PlanInstance::view(const PlanInstance& parent) {
    // Viewing itself would leave a self-pointer that a copy dangles.
    RMWP_EXPECT(&parent != this && parent.platform != nullptr);
    platform = parent.platform;
    now = parent.now;
    window = parent.window;
    tasks.clear();
    predicted_count = 0;
    viewed_ = &parent.rows();
}

PlanInstance PlanInstance::build(const ArrivalContext& context, std::size_t predicted_count) {
    RMWP_EXPECT(context.platform != nullptr);
    RMWP_EXPECT(context.catalog != nullptr);

    PlanInstance instance;
    instance.platform = context.platform;
    instance.now = context.now;
    instance.predicted_count = std::min(predicted_count, context.predicted.size());
    instance.window = planning_window(context, instance.predicted_count);

    const std::size_t count = context.active.size() + 1 + instance.predicted_count;
    instance.resize(count);
    std::size_t j = 0;
    for (const ActiveTask& task : context.active)
        instance.fill_real(j++, context.type_of(task), task, /*is_candidate=*/false,
                           context.health);
    instance.fill_real(j++, context.type_of(context.candidate), context.candidate,
                       /*is_candidate=*/true, context.health);
    for (std::size_t k = 0; k < instance.predicted_count; ++k)
        instance.fill_predicted(j++, context.catalog->type(context.predicted[k].type),
                                context.health, context.predicted[k], k);

    instance.fill_blocks(context.reservations);
    // Instance-shape invariant every solver relies on: active tasks first,
    // then the candidate, then the predicted tail; window covers all of it.
    RMWP_ENSURE(instance.tasks.size() == count);
    RMWP_ENSURE(instance.window >= 0.0);
    return instance;
}

PlanInstance PlanInstance::build_rescue(const RescueContext& context,
                                        std::span<const ActiveTask> tasks) {
    RMWP_EXPECT(context.platform != nullptr);
    RMWP_EXPECT(context.catalog != nullptr);

    PlanInstance instance;
    instance.platform = context.platform;
    instance.now = context.now;
    instance.window = 0.0;
    for (const ActiveTask& task : tasks)
        instance.window = std::max(instance.window, task.absolute_deadline - context.now);

    instance.resize(tasks.size());
    for (std::size_t j = 0; j < tasks.size(); ++j)
        instance.fill_real(j, context.type_of(tasks[j]), tasks[j], /*is_candidate=*/false,
                           context.health);

    instance.fill_blocks(context.reservations);
    return instance;
}

namespace {

/// Thread-local backing store for BatchPlanner (see the class comment):
/// the working active set and the pooled instance with its row store
/// survive across batches, so their capacities are reused.
thread_local std::vector<ActiveTask> batch_working;
thread_local PlanInstance batch_instance;

} // namespace

BatchPlanner::BatchPlanner(const BatchArrivalContext& batch)
    : batch_(&batch), working_(batch_working), instance_(batch_instance) {
    RMWP_EXPECT(batch.platform != nullptr);
    RMWP_EXPECT(batch.catalog != nullptr);
    working_.assign(batch.active.begin(), batch.active.end());
    base_count_ = working_.size();
    instance_.platform = batch.platform;
    instance_.now = batch.now;
    instance_.resize(base_count_);
    for (std::size_t j = 0; j < base_count_; ++j)
        instance_.fill_real(j, batch.type_of(working_[j]), working_[j], /*is_candidate=*/false,
                            batch.health);
}

const PlanInstance& BatchPlanner::assemble(std::size_t m, std::size_t k) {
    RMWP_STAGE_SCOPE(obs::Stage::batch_assemble);
    RMWP_EXPECT(m < batch_->items.size());
    const BatchItem& item = batch_->items[m];
    RMWP_EXPECT(k <= item.predicted.size());

    const std::size_t count = base_count_ + 1 + k;
    instance_.resize(count);
    if (candidate_for_ != m) {
        instance_.fill_real(base_count_, batch_->type_of(item.candidate), item.candidate,
                            /*is_candidate=*/true, batch_->health);
        candidate_for_ = m;
    }
    for (std::size_t p = 0; p < k; ++p)
        instance_.fill_predicted(base_count_ + 1 + p, batch_->catalog->type(item.predicted[p].type),
                                 batch_->health, item.predicted[p], p);
    instance_.predicted_count = k;

    // K-bar over exactly the included tasks — the same max planning_window
    // computes on the equivalent sequential context (max is exact, so the
    // accumulation order cannot matter).
    Time latest = item.candidate.absolute_deadline;
    for (const ActiveTask& task : working_) latest = std::max(latest, task.absolute_deadline);
    for (std::size_t p = 0; p < k; ++p)
        latest = std::max(latest, item.predicted[p].absolute_deadline());
    RMWP_ENSURE(latest >= batch_->now);
    instance_.window = latest - batch_->now;

    instance_.fill_blocks(batch_->reservations);
    RMWP_ENSURE(instance_.tasks.size() == count);

#ifdef RMWP_AUDIT
    // The incremental-base drift gate: a from-scratch build of the
    // equivalent sequential context must agree on every field and on
    // every task's whole row.
    {
        ArrivalContext reference;
        reference.now = batch_->now;
        reference.platform = batch_->platform;
        reference.catalog = batch_->catalog;
        reference.active = working_;
        reference.candidate = item.candidate;
        reference.predicted.assign(item.predicted.begin(), item.predicted.end());
        reference.reservations = batch_->reservations;
        reference.health = batch_->health;
        const PlanInstance rebuilt = PlanInstance::build(reference, k);
        RMWP_ENSURE(rebuilt.window == instance_.window);
        RMWP_ENSURE(rebuilt.predicted_count == instance_.predicted_count);
        RMWP_ENSURE(rebuilt.tasks.size() == instance_.tasks.size());
        for (std::size_t j = 0; j < rebuilt.tasks.size(); ++j) {
            const PlanTask& a = rebuilt.tasks[j];
            const PlanTask& b = instance_.tasks[j];
            RMWP_ENSURE(a.uid == b.uid && a.row == b.row);
            RMWP_ENSURE(a.release == b.release && a.abs_deadline == b.abs_deadline);
            RMWP_ENSURE(a.pinned == b.pinned && a.pinned_resource == b.pinned_resource);
            RMWP_ENSURE(a.is_predicted == b.is_predicted && a.is_candidate == b.is_candidate);
            RMWP_ENSURE(std::ranges::equal(rebuilt.cpm(j), instance_.cpm(j)));
            RMWP_ENSURE(std::ranges::equal(rebuilt.epm(j), instance_.epm(j)));
            RMWP_ENSURE(std::ranges::equal(rebuilt.executable(j), instance_.executable(j)));
        }
        RMWP_ENSURE(std::ranges::equal(rebuilt.blocked_time(), instance_.blocked_time()));
    }
#endif
    return instance_;
}

Decision BatchPlanner::admit(std::size_t m, std::span<const ResourceId> mapping) {
    // admit() must follow an assemble() of the same item: the pooled
    // instance still holds that item's rung.
    RMWP_EXPECT(candidate_for_ == m);
    const ActiveTask& candidate = batch_->items[m].candidate;

    Decision decision;
    decision.admitted = true;
    decision.assignments = instance_.real_assignments(mapping);

    // Fold the admission into the shared working set, mirroring the
    // simulator's RM-visible apply() (SimEngine::apply), and
    // refresh exactly the base rows whose task moved.
    const Catalog& catalog = *batch_->catalog;
    for (std::size_t k = 0; k < decision.assignments.size(); ++k) {
        const TaskAssignment& assignment = decision.assignments[k];
        if (assignment.uid == candidate.uid) {
            ActiveTask admitted = candidate;
            admitted.resource = assignment.resource;
            working_.push_back(admitted);
            continue;
        }
        ActiveTask* found =
            find_assigned(std::span(working_.data(), base_count_), k, assignment.uid);
        RMWP_ENSURE(found != nullptr);
        const std::size_t j = static_cast<std::size_t>(found - working_.data());
        ActiveTask& task = *found;
        if (assignment.resource == task.resource) continue;
        RMWP_ENSURE(!task.pinned); // non-preemptable tasks never move
        if (task.started)
            task.pending_overhead =
                catalog.type(task.type).migration_time(task.resource, assignment.resource);
        task.resource = assignment.resource;
        instance_.fill_real(j, batch_->type_of(task), task, /*is_candidate=*/false,
                            batch_->health);
    }
    RMWP_ENSURE(working_.size() == base_count_ + 1);

    // The admitted candidate joins the base: its row is recomputed as a
    // plain active task (resource now set, is_candidate cleared).
    instance_.fill_real(base_count_, batch_->type_of(working_.back()), working_.back(),
                        /*is_candidate=*/false, batch_->health);
    ++base_count_;
    candidate_for_ = kNoItem;
    return decision;
}

ScheduleItem PlanInstance::item_for(std::size_t index, ResourceId i) const {
    RMWP_EXPECT(index < tasks.size() && i < resource_count());
    RMWP_EXPECT(std::isfinite(cpm(index)[i]));
    const PlanTask& task = tasks[index];
    ScheduleItem item;
    item.uid = task.uid;
    item.resource = i;
    item.release = task.release;
    item.abs_deadline = task.abs_deadline;
    item.duration = cpm(index)[i];
    item.pinned_first = task.pinned && i == task.pinned_resource;
    return item;
}

void PlanScratch::reset(const PlanInstance& instance) {
    const std::size_t n = instance.resource_count();
    const std::size_t count = instance.tasks.size();
    RMWP_EXPECT(instance.blocks().size() == n);
    constexpr double kInfinity = std::numeric_limits<double>::infinity();

    std::size_t option_count = 0;
    for (std::size_t j = 0; j < count; ++j) option_count += instance.executable(j).size();
    options.clear();
    options.reserve(option_count);
    option_begin.assign(count + 1, 0);
    user_begin.assign(n + 1, 0);
    user_next.assign(n, count); // no task counted on any anchor yet
    user_max_cpm.assign(n, -kInfinity);
    capacity.assign(n, 0.0);
    mapped.assign(count, 0);
    mapping.assign(count, 0);
    regret.assign(count, -kInfinity);
    best_option.assign(count, 0);
    // One placement dirties each unmapped task at most once.
    dirty.clear();
    dirty.reserve(count);

    // The physical anchor of each resource is immutable platform data; the
    // solver's option pass reads it once per option — resolve the
    // indirection once per reset.
    phys.resize(n);
    for (ResourceId i = 0; i < n; ++i) phys[i] = instance.platform->resource(i).physical();

    if (assigned.size() < n) assigned.resize(n);
    for (ResourceId i = 0; i < n; ++i) {
        assigned[i].clear();
        assigned[i].insert(assigned[i].end(), instance.blocks()[i].begin(),
                           instance.blocks()[i].end());
        // Demand order once per reset, so the solver's probe loop can keep
        // the list incrementally sorted (insert_demand_ordered) and skip
        // the prefilter's per-probe sort.
        std::sort(assigned[i].begin(), assigned[i].end(), demand_order);
    }

    RMWP_STAGE_ARENA_BYTES(footprint_bytes());
}

std::uint64_t PlanScratch::footprint_bytes() const noexcept {
    std::uint64_t bytes = options.capacity() * sizeof(Option) +
                          option_begin.capacity() * sizeof(std::size_t) +
                          capacity.capacity() * sizeof(double) + mapped.capacity() +
                          mapping.capacity() * sizeof(ResourceId) +
                          phys.capacity() * sizeof(ResourceId) +
                          regret.capacity() * sizeof(double) +
                          best_option.capacity() * sizeof(std::size_t) +
                          dirty.capacity() * sizeof(std::size_t) +
                          assigned.capacity() * sizeof(std::vector<ScheduleItem>) +
                          users.capacity() * sizeof(AnchorUser) +
                          user_begin.capacity() * sizeof(std::size_t) +
                          user_next.capacity() * sizeof(std::size_t) +
                          user_max_cpm.capacity() * sizeof(double);
    for (const auto& schedule : assigned) bytes += schedule.capacity() * sizeof(ScheduleItem);
    return bytes;
}

PlanScratch& PlanScratch::local() {
    static thread_local PlanScratch scratch;
    return scratch;
}

std::vector<TaskAssignment> PlanInstance::real_assignments(
    std::span<const ResourceId> mapping) const {
    RMWP_EXPECT(mapping.size() == tasks.size());
    std::vector<TaskAssignment> assignments;
    assignments.reserve(tasks.size());
    for (std::size_t j = 0; j < tasks.size(); ++j) {
        if (tasks[j].is_predicted) continue;
        assignments.push_back(TaskAssignment{tasks[j].uid, mapping[j]});
    }
    return assignments;
}

namespace {

/// The Sec 4.1 admission ladder for item `m` (see LadderRM::decide_batch);
/// an admission folds back into the batch's shared base.
template <typename Solver>
Decision run_admission_ladder_batch(BatchPlanner& planner, std::size_t m, Solver&& solve) {
    for (std::size_t k = planner.predicted_count(m) + 1; k-- > 0;) {
        const PlanInstance& instance = planner.assemble(m, k);
        if (const auto mapping = solve(instance)) {
            Decision decision = planner.admit(m, *mapping);
            decision.used_prediction = k > 0;
            return decision;
        }
    }
    return Decision{}; // reject; the previous mapping stays in force
}

/// The fault-rescue ladder (see LadderRM::rescue).  Terminates because
/// every retry plans one task fewer, and the empty set is trivially
/// feasible.
RescueDecision run_rescue_ladder(const RescueContext& context, const LadderRM& rm) {
    RescueDecision decision;
    std::vector<ActiveTask> keep(context.active.begin(), context.active.end());
    while (!keep.empty()) {
        const PlanInstance instance = PlanInstance::build_rescue(context, keep);

        bool shed_unsavable = false;
        for (std::size_t j = keep.size(); j-- > 0;) {
            if (!instance.executable(j).empty()) continue;
            decision.aborted.push_back(keep[j].uid);
            keep.erase(keep.begin() + static_cast<std::ptrdiff_t>(j));
            shed_unsavable = true;
        }
        if (shed_unsavable) continue;

        bool proven = true; // a rescue sheds a victim either way
        if (const auto mapping = rm.solve(instance, LadderRM::Purpose::rescue, proven)) {
            decision.kept = instance.real_assignments(*mapping);
            return decision;
        }

        std::size_t victim = 0;
        double worst = -1.0;
        for (std::size_t j = 0; j < keep.size(); ++j) {
            const PlanTask& task = instance.tasks[j];
            const auto cpm = instance.cpm(j);
            double cheapest = cpm[instance.executable(j).front()];
            for (const ResourceId i : instance.executable(j)) cheapest = std::min(cheapest, cpm[i]);
            const double slack = std::max(task.time_left(context.now), 1e-9);
            const double ratio = cheapest / slack;
            const bool better =
                ratio > worst ||
                (ratio == worst && task.abs_deadline > instance.tasks[victim].abs_deadline) ||
                (ratio == worst && task.abs_deadline == instance.tasks[victim].abs_deadline &&
                 task.uid > instance.tasks[victim].uid);
            if (better) {
                worst = ratio;
                victim = j;
            }
        }
        decision.aborted.push_back(keep[victim].uid);
        keep.erase(keep.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    return decision;
}

} // namespace

void LadderRM::decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) {
    RMWP_EXPECT(batch.platform != nullptr && batch.catalog != nullptr);
    std::size_t shards = decomposes() ? shard_config().shards : 1;
    BatchPlanner planner(batch);
    ShardedSolver& sharded = ShardedSolver::local();
    // The cross-item cache keys on bucket versions begun here: buckets no
    // admission touches keep their solved verdict across the whole batch.
    // A catalog that forms one resource group leaves one bucket, whose
    // sub-instance would only copy the whole instance: solve it directly.
    if (shards > 1 && sharded.begin_batch(batch, shards) == 1) shards = 1;
    out.clear();
    out.reserve(batch.items.size());
    for (std::size_t m = 0; m < planner.item_count(); ++m) {
        // Whether every failed rung proved its infeasibility: only then is
        // a rejection a proof rather than a solver giving up.
        bool proven = true;
        Decision decision =
            run_admission_ladder_batch(planner, m, [&](const PlanInstance& instance) {
                return shards > 1 ? sharded.run(instance, *this, proven)
                                  : solve(instance, Purpose::admit, proven);
            });
        if (!decision.admitted) decision.reason = rejection(proven);
        else if (shards > 1) sharded.note_admission(decision, batch.items[m].candidate);
        out.push_back(std::move(decision));
    }
    RMWP_ENSURE(out.size() == batch.items.size());
}

RescueDecision LadderRM::rescue(const RescueContext& context) {
    RMWP_EXPECT(context.platform != nullptr && context.catalog != nullptr);
    return run_rescue_ladder(context, *this);
}

} // namespace rmwp
