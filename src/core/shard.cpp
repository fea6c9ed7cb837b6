#include "core/shard.hpp"

#include <algorithm>

#include "obs/stage_timer.hpp"
#include "util/check.hpp"
#include "workload/catalog.hpp"

namespace rmwp {
namespace {

constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

} // namespace

std::size_t ShardPartition::find(std::size_t i) {
    RMWP_EXPECT(i < parent_.size());
    // Path halving: every probed node re-points to its grandparent.
    while (parent_[i] != i) {
        parent_[i] = parent_[parent_[i]];
        i = parent_[i];
    }
    return i;
}

void ShardPartition::join(std::size_t a, std::size_t b) {
    RMWP_EXPECT(a < parent_.size() && b < parent_.size());
    a = find(a);
    b = find(b);
    if (a == b) return;
    // The smaller root wins, so every component's representative is its
    // smallest resource id — the dense numbering below leans on that to be
    // a pure function of the inputs.
    if (b < a) std::swap(a, b);
    parent_[b] = a;
}

void ShardPartition::rebuild(const Platform& platform, const Catalog& catalog) {
    RMWP_EXPECT(platform.size() > 0);
    const std::size_t n = platform.size();
    parent_.resize(n);
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
    // Operating points contend with their physical core whatever the
    // catalog says; types join every resource they can execute on.
    for (const Resource& resource : platform.resources()) join(resource.id(), resource.physical());
    for (TaskTypeId t = 0; t < catalog.size(); ++t) {
        const auto& resources = catalog.type(t).executable_resources();
        for (std::size_t k = 1; k < resources.size(); ++k) join(resources[0], resources[k]);
    }
    group_of_.assign(n, kNoGroup);
    group_count_ = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t root = find(i);
        if (group_of_[root] == kNoGroup) group_of_[root] = group_count_++;
        group_of_[i] = group_of_[root];
    }
    RMWP_ENSURE(group_count_ >= 1 && group_count_ <= n);
}

std::size_t ShardedSolver::begin_batch(const BatchArrivalContext& batch, std::size_t shards) {
    RMWP_EXPECT(batch.platform != nullptr && batch.catalog != nullptr);
    partition_.rebuild(*batch.platform, *batch.catalog);
    catalog_ = batch.catalog;
    shards_ = shards;
    const std::size_t count = partition_.bucket_count(shards);
    // Never shrink: bucket slots own pooled task lists and result buffers
    // whose capacity must survive alternating platform sizes on one thread.
    if (buckets_.size() < count) buckets_.resize(count);
    for (std::size_t b = 0; b < count; ++b) {
        Bucket& bucket = buckets_[b];
        bucket.version = 1;
        bucket.cache_cursor = 0;
        for (CacheEntry& entry : bucket.cache) entry.valid = false;
    }
    tracked_.clear();
    for (const ActiveTask& task : batch.active)
        tracked_.push_back({task.uid, task.resource,
                            partition_.bucket_of(catalog_->type(task.type).executable_resources(),
                                                 shards)});
    RMWP_ENSURE(tracked_.size() == batch.active.size());
    return count;
}

void ShardedSolver::note_admission(const Decision& decision, const ActiveTask& candidate) {
    RMWP_EXPECT(decision.admitted);
    RMWP_EXPECT(catalog_ != nullptr);
    bool moved = false;
    std::size_t candidate_bucket = buckets_.size();
    for (std::size_t k = 0; k < decision.assignments.size(); ++k) {
        const TaskAssignment& assignment = decision.assignments[k];
        // tracked_ mirrors the working set the instance was built over.
        Tracked* found = find_assigned(std::span(tracked_), k, assignment.uid);
        if (found == nullptr) {
            // First sighting: this is the admitted candidate joining the
            // working set — its bucket gains a task.
            RMWP_ENSURE(assignment.uid == candidate.uid);
            const std::size_t b = partition_.bucket_of(
                catalog_->type(candidate.type).executable_resources(), shards_);
            tracked_.push_back({assignment.uid, assignment.resource, b});
            if (b < buckets_.size()) ++buckets_[b].version;
            candidate_bucket = b;
        } else if (found->resource != assignment.resource) {
            // Moved by this admission (and, when started, charged a
            // migration overhead): its bucket's cached solves are stale.
            found->resource = assignment.resource;
            if (found->bucket < buckets_.size()) ++buckets_[found->bucket].version;
            moved = true;
        }
    }

    // Write-through (DESIGN.md §15 has the proof).  With no task moved, the
    // candidate's bucket next holds the tasks just solved, in the same
    // order and with equal rows: an unstarted candidate's row is its row
    // as an active task.  A predicted task would be absent next time, so
    // such a solve is not stored; a later item with another window misses.
    if (moved || candidate_bucket >= partition_.bucket_count(shards_)) return;
    Bucket& bucket = buckets_[candidate_bucket];
    if (bucket.sub.predicted_count == 0 && !bucket.sub.tasks.empty() &&
        bucket.sub.tasks.back().uid == candidate.uid)
        store(bucket, run_window_);
}

void ShardedSolver::store(Bucket& bucket, double window) {
    RMWP_EXPECT(!bucket.ok || bucket.mapping.size() == bucket.sub.tasks.size());
    CacheEntry& entry = bucket.cache[bucket.cache_cursor];
    bucket.cache_cursor = (bucket.cache_cursor + 1) % kCacheWays;
    entry.valid = true;
    entry.ok = bucket.ok;
    entry.proven = bucket.proven;
    entry.version = bucket.version;
    entry.window = window;
    entry.mapping.assign(bucket.mapping.begin(), bucket.mapping.end());
}

std::optional<std::span<const ResourceId>> ShardedSolver::run(const PlanInstance& instance,
                                                              const LadderRM& rm, bool& proven) {
    RMWP_EXPECT(instance.platform != nullptr);
    RMWP_EXPECT(!instance.tasks.empty());
    RMWP_EXPECT(instance.tasks.size() >= 1 + instance.predicted_count);
    const std::size_t bucket_count = partition_.bucket_count(shards_);
    RMWP_EXPECT(bucket_count <= buckets_.size()); // sized by begin_batch

    // 1. Partition the instance's tasks into the buckets' sub-instances,
    // marking those holding this item's candidate / predicted tail (their
    // state is item-specific, so they are never served from or stored to
    // the cross-item cache).  A sub-instance views the instance, *global*
    // window included: capacities and every demand-bound test must see the
    // horizon the sequential solve saw, and other buckets' tasks, absent,
    // have no finite WCET on its resources.  The instance is whole, so a
    // copied task's row is its index there.
    const std::size_t count = instance.tasks.size();
    const std::size_t item_local_from = count - 1 - instance.predicted_count;
    for (std::size_t b = 0; b < bucket_count; ++b) {
        buckets_[b].sub.view(instance);
        buckets_[b].item_local = false;
    }
    for (std::size_t i = 0; i < count; ++i) {
        RMWP_EXPECT(instance.tasks[i].row == i);
        const std::size_t b = partition_.bucket_of(instance.executable(i), shards_);
        RMWP_EXPECT(b < bucket_count);
        Bucket& bucket = buckets_[b];
        bucket.sub.tasks.push_back(instance.tasks[i]);
        if (instance.tasks[i].is_predicted) ++bucket.sub.predicted_count;
        if (i >= item_local_from) bucket.item_local = true;
    }

    // 2. Serve what the cache can; queue the rest for a fresh solve.
    pending_.clear();
    for (std::size_t b = 0; b < bucket_count; ++b) {
        Bucket& bucket = buckets_[b];
        if (bucket.sub.tasks.empty()) {
            bucket.ok = true;
            bucket.proven = true;
            bucket.mapping.clear();
            continue;
        }
        if (!bucket.item_local) {
            bool hit = false;
            for (CacheEntry& entry : bucket.cache) {
                if (entry.valid && entry.version == bucket.version &&
                    entry.window == instance.window) {
                    bucket.ok = entry.ok;
                    bucket.proven = entry.proven;
                    bucket.mapping.assign(entry.mapping.begin(), entry.mapping.end());
                    hit = true;
                    break;
                }
            }
            if (hit) continue;
        }
        pending_.push_back(b);
    }

    // 3. Solve the pending sub-instances in bucket order.
    {
        RMWP_STAGE_SCOPE(obs::Stage::shard_solve);
        for (const std::size_t b : pending_) {
            Bucket& bucket = buckets_[b];
            bucket.proven = true;
            const auto mapping = rm.solve(bucket.sub, LadderRM::Purpose::admit, bucket.proven);
            bucket.ok = mapping.has_value();
            // The span views the RM's scratch — copy out before the next
            // bucket's solve reuses it.  Assign, not move: the slot's
            // capacity is part of the allocation-free steady state.
            if (bucket.ok) bucket.mapping.assign(mapping->begin(), mapping->end());
        }
    }
    for (const std::size_t b : pending_)
        if (!buckets_[b].item_local) store(buckets_[b], instance.window);
    run_window_ = instance.window;

    // 4. Verdict: the instance is feasible iff every bucket is; a failed
    // rung is *proven* infeasible when every failing bucket proved it.
    bool all_ok = true;
    for (std::size_t b = 0; b < bucket_count; ++b) {
        const Bucket& bucket = buckets_[b];
        if (!bucket.ok) {
            all_ok = false;
            proven = proven && bucket.proven;
        }
    }

#ifdef RMWP_AUDIT
    {
        // Drift gate (DESIGN.md §9): the sequential solve of the very same
        // instance must agree with the sharded merge bit for bit.
        bool direct_proven = true;
        const auto direct = rm.solve(instance, LadderRM::Purpose::admit, direct_proven);
        RMWP_ENSURE(direct.has_value() == all_ok);
        if (all_ok) {
            RMWP_ENSURE(direct->size() == count);
            for (std::size_t b = 0; b < bucket_count; ++b) {
                const Bucket& bucket = buckets_[b];
                for (std::size_t s = 0; s < bucket.sub.tasks.size(); ++s)
                    RMWP_ENSURE(bucket.mapping[s] == (*direct)[bucket.sub.tasks[s].row]);
            }
        }
    }
#endif

    if (!all_ok) return std::nullopt;

    RMWP_STAGE_SCOPE(obs::Stage::shard_merge);
    merged_.assign(count, ResourceId{0});
    for (std::size_t b = 0; b < bucket_count; ++b) {
        const Bucket& bucket = buckets_[b];
        RMWP_ENSURE(bucket.mapping.size() == bucket.sub.tasks.size());
        for (std::size_t s = 0; s < bucket.sub.tasks.size(); ++s)
            merged_[bucket.sub.tasks[s].row] = bucket.mapping[s];
    }
    return std::span<const ResourceId>(merged_);
}

ShardedSolver& ShardedSolver::local() {
    static thread_local ShardedSolver solver;
    return solver;
}

} // namespace rmwp
