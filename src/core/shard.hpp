// Sharded admission (DESIGN.md §15).
//
// The platform's resources fall into *resource groups*: connected
// components of the relation "some catalog task type can execute on both".
// Tasks from different groups share no feasible resource, so their
// placements, EDF probes, and energy costs never interact — a plan over the
// whole platform decomposes exactly into independent per-group sub-plans.
// ShardPartition computes that decomposition (union-find over the catalog's
// executability sets, group ids assigned in smallest-resource-id order so
// the partition is a pure function of platform + catalog), and
// ShardedSolver solves the per-group sub-instances one after another on the
// calling thread, then merges the per-bucket mappings back into instance
// order.  A sub-instance is a view: it holds copies of its bucket's scalar
// plan tasks and reads their cost rows and the reservation blocks from the
// whole instance's row store.  What pays is the cross-item cache that lets
// buckets no admission touched keep their verdict for the rest of a batch:
// with its lookup disabled, the bucket solves alone run no faster than one
// whole-plan solve (EXPERIMENTS.md E20).
//
// Determinism contract (DESIGN.md §9): the merged decision is bit-identical
// to the whole-plan solve at any shard count.  An RMWP_AUDIT build re-solves
// every instance whole and asserts bit-equality.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/manager.hpp"
#include "core/plan_instance.hpp"

namespace rmwp {

/// Resource-group partition of one (platform, catalog) pair.  Pooled:
/// rebuild() reuses all scratch capacity, so recomputing it per decision
/// (O(resources + catalog executability entries), far below one solve)
/// costs no steady-state allocation and needs no cross-decision cache keys.
class ShardPartition {
public:
    /// Recompute groups: operating points join their physical core, and
    /// every task type joins all resources it can execute on.  Group ids
    /// are dense [0, group_count()) in order of each group's smallest
    /// resource id — deterministic in the inputs alone.
    void rebuild(const Platform& platform, const Catalog& catalog);

    [[nodiscard]] std::size_t group_count() const noexcept { return group_count_; }
    [[nodiscard]] std::size_t group_of(ResourceId i) const {
        RMWP_EXPECT(i < group_of_.size());
        return group_of_[i];
    }

    /// Number of distinct solve buckets under a `shards` cap.
    [[nodiscard]] std::size_t bucket_count(std::size_t shards) const noexcept {
        return std::min(group_count_, std::max<std::size_t>(shards, 1));
    }

    /// Solve bucket of a resource: its group, folded modulo the shard cap.
    [[nodiscard]] std::size_t bucket_of_resource(ResourceId i, std::size_t shards) const {
        return group_of(i) % std::max<std::size_t>(shards, 1);
    }

    /// Solve bucket of a task that can execute on `executable` (a plan
    /// task's set, or every executable resource of its catalog type).  All
    /// of a task's executable resources lie in one group by construction;
    /// a task with an empty executable set (all its resources offline under
    /// faults) deterministically lands in bucket 0, where it fails
    /// feasibility exactly as it would in the sequential solve.
    [[nodiscard]] std::size_t bucket_of(std::span<const ResourceId> executable,
                                        std::size_t shards) const {
        return executable.empty() ? 0 : bucket_of_resource(executable.front(), shards);
    }

private:
    [[nodiscard]] std::size_t find(std::size_t i);
    void join(std::size_t a, std::size_t b);

    std::vector<std::size_t> group_of_; ///< resource id -> dense group id
    std::vector<std::size_t> parent_;   ///< union-find scratch
    std::size_t group_count_ = 0;
};

/// The sharded solve: a serial decorator around a LadderRM's `solve`, used
/// by the ladder driver for every admission rung when sharding is on.
/// Holds all per-batch state (the partition, pooled sub-instances, result
/// slots, the cross-item solve cache) in thread-local storage — one RM
/// object stays shareable across the experiment engine's threads.
class ShardedSolver {
public:
    /// Start a coalesced batch under a `shards` cap: rebuilds the resource
    /// partition, resets bucket versions and the solve cache, and snapshots
    /// the working set's uid -> (resource, bucket) map so note_admission
    /// can tell which buckets an admission touched.  Returns the number
    /// of solve buckets the batch splits into.
    std::size_t begin_batch(const BatchArrivalContext& batch, std::size_t shards);

    /// Record an admitted decision over the instance of the last run: the
    /// candidate's bucket and the bucket of every moved task get a new
    /// version, invalidating their cached solves; untouched buckets keep
    /// serving cache hits.  When the admission moved no task and the
    /// candidate's bucket held no predicted task, that bucket's just-solved
    /// mapping is written through under its new version: the next item's
    /// sub-instance of the bucket is the one just solved (DESIGN.md §15).
    void note_admission(const Decision& decision, const ActiveTask& candidate);

    /// Solve `instance` (assembled within the current batch) as
    /// independent per-bucket `rm.solve` calls and merge.  Buckets not
    /// containing the item's candidate/predicted tail reuse their cached
    /// verdict when (version, window) match.  Returns the merged mapping
    /// (valid until the next run on this thread's solver), or nullopt when
    /// any bucket is infeasible; `proven` is then ANDed with every failed
    /// bucket's proof.
    std::optional<std::span<const ResourceId>> run(const PlanInstance& instance,
                                                   const LadderRM& rm, bool& proven);

    /// The calling thread's pooled solver.
    [[nodiscard]] static ShardedSolver& local();

private:
    static constexpr std::size_t kCacheWays = 4;

    struct CacheEntry {
        bool valid = false;
        bool ok = false;
        bool proven = true;
        std::uint64_t version = 0;
        double window = -1.0;
        std::vector<ResourceId> mapping;
    };

    struct Bucket {
        PlanInstance sub;                ///< view: the bucket's tasks, in instance order
        bool item_local = false;         ///< holds the candidate/predicted tail
        std::vector<ResourceId> mapping; ///< solve result, sub task order
        bool ok = false;
        bool proven = true;
        std::uint64_t version = 1; ///< bumped on any admission touching the bucket
        std::array<CacheEntry, kCacheWays> cache;
        std::size_t cache_cursor = 0;
    };

    /// Store `bucket`'s last solve as its cache entry for `window` under
    /// the bucket's current version.
    static void store(Bucket& bucket, double window);

    struct Tracked {
        TaskUid uid = 0;
        ResourceId resource = 0;
        std::size_t bucket = 0;
    };

    ShardPartition partition_;
    const Catalog* catalog_ = nullptr; ///< the current batch's catalog
    std::size_t shards_ = 1;           ///< the current batch's cap
    double run_window_ = -1.0;         ///< window of the last run's instance
    std::vector<Bucket> buckets_; ///< never shrinks; first bucket_count used
    std::vector<Tracked> tracked_;
    std::vector<std::size_t> pending_; ///< bucket ids needing a fresh solve
    std::vector<ResourceId> merged_;
};

} // namespace rmwp
