// Differential fuzz-and-property suite for sharded admission (DESIGN.md
// §15): the sharded solve must be *bit-identical* to the unsharded solve at
// any shard count.
//
//   * fuzzer — 200 random worlds on an islands platform (the partition the
//     sharding exists for), each decided by {heuristic, exact, baseline}
//     across shards {1, 2, 4, 8}, with injected faults and 0-2 predicted
//     requests, on both decide() and decide_batch();
//     MilpRM (which documents ignoring the config) rides on a subsample;
//   * directed cases — a cross-shard tie-break world of byte-identical twin
//     islands, the degenerate single-group partition where shards = 8
//     must fold to one bucket and change nothing, and the exact RM's
//     rejection reasons (proved vs budget-bound) at shards 1 and 4;
//   * partition properties — groups are the executability components,
//     rebuilt deterministically, with the bucket folding rules pinned;
//   * order properties — demand_order is a total order whose per-shard
//     sort + merge equals the full sort, and insert_demand_ordered's
//     incremental state equals a full re-sort (the foundation the
//     per-bucket EDF probes stand on);
//   * serve level — a faulty, predicted, 400-arrival serve run under
//     --shards 4 ends in the same simulated state as the unsharded
//     service, records decision latency after the cross-shard
//     merge (monotone HDR quantiles), and attributes shard_solve /
//     shard_merge stage samples to the engine thread.
//
// An RMWP_AUDIT build additionally re-solves every sharded instance
// sequentially inside ShardedSolver::run and asserts bit-equality — running
// this binary under build-audit exercises that drift gate on every world
// below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/baseline_rm.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/milp_rm.hpp"
#include "core/reservation.hpp"
#include "core/shard.hpp"
#include "platform/health.hpp"
#include "predict/online.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

constexpr std::size_t kIslands = 4;

/// Eight plain cores, two GPUs, one DVFS core: eleven physical resources
/// that generate_partitioned_catalog deals round-robin into four islands
/// (0: CPU0 CPU4 GPU0, 1: CPU1 CPU5 GPU1, 2: CPU2 CPU6 DVFS, 3: CPU3 CPU7),
/// each with at least one CPU.  The DVFS core's operating point exercises
/// the partition's "points join their physical core" rule.  `with_dvfs =
/// false` drops the DVFS core (ten resources, same four islands) for the
/// MilpRM subsample — the MILP formulation predates DVFS and rejects
/// platforms that model it.
Platform make_islands_platform(bool with_dvfs = true) {
    PlatformBuilder builder;
    for (int k = 0; k < 8; ++k) builder.add_cpu("CPU" + std::to_string(k));
    builder.add_gpu("GPU0");
    builder.add_gpu("GPU1");
    if (with_dvfs) builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    return builder.build();
}

ActiveTask task_of(TaskUid uid, TaskTypeId type, Time arrival, Time rel_deadline) {
    ActiveTask task;
    task.uid = uid;
    task.type = type;
    task.arrival = arrival;
    task.absolute_deadline = arrival + rel_deadline;
    return task;
}

/// Randomized single-arrival world on the islands platform: assorted active
/// tasks spread over the islands, optional injected faults (outage and
/// throttle), a fresh candidate, and 0-2 predicted requests.
struct ShardWorld {
    Platform platform;
    Catalog catalog;
    PlatformHealth health;
    std::vector<ActiveTask> active;
    ArrivalContext context;

    explicit ShardWorld(std::uint64_t seed, bool with_dvfs = true)
        : platform(make_islands_platform(with_dvfs)), catalog([&] {
        CatalogParams params;
        params.type_count = 16;
        Rng catalog_rng = Rng(seed).derive(1);
        return generate_partitioned_catalog(platform, params, kIslands, catalog_rng);
    }()) {
        Rng rng(seed);

        // Faults first, so active tasks only ever sit on online resources
        // (the engine invariant): maybe one outage and one throttle, always
        // sparing CPU0 so at least one island stays fully healthy.
        if (rng.bernoulli(0.35)) {
            const ResourceId victim = 1 + static_cast<ResourceId>(rng.index(7));
            health.set_online(platform, victim, false);
        }
        if (rng.bernoulli(0.35)) {
            const ResourceId victim = 1 + static_cast<ResourceId>(rng.index(7));
            if (health.online(victim))
                health.set_throttle(platform, victim, rng.uniform(1.1, 1.8));
        }

        const std::size_t task_count = rng.index(6);
        for (std::size_t j = 0; j < task_count; ++j) {
            const TaskTypeId type_id = rng.index(catalog.size());
            const TaskType& type = catalog.type(type_id);
            std::vector<ResourceId> online;
            for (const ResourceId r : type.executable_resources())
                if (health.online(r)) online.push_back(r);
            if (online.empty()) continue; // its whole island is dark; skip
            ActiveTask task = task_of(j, type_id, 0.0, 0.0);
            task.absolute_deadline = rng.uniform(15.0, 160.0);
            task.resource = online[rng.index(online.size())];
            if (rng.bernoulli(0.5)) {
                task.started = true;
                task.remaining_fraction = rng.uniform(0.2, 1.0);
                if (!platform.resource(task.resource).preemptable()) task.pinned = true;
            }
            active.push_back(task);
        }

        context.now = 5.0;
        context.platform = &platform;
        context.catalog = &catalog;
        context.active = active;
        context.health = &health;
        context.candidate = task_of(100, rng.index(catalog.size()), 5.0, rng.uniform(10.0, 120.0));
        const std::size_t lookahead = rng.index(3); // 0-2 predicted requests
        for (std::size_t p = 0; p < lookahead; ++p)
            context.predicted.push_back(PredictedTask{rng.index(catalog.size()),
                                                      5.0 + rng.uniform(0.0, 12.0),
                                                      rng.uniform(8.0, 80.0)});
    }

    /// A follow-up candidate arriving at the same instant as the first.
    [[nodiscard]] BatchItem item(TaskUid uid, Rng& rng) const {
        BatchItem item;
        item.candidate = task_of(uid, rng.index(catalog.size()), 5.0, rng.uniform(10.0, 120.0));
        if (rng.bernoulli(0.6))
            item.predicted = {PredictedTask{rng.index(catalog.size()),
                                            5.0 + rng.uniform(0.0, 12.0),
                                            rng.uniform(8.0, 80.0)}};
        return item;
    }

    [[nodiscard]] BatchArrivalContext batch_of(std::span<const BatchItem> items) const {
        BatchArrivalContext batch;
        batch.now = context.now;
        batch.platform = &platform;
        batch.catalog = &catalog;
        batch.active = active;
        batch.items = items;
        batch.health = &health;
        return batch;
    }
};

void expect_same_decision(const Decision& a, const Decision& b, const char* what,
                          std::uint64_t seed, std::size_t index = 0) {
    EXPECT_EQ(a.admitted, b.admitted) << what << " seed " << seed << " item " << index;
    EXPECT_EQ(a.used_prediction, b.used_prediction)
        << what << " seed " << seed << " item " << index;
    EXPECT_EQ(static_cast<int>(a.reason), static_cast<int>(b.reason))
        << what << " seed " << seed << " item " << index;
    ASSERT_EQ(a.assignments.size(), b.assignments.size())
        << what << " seed " << seed << " item " << index;
    for (std::size_t k = 0; k < a.assignments.size(); ++k) {
        EXPECT_EQ(a.assignments[k].uid, b.assignments[k].uid)
            << what << " seed " << seed << " item " << index;
        EXPECT_EQ(a.assignments[k].resource, b.assignments[k].resource)
            << what << " seed " << seed << " item " << index;
    }
}

enum class Kind { heuristic, exact, baseline };

std::unique_ptr<ResourceManager> make_rm(Kind kind) {
    switch (kind) {
    case Kind::heuristic: return std::make_unique<HeuristicRM>();
    case Kind::exact: return std::make_unique<ExactRM>();
    case Kind::baseline: return std::make_unique<BaselineRM>();
    }
    return nullptr;
}

constexpr std::size_t kShardGrid[] = {1, 2, 4, 8};

// ---- the differential fuzzer ----

class ShardDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardDifferential, DecideAndBatchBitIdenticalAcrossTheConfigGrid) {
    const std::uint64_t seed = GetParam();
    const ShardWorld world(seed);
    Rng rng(seed ^ 0xd1ffe4e57ULL);

    std::vector<BatchItem> items;
    items.push_back({world.context.candidate, world.context.predicted});
    const std::size_t extra = 1 + rng.index(3);
    for (std::size_t m = 0; m < extra; ++m) items.push_back(world.item(101 + m, rng));
    const BatchArrivalContext batch = world.batch_of(items);

    for (const Kind kind : {Kind::heuristic, Kind::exact, Kind::baseline}) {
        const std::unique_ptr<ResourceManager> reference = make_rm(kind);
        const Decision single = reference->decide(world.context);
        std::vector<Decision> batched;
        reference->decide_batch(batch, batched);
        ASSERT_EQ(batched.size(), items.size()) << reference->name();

        for (const std::size_t shards : kShardGrid) {
            const std::unique_ptr<ResourceManager> sharded = make_rm(kind);
            sharded->set_shard_config({shards});
            const std::string label = sharded->name() + " s" + std::to_string(shards);
            const Decision sharded_single = sharded->decide(world.context);
            expect_same_decision(single, sharded_single, (label + " decide").c_str(), seed);
            std::vector<Decision> sharded_batch;
            sharded->decide_batch(batch, sharded_batch);
            ASSERT_EQ(sharded_batch.size(), items.size()) << sharded->name();
            for (std::size_t m = 0; m < items.size(); ++m)
                expect_same_decision(batched[m], sharded_batch[m], (label + " batch").c_str(),
                                     seed, m);
        }
    }

    // MilpRM documents *ignoring* the shard config (its solver does not
    // decompose provably bit-identically); the subsample pins that ignoring
    // is total — identical decisions, not a partial sharded path.  It runs
    // on the DVFS-free islands variant because the MILP formulation rejects
    // DVFS platforms outright.
    if (seed % 5 == 0) {
        ShardWorld milp_world(seed, /*with_dvfs=*/false);
        // The MILP lookahead models at most one predicted request.
        if (milp_world.context.predicted.size() > 1) milp_world.context.predicted.resize(1);
        Rng milp_rng(seed ^ 0x31415926535ULL);
        std::vector<BatchItem> milp_items;
        milp_items.push_back({milp_world.context.candidate, milp_world.context.predicted});
        const std::size_t milp_extra = 1 + milp_rng.index(3);
        for (std::size_t m = 0; m < milp_extra; ++m)
            milp_items.push_back(milp_world.item(101 + m, milp_rng));
        const BatchArrivalContext milp_batch = milp_world.batch_of(milp_items);

        MilpRM reference;
        MilpRM sharded;
        sharded.set_shard_config({4});
        expect_same_decision(reference.decide(milp_world.context),
                             sharded.decide(milp_world.context), "milp decide", seed);
        std::vector<Decision> a;
        std::vector<Decision> b;
        reference.decide_batch(milp_batch, a);
        sharded.decide_batch(milp_batch, b);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t m = 0; m < a.size(); ++m)
            expect_same_decision(a[m], b[m], "milp batch", seed, m);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferential, ::testing::Range<std::uint64_t>(0, 200));

// ---- directed cases ----

/// Byte-identical twin islands: CPU0 and CPU1 host mirror-image task types
/// with equal costs and equal deadlines, so every cross-bucket comparison a
/// sequential solve could make is a tie.  The sharded path never makes
/// those comparisons (buckets are independent); bit-identity therefore
/// hinges on the within-bucket tie-breaks being total — exactly what the
/// totalized sorts in ExactRM and the lowest-index picks in Algorithm 1
/// provide.
TEST(ShardDirected, CrossShardTieBreaksMatchSequential) {
    PlatformBuilder builder;
    builder.add_cpu("CPU0");
    builder.add_cpu("CPU1");
    const Platform platform = builder.build();

    const double inf = kNotExecutable;
    const std::vector<std::vector<double>> no_migration(2, std::vector<double>(2, 0.0));
    std::vector<TaskType> types;
    types.emplace_back(0, std::vector<double>{10.0, inf}, std::vector<double>{5.0, inf},
                       no_migration, no_migration); // island 0 resident
    types.emplace_back(1, std::vector<double>{inf, 10.0}, std::vector<double>{inf, 5.0},
                       no_migration, no_migration); // island 1 mirror twin
    types.emplace_back(2, std::vector<double>{10.0, inf}, std::vector<double>{5.0, inf},
                       no_migration, no_migration); // the candidate's type
    const Catalog catalog{std::move(types)};

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 50.0)); // equal deadlines: a demand_order
    active.push_back(task_of(1, 1, 0.0, 50.0)); // tie broken only by uid
    active[0].resource = 0;
    active[1].resource = 1;

    ArrivalContext context;
    context.now = 0.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(100, 2, 0.0, 25.0);
    context.predicted = {PredictedTask{1, 5.0, 30.0}}; // predicted in the *other* island

    for (const Kind kind : {Kind::heuristic, Kind::exact}) {
        const std::unique_ptr<ResourceManager> reference = make_rm(kind);
        const std::unique_ptr<ResourceManager> sharded = make_rm(kind);
        sharded->set_shard_config({2});
        const Decision a = reference->decide(context);
        const Decision b = sharded->decide(context);
        expect_same_decision(a, b, sharded->name().c_str(), 0);
        // The world is feasible by construction; pin the full placement so
        // the tie can never silently flip both paths the same wrong way.
        ASSERT_TRUE(b.admitted) << sharded->name();
        ASSERT_EQ(b.assignments.size(), 3u) << sharded->name();
        for (const TaskAssignment& assignment : b.assignments) {
            if (assignment.uid == 0) {
                EXPECT_EQ(assignment.resource, 0u);
            }
            if (assignment.uid == 1) {
                EXPECT_EQ(assignment.resource, 1u);
            }
            if (assignment.uid == 100) {
                EXPECT_EQ(assignment.resource, 0u);
            }
        }
    }
}

/// The degenerate partition: on the motivational platform every type can
/// reach every resource, so the executability graph is one connected
/// component — shards = 8 must fold to a single bucket and reproduce the
/// sequential path exactly (it *is* the sequential solve, plus the fold).
TEST(ShardDirected, SingleGroupPartitionFoldsToOneBucket) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const Platform platform = make_motivational_platform();
        CatalogParams params;
        params.type_count = 8;
        Rng catalog_rng = Rng(seed).derive(1);
        const Catalog catalog = generate_catalog(platform, params, catalog_rng);

        ShardPartition partition;
        partition.rebuild(platform, catalog);
        ASSERT_EQ(partition.group_count(), 1u);
        ASSERT_EQ(partition.bucket_count(8), 1u);

        Rng rng(seed);
        std::vector<ActiveTask> active;
        const std::size_t task_count = rng.index(5);
        for (std::size_t j = 0; j < task_count; ++j) {
            ActiveTask task = task_of(j, rng.index(catalog.size()), 0.0, 0.0);
            const TaskType& type = catalog.type(task.type);
            task.absolute_deadline = rng.uniform(10.0, 120.0);
            task.resource =
                type.executable_resources()[rng.index(type.executable_resources().size())];
            active.push_back(task);
        }
        ArrivalContext context;
        context.now = 5.0;
        context.platform = &platform;
        context.catalog = &catalog;
        context.active = active;
        context.candidate = task_of(100, rng.index(catalog.size()), 5.0, rng.uniform(8.0, 90.0));

        for (const Kind kind : {Kind::heuristic, Kind::exact}) {
            const std::unique_ptr<ResourceManager> reference = make_rm(kind);
            const std::unique_ptr<ResourceManager> sharded = make_rm(kind);
            sharded->set_shard_config({8});
            expect_same_decision(reference->decide(context), sharded->decide(context),
                                 sharded->name().c_str(), seed);
        }
    }
}

/// A bucket sub-instance is a view of the whole instance's row store: the
/// tasks it copies keep their parent rows, so every cost cell, executable
/// set, reservation block and blocked time it reads is the parent's, and a
/// copy of the view reads the same store.
TEST(ShardDirected, BucketViewReadsTheParentStore) {
    const Platform platform = make_motivational_platform();
    CatalogParams params;
    params.type_count = 8;
    Rng catalog_rng = Rng(3).derive(1);
    const Catalog catalog = generate_catalog(platform, params, catalog_rng);
    const ReservationTable reservations({CriticalTask{"ctrl", 0, 20.0, 0.0, 2.0, 1.0}});
    std::vector<ActiveTask> active;
    for (TaskUid uid = 0; uid < 4; ++uid) {
        ActiveTask task = task_of(uid, uid, 0.0, 80.0 + 10.0 * static_cast<double>(uid));
        task.resource = catalog.type(task.type).executable_resources().front();
        active.push_back(task);
    }
    ArrivalContext context;
    context.now = 5.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(100, 5, 5.0, 60.0);
    context.predicted = {PredictedTask{6, 9.0, 50.0}};
    context.reservations = &reservations;
    const PlanInstance parent = PlanInstance::build(context, 1);
    ASSERT_FALSE(parent.blocks()[0].empty());

    const std::vector<std::size_t> picked = {1, 3, parent.tasks.size() - 1};
    PlanInstance view;
    view.view(parent);
    for (const std::size_t j : picked) view.tasks.push_back(parent.tasks[j]);
    const PlanInstance copy = view;
    for (const PlanInstance* sub : {&std::as_const(view), &copy}) {
        EXPECT_EQ(sub->window, parent.window);
        ASSERT_EQ(sub->blocks().size(), platform.size());
        for (ResourceId i = 0; i < platform.size(); ++i) {
            EXPECT_EQ(sub->blocks()[i].size(), parent.blocks()[i].size());
            EXPECT_EQ(sub->blocked_time()[i], parent.blocked_time()[i]);
        }
        for (std::size_t s = 0; s < picked.size(); ++s) {
            EXPECT_EQ(sub->tasks[s].row, picked[s]);
            EXPECT_TRUE(std::ranges::equal(sub->cpm(s), parent.cpm(picked[s])));
            EXPECT_TRUE(std::ranges::equal(sub->epm(s), parent.epm(picked[s])));
            EXPECT_TRUE(std::ranges::equal(sub->executable(s), parent.executable(picked[s])));
        }
    }
}

/// A rejection keeps its reason under sharding: the candidate fits nowhere
/// in its island of the islands platform, so the exact RM must report
/// proved_infeasible at any shard count under the default budget, and
/// solver_infeasible once a one-node budget leaves some failure unproven.
/// Under that budget the candidate's own bucket still *proves* its
/// failure (every placement fails at depth 0, on the first node), while
/// the bucket of the active task on CPU0 runs out of nodes; only the AND
/// over the failed buckets' proofs reports the budget.
TEST(ShardDirected, ExactRejectionReasonsSurviveSharding) {
    const Platform platform = make_islands_platform();
    const std::size_t n = platform.size();
    const auto only_on = [&](TaskTypeId id, std::vector<ResourceId> resources) {
        std::vector<double> wcet(n, kNotExecutable);
        std::vector<double> energy(n, kNotExecutable);
        for (const ResourceId r : resources) {
            wcet[r] = 10.0;
            energy[r] = 4.0;
        }
        const std::vector<std::vector<double>> no_migration(n, std::vector<double>(n, 0.0));
        return TaskType(id, std::move(wcet), std::move(energy), no_migration, no_migration);
    };
    std::vector<TaskType> types;
    types.push_back(only_on(0, {0}));    // the resident's island: CPU0 alone
    types.push_back(only_on(1, {1, 5})); // the candidate's island: CPU1 + CPU5
    const Catalog catalog{std::move(types)};

    ShardPartition partition;
    partition.rebuild(platform, catalog);
    ASSERT_EQ(partition.bucket_of_resource(0, 4), 0u);
    ASSERT_EQ(partition.bucket_of_resource(1, 4), 1u);

    std::vector<ActiveTask> active = {task_of(0, 0, 0.0, 50.0)};
    active[0].resource = 0;
    ArrivalContext context;
    context.now = 5.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    // WCET 10 against 5 time units of slack: no resource of its island fits.
    context.candidate = task_of(100, 1, 5.0, 5.0);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        const std::string label = "shards " + std::to_string(shards);
        ExactRM proving;
        proving.set_shard_config({shards});
        const Decision proved = proving.decide(context);
        EXPECT_FALSE(proved.admitted) << label;
        EXPECT_EQ(proved.reason, RejectReason::proved_infeasible) << label;

        ExactRM::Options tight;
        tight.node_limit = 1;
        ExactRM budgeted(tight);
        budgeted.set_shard_config({shards});
        const Decision budget = budgeted.decide(context);
        EXPECT_FALSE(budget.admitted) << label;
        EXPECT_EQ(budget.reason, RejectReason::solver_infeasible) << label;
    }
}

// ---- partition properties ----

TEST(ShardPartitionProperty, GroupsAreTheExecutabilityComponents) {
    const Platform platform = make_islands_platform();
    CatalogParams params;
    params.type_count = 16;
    Rng rng = Rng(7).derive(1);
    const Catalog catalog = generate_partitioned_catalog(platform, params, kIslands, rng);

    ShardPartition partition;
    partition.rebuild(platform, catalog);
    EXPECT_EQ(partition.group_count(), kIslands);

    // Every type's executable resources share one group, and types assigned
    // to the same island land in the same group.
    std::vector<std::size_t> island_group(kIslands, static_cast<std::size_t>(-1));
    for (TaskTypeId t = 0; t < catalog.size(); ++t) {
        const auto& resources = catalog.type(t).executable_resources();
        ASSERT_FALSE(resources.empty());
        const std::size_t group = partition.group_of(resources.front());
        for (const ResourceId r : resources) EXPECT_EQ(partition.group_of(r), group);
        std::size_t& expected = island_group[t % kIslands];
        if (expected == static_cast<std::size_t>(-1)) expected = group;
        EXPECT_EQ(group, expected) << "type " << t;
    }

    // Operating points share their physical core's group.
    for (const Resource& resource : platform.resources())
        EXPECT_EQ(partition.group_of(resource.id()), partition.group_of(resource.physical()));

    // Bucket folding rules: the cap clamps at group_count, a zero cap acts
    // as one, and folding is plain modulo over dense group ids.
    EXPECT_EQ(partition.bucket_count(1), 1u);
    EXPECT_EQ(partition.bucket_count(3), 3u);
    EXPECT_EQ(partition.bucket_count(8), kIslands);
    EXPECT_EQ(partition.bucket_count(0), 1u);
    for (const Resource& resource : platform.resources())
        EXPECT_EQ(partition.bucket_of_resource(resource.id(), 3),
                  partition.group_of(resource.id()) % 3);
}

TEST(ShardPartitionProperty, RebuildIsDeterministicAndReusable) {
    const Platform platform = make_islands_platform();
    CatalogParams params;
    params.type_count = 16;
    Rng rng = Rng(11).derive(1);
    const Catalog catalog = generate_partitioned_catalog(platform, params, kIslands, rng);

    ShardPartition fresh;
    fresh.rebuild(platform, catalog);
    ShardPartition reused;
    // A pooled partition must forget a previous, differently-shaped world.
    const Platform other = make_motivational_platform();
    CatalogParams other_params;
    other_params.type_count = 4;
    Rng other_rng = Rng(3).derive(1);
    const Catalog other_catalog = generate_catalog(other, other_params, other_rng);
    reused.rebuild(other, other_catalog);
    reused.rebuild(platform, catalog);

    ASSERT_EQ(fresh.group_count(), reused.group_count());
    for (const Resource& resource : platform.resources())
        EXPECT_EQ(fresh.group_of(resource.id()), reused.group_of(resource.id()));

    // Dense ids in smallest-resource-id order: group 0 contains resource 0,
    // and the first resource of each group id ascends.
    std::vector<ResourceId> first_of(fresh.group_count(), platform.size());
    for (const Resource& resource : platform.resources()) {
        ResourceId& first = first_of[fresh.group_of(resource.id())];
        first = std::min(first, resource.id());
    }
    for (std::size_t g = 1; g < first_of.size(); ++g) EXPECT_LT(first_of[g - 1], first_of[g]);
}

// ---- demand-order properties (the ground the per-bucket probes stand on) ----

std::vector<ScheduleItem> random_items(std::uint64_t seed, std::size_t count) {
    // Coarse value grids force plenty of deadline/release ties, so the uid
    // tie-break actually decides orderings.
    Rng rng(seed);
    std::vector<ScheduleItem> items;
    for (std::size_t k = 0; k < count; ++k) {
        ScheduleItem item;
        item.uid = k;
        item.abs_deadline = 10.0 * static_cast<double>(1 + rng.index(4));
        item.release = 2.0 * static_cast<double>(rng.index(3));
        item.duration = rng.uniform(1.0, 5.0);
        items.push_back(item);
    }
    rng.shuffle(items);
    return items;
}

TEST(DemandOrderProperty, TotalOrderSurvivesShardSplitAndMerge) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        std::vector<ScheduleItem> items = random_items(seed, 64);

        // Totality and antisymmetry over distinct items (uids are unique).
        Rng pick(seed ^ 0x70701ULL);
        for (int probe = 0; probe < 64; ++probe) {
            const ScheduleItem& a = items[pick.index(items.size())];
            const ScheduleItem& b = items[pick.index(items.size())];
            if (a.uid == b.uid) continue;
            EXPECT_NE(demand_order(a, b), demand_order(b, a));
        }

        std::vector<ScheduleItem> full = items;
        std::sort(full.begin(), full.end(), demand_order);

        // Split into 4 "shards" by an arbitrary key, sort each, then merge:
        // the result must be the full sort, element for element — the exact
        // shape of a per-bucket sorted state re-unified by the merge.
        std::vector<std::vector<ScheduleItem>> shards(4);
        for (const ScheduleItem& item : items) shards[item.uid % 4].push_back(item);
        std::vector<ScheduleItem> merged;
        for (std::vector<ScheduleItem>& shard : shards) {
            std::sort(shard.begin(), shard.end(), demand_order);
            std::vector<ScheduleItem> next;
            std::merge(merged.begin(), merged.end(), shard.begin(), shard.end(),
                       std::back_inserter(next), demand_order);
            merged = std::move(next);
        }
        ASSERT_EQ(merged.size(), full.size());
        for (std::size_t k = 0; k < full.size(); ++k)
            EXPECT_EQ(merged[k].uid, full[k].uid) << "seed " << seed << " slot " << k;
    }
}

TEST(DemandOrderProperty, IncrementalInsertEqualsFullResort) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const std::vector<ScheduleItem> items = random_items(seed ^ 0x1245ULL, 48);

        std::vector<ScheduleItem> incremental;
        for (const ScheduleItem& item : items) {
            const std::size_t at = insert_demand_ordered(incremental, item);
            ASSERT_LT(at, incremental.size());
            EXPECT_EQ(incremental[at].uid, item.uid);
        }

        std::vector<ScheduleItem> resorted = items;
        std::sort(resorted.begin(), resorted.end(), demand_order);
        ASSERT_EQ(incremental.size(), resorted.size());
        for (std::size_t k = 0; k < resorted.size(); ++k)
            EXPECT_EQ(incremental[k].uid, resorted[k].uid) << "seed " << seed << " slot " << k;
    }
}

// ---- serve level ----

TEST(ShardServe, ShardedServiceIsBitIdenticalAndRecordsMergedLatency) {
    const auto run_once = [](const ShardConfig& shard, obs::StageStats* stats) {
        const Platform platform = make_islands_platform();
        CatalogParams params;
        params.type_count = 16;
        Rng catalog_rng = Rng(5).derive(1);
        const Catalog catalog = generate_partitioned_catalog(platform, params, kIslands,
                                                             catalog_rng);
        SyntheticSourceParams source_params;
        source_params.seed = 9;
        SyntheticArrivalSource source(catalog, source_params);
        HeuristicRM rm;
        rm.set_shard_config(shard);
        OnlinePredictor predictor(catalog);
        ServeConfig config;
        config.monitor = false;
        config.max_arrivals = 400;
        config.faults.outage_rate = 0.25;
        config.faults.throttle_rate = 0.2;
        config.fault_seed = 17;
        config.fault_chunk = 500.0;
        config.sim.execution_seed = 21;
        config.sim.execution_time_factor_min = 0.7;
        config.stage_stats_out = stats;
        return run_serve(platform, catalog, rm, predictor, nullptr, source, config);
    };

    obs::StageStats stats;
    const ServeResult sequential = run_once({1}, nullptr);
    const ServeResult sharded = run_once({4}, &stats);

    EXPECT_EQ(sequential.exit_code, 0);
    EXPECT_EQ(sharded.exit_code, 0);
    EXPECT_EQ(sequential.arrivals, sharded.arrivals);
    EXPECT_EQ(sequential.shed, sharded.shed);
    EXPECT_EQ(describe_differences(sequential.result, sharded.result), "");
    EXPECT_GT(sharded.result.rescue_activations + sharded.result.throttle_events, 0u);
    // The online predictor scores itself identically along both paths.
    EXPECT_GT(sequential.predictor_predictions, 0u);
    EXPECT_EQ(sequential.predictor_predictions, sharded.predictor_predictions);
    EXPECT_EQ(sequential.predictor_hits, sharded.predictor_hits);

    // The latency HDR records after the cross-shard merge — every quantile
    // covers whole decisions, so the ladder of quantiles is monotone and
    // strictly positive on both paths.
    for (const ServeResult* run : {&sequential, &sharded}) {
        EXPECT_GT(run->latency_p50_us, 0.0);
        EXPECT_LE(run->latency_p50_us, run->latency_p90_us);
        EXPECT_LE(run->latency_p90_us, run->latency_p99_us);
        EXPECT_LE(run->latency_p99_us, run->latency_p999_us);
    }

#ifdef RMWP_OBS
    // Shard stage attribution lands on the engine thread, where serve's
    // StageStatsScope is installed.
    EXPECT_GT(stats.cell(obs::Stage::shard_solve).calls, 0u);
    EXPECT_GT(stats.cell(obs::Stage::shard_merge).calls, 0u);
    EXPECT_GE(stats.cell(obs::Stage::shard_solve).calls,
              stats.cell(obs::Stage::shard_merge).calls);
#endif
}

/// perfbench's islands_burst in small: 24 CPUs, 4 GPUs and a DVFS core
/// dealt into four islands, bursts of 8 same-instant arrivals decided by
/// decide_batch, prediction off.  Admissions that migrate tasks inside a
/// burst are what make a bucket's next sub-instance differ from its last
/// solve, so the sharded path must end where the whole-plan path does.
TEST(ShardServe, IslandBurstsWithMigrationsMatchUnsharded) {
    PlatformBuilder builder;
    for (int k = 0; k < 24; ++k) builder.add_cpu("CPU" + std::to_string(k));
    for (int k = 0; k < 4; ++k) builder.add_gpu("GPU" + std::to_string(k));
    builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    const Platform platform = builder.build();
    CatalogParams params;
    params.type_count = 32;
    Rng catalog_rng(42);
    const Catalog catalog = generate_partitioned_catalog(platform, params, kIslands, catalog_rng);

    const auto run_once = [&](const ShardConfig& shard) {
        SyntheticSourceParams source_params;
        source_params.seed = 11;
        source_params.interarrival_mean = 1.2;
        source_params.interarrival_stddev = 0.4;
        BurstSource source(catalog, source_params, 8);
        HeuristicRM rm;
        rm.set_shard_config(shard);
        NullPredictor off;
        ServeConfig config;
        config.monitor = false;
        config.max_arrivals = 4000;
        config.batch_window = 0.0;
        config.sim.execution_seed = 11;
        return run_serve(platform, catalog, rm, off, nullptr, source, config);
    };

    const ServeResult whole = run_once({1});
    const ServeResult sharded = run_once({4});
    EXPECT_EQ(whole.exit_code, 0);
    EXPECT_EQ(sharded.exit_code, 0);
    EXPECT_EQ(whole.arrivals, sharded.arrivals);
    EXPECT_EQ(describe_differences(whole.result, sharded.result), "");
    EXPECT_GT(whole.result.migrations, 0u);
    EXPECT_GT(whole.result.rejected, 0u);
}

/// A catalog that forms one resource group leaves one solve bucket at any
/// shard count, so the ladder solves it directly: shards = 4 decides
/// exactly as shards = 1 and runs no sharded sub-solve.
TEST(ShardServe, OneGroupCatalogSolvesDirectly) {
    const Platform platform = make_paper_platform();
    CatalogParams params;
    params.type_count = 24;
    Rng catalog_rng = Rng(3).derive(1);
    const Catalog catalog = generate_catalog(platform, params, catalog_rng);
    ShardPartition partition;
    partition.rebuild(platform, catalog);
    ASSERT_EQ(partition.bucket_count(4), 1u);

    const auto run_once = [&](const ShardConfig& shard, obs::StageStats* stats) {
        SyntheticSourceParams source_params;
        source_params.seed = 11;
        SyntheticArrivalSource source(catalog, source_params);
        HeuristicRM rm;
        rm.set_shard_config(shard);
        OnlinePredictor predictor(catalog);
        ServeConfig config;
        config.monitor = false;
        config.max_arrivals = 400;
        config.stage_stats_out = stats;
        return run_serve(platform, catalog, rm, predictor, nullptr, source, config);
    };

    obs::StageStats direct_stats;
    obs::StageStats sharded_stats;
    const ServeResult direct = run_once({1}, &direct_stats);
    const ServeResult sharded = run_once({4}, &sharded_stats);
    EXPECT_EQ(direct.exit_code, 0);
    EXPECT_EQ(sharded.exit_code, 0);
    EXPECT_EQ(direct.arrivals, sharded.arrivals);
    EXPECT_EQ(describe_differences(direct.result, sharded.result), "");
    EXPECT_GT(direct.result.accepted, 0u);

#ifdef RMWP_OBS
    EXPECT_EQ(sharded_stats.cell(obs::Stage::shard_solve).calls, 0u);
    EXPECT_EQ(sharded_stats.cell(obs::Stage::shard_merge).calls, 0u);
    EXPECT_GT(sharded_stats.cell(obs::Stage::solve).calls, 0u);
    EXPECT_EQ(sharded_stats.cell(obs::Stage::solve).calls,
              direct_stats.cell(obs::Stage::solve).calls);
#endif
}

} // namespace
} // namespace rmwp
