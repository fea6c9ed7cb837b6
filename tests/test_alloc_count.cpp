// Heap-allocation budget for the admission hot path (DESIGN.md §13).
//
// The solver arenas (PlanScratch, the BatchPlanner arena, the EDF buffers) make
// steady-state admission allocation-free except for the Decision's
// assignments vector — the one output that must outlive the call — and the
// engine's schedule rebuild after each decision re-plans into buffers it
// keeps, so a whole arrival costs the same budget.  This test pins it with
// counting global operator new/delete overrides, so a future change that
// reintroduces per-decision allocations (a copied mapping, a rebuilt
// schedule buffer, a temporary set) fails loudly instead of silently
// costing throughput.
//
// The counters are process-global, so this binary holds only this test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/heuristic_rm.hpp"
#include "core/reservation.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

struct AllocationCount {
    std::uint64_t begin = 0;
    void start() { begin = g_allocations.load(std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t stop() const {
        return g_allocations.load(std::memory_order_relaxed) - begin;
    }
};

} // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace rmwp {
namespace {

ActiveTask task_of(TaskUid uid, TaskTypeId type, Time arrival, Time rel_deadline) {
    ActiveTask task;
    task.uid = uid;
    task.type = type;
    task.arrival = arrival;
    task.absolute_deadline = arrival + rel_deadline;
    return task;
}

TEST(AllocCount, SteadyStateDecideAllocatesOnlyTheDecisionOutput) {
#ifdef RMWP_AUDIT
    // The audit drift gates deliberately rebuild instances from scratch to
    // cross-check the arenas; the allocation budget is a contract of the
    // production (no-audit) configuration only.
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const Platform platform = make_motivational_platform();
    CatalogParams params;
    params.type_count = 8;
    Rng catalog_rng = Rng(3).derive(1);
    const Catalog catalog = generate_catalog(platform, params, catalog_rng);

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 60.0));
    active.push_back(task_of(1, 1, 0.0, 80.0));
    ArrivalContext context;
    context.now = 5.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(100, 2, 5.0, 50.0);
    context.predicted = {PredictedTask{3, 9.0, 40.0}};

    HeuristicRM rm;
    // Warm the thread-local arenas (PlanScratch, the BatchPlanner arena,
    // the batch-of-one buffers of decide(), EDF buffers): the first
    // decision may size every buffer.
    (void)rm.decide(context);

    constexpr int kRounds = 200;
    AllocationCount count;
    count.start();
    std::size_t admitted = 0;
    for (int round = 0; round < kRounds; ++round) {
        const Decision decision = rm.decide(context);
        if (decision.admitted) ++admitted;
    }
    const std::uint64_t allocations = count.stop();
    EXPECT_EQ(admitted, static_cast<std::size_t>(kRounds));

    // Budget: one allocation per decision — the admitted Decision's
    // assignments vector.  Everything else (instance build, Algorithm 1's
    // matrices, schedulability probes, the returned mapping span) runs on
    // reused arenas.
    EXPECT_LE(allocations, static_cast<std::uint64_t>(kRounds))
        << "steady-state decide() regressed to " << allocations << " allocations over "
        << kRounds << " rounds";
    EXPECT_GT(allocations, 0u); // the output vector itself is real
}

TEST(AllocCount, BatchDecisionAmortisesSetupAllocations) {
#ifdef RMWP_AUDIT
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const Platform platform = make_motivational_platform();
    CatalogParams params;
    params.type_count = 8;
    Rng catalog_rng = Rng(3).derive(1);
    const Catalog catalog = generate_catalog(platform, params, catalog_rng);

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 60.0));
    std::vector<BatchItem> items;
    for (std::size_t m = 0; m < 8; ++m)
        items.push_back({task_of(100 + m, (m % 4) + 1, 5.0, 50.0 + 2.0 * static_cast<double>(m)),
                         {}});
    BatchArrivalContext batch;
    batch.now = 5.0;
    batch.platform = &platform;
    batch.catalog = &catalog;
    batch.active = active;
    batch.items = items;

    HeuristicRM rm;
    std::vector<Decision> out;
    rm.decide_batch(batch, out); // warm-up
    ASSERT_EQ(out.size(), items.size());

    constexpr int kRounds = 100;
    AllocationCount count;
    count.start();
    for (int round = 0; round < kRounds; ++round) {
        rm.decide_batch(batch, out);
        ASSERT_EQ(out.size(), items.size());
    }
    const std::uint64_t allocations = count.stop();

    // Budget per batch of 8: one assignments vector per admitted item —
    // the BatchPlanner's working set and its pooled instance with the
    // instance's row store live on a thread-local arena, so batch setup
    // itself is allocation-free in steady state.
    // (+8 absorbs one-off arena growth that can still trail the warm-up
    // batch; it does not scale with kRounds.)
    const std::uint64_t budget = static_cast<std::uint64_t>(kRounds) * items.size() + 8;
    EXPECT_LE(allocations, budget)
        << "decide_batch allocated " << allocations << " times over " << kRounds
        << " batches of " << items.size();
}

/// Allocations and admissions of a steady engine stream: a warm engine runs
/// arrivals 200..600 of a 600-request trace on the motivational platform,
/// planning around `reservations` (may be null).
struct EngineCount {
    std::uint64_t allocations = 0;
    std::size_t admitted = 0;
    std::size_t arrivals = 0;
};

EngineCount count_engine_steady_state(const ReservationTable* reservations) {
    const Platform platform = make_motivational_platform();
    CatalogParams params;
    params.type_count = 8;
    Rng catalog_rng = Rng(3).derive(1);
    const Catalog catalog = generate_catalog(platform, params, catalog_rng);
    TraceGenParams trace_params;
    trace_params.length = 600;
    Rng trace_rng = Rng(3).derive(2);
    const Trace trace = generate_trace(catalog, trace_params, trace_rng);

    HeuristicRM rm;
    NullPredictor predictor;
    const auto feed = [&](SimEngine& engine, std::size_t from, std::size_t to) {
        for (std::size_t j = from; j < to; ++j) {
            const StreamArrival single[] = {{trace.request(j), j}};
            (void)engine.stream_arrival_batch(single, trace.request(j).arrival);
        }
    };
    // Warm-up: a first engine runs the whole trace, so the solver's
    // thread-local arenas reach the trace's largest plan; the measured
    // engine then runs a prefix, so its own buffers (active set, plan
    // items, timelines, armed completions) reach their working sizes.
    {
        SimEngine warm(platform, catalog, rm, predictor, reservations, SimOptions{});
        feed(warm, 0, trace.size());
    }
    SimEngine engine(platform, catalog, rm, predictor, reservations, SimOptions{});
    constexpr std::size_t kWarmUp = 200;
    feed(engine, 0, kWarmUp);

    const std::size_t accepted_before = engine.result().accepted;
    AllocationCount count;
    count.start();
    feed(engine, kWarmUp, trace.size());
    EngineCount result;
    result.allocations = count.stop();
    result.admitted = engine.result().accepted - accepted_before;
    result.arrivals = trace.size() - kWarmUp;
    return result;
}

TEST(AllocCount, EngineSteadyStateAllocatesOnlyTheDecisionOutputs) {
#ifdef RMWP_AUDIT
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const EngineCount run = count_engine_steady_state(nullptr);
    ASSERT_GT(run.admitted, 0u);

    // Budget: each admitted Decision's assignments vector — the decision
    // outputs — and nothing per rebuild, completion or event.  (+8 absorbs
    // engine buffers that grow when the active set passes its warm-up
    // peak; it does not scale with the arrival count.)
    EXPECT_LE(run.allocations, static_cast<std::uint64_t>(run.admitted) + 8)
        << "engine allocated " << run.allocations << " times over " << run.arrivals
        << " arrivals with " << run.admitted << " admissions";
}

TEST(AllocCount, EngineSteadyStateWithAReservationKeepsTheBudget) {
#ifdef RMWP_AUDIT
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    // One critical reservation on CPU0: every plan and every schedule
    // rebuild expands its blocks, into buffers that must be reused too.
    const ReservationTable reservations(
        {CriticalTask{"ctrl", 0, /*period=*/20.0, /*offset=*/0.0, /*duration=*/2.0, 1.0}});
    const EngineCount run = count_engine_steady_state(&reservations);
    ASSERT_GT(run.admitted, 0u);

    // The unreserved budget, unchanged.
    EXPECT_LE(run.allocations, static_cast<std::uint64_t>(run.admitted) + 8)
        << "engine allocated " << run.allocations << " times over " << run.arrivals
        << " arrivals with " << run.admitted << " admissions";
}

// ---- sharded admission (DESIGN.md §15) ----

/// Four islands over eleven physical resources (mirrors
/// tests/test_shard_admission.cpp): the partition that gives the sharded
/// solver real per-bucket work.
Platform make_islands_platform() {
    PlatformBuilder builder;
    for (int k = 0; k < 8; ++k) builder.add_cpu("CPU" + std::to_string(k));
    builder.add_gpu("GPU0");
    builder.add_gpu("GPU1");
    builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    return builder.build();
}

TEST(AllocCount, ShardedSteadyStateKeepsTheOneAllocationBudget) {
#ifdef RMWP_AUDIT
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const Platform platform = make_islands_platform();
    CatalogParams params;
    params.type_count = 16;
    Rng catalog_rng = Rng(5).derive(1);
    const Catalog catalog = generate_partitioned_catalog(platform, params, 4, catalog_rng);

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 90.0));
    active.push_back(task_of(1, 1, 0.0, 110.0));
    active.push_back(task_of(2, 2, 0.0, 130.0));
    for (ActiveTask& task : active)
        task.resource = catalog.type(task.type).executable_resources().front();
    ArrivalContext context;
    context.now = 5.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(100, 3, 5.0, 80.0);
    context.predicted = {PredictedTask{4, 9.0, 60.0}};

    HeuristicRM rm;
    rm.set_shard_config({4});
    // Warm-up sizes the partition, the per-bucket sub-instances and the
    // solver arenas — all persistent thread-local state.
    (void)rm.decide(context);

    constexpr int kRounds = 200;
    AllocationCount count;
    count.start();
    std::size_t admitted = 0;
    for (int round = 0; round < kRounds; ++round) {
        const Decision decision = rm.decide(context);
        if (decision.admitted) ++admitted;
    }
    const std::uint64_t allocations = count.stop();
    EXPECT_EQ(admitted, static_cast<std::size_t>(kRounds));

    // Same budget as the unsharded path: one allocation per decision — the
    // Decision's assignments vector.  Partition rebuilds, bucket
    // sub-instances, bucket mappings and the solve cache all reuse pooled
    // capacity.
    EXPECT_LE(allocations, static_cast<std::uint64_t>(kRounds))
        << "sharded decide() regressed to " << allocations << " allocations over " << kRounds
        << " rounds";
    EXPECT_GT(allocations, 0u);
}

TEST(AllocCount, ShardedBatchOfEightAcrossFourShardsStaysPinned) {
#ifdef RMWP_AUDIT
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const Platform platform = make_islands_platform();
    CatalogParams params;
    params.type_count = 16;
    Rng catalog_rng = Rng(5).derive(1);
    const Catalog catalog = generate_partitioned_catalog(platform, params, 4, catalog_rng);

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 120.0));
    active.front().resource = catalog.type(0).executable_resources().front();
    // Eight same-instant arrivals spanning all four islands (type m % 16
    // lives in island (m % 16) % 4), so the batch loop exercises every
    // bucket and the cross-item solve cache.
    std::vector<BatchItem> items;
    for (std::size_t m = 0; m < 8; ++m)
        items.push_back({task_of(100 + m, (m * 3 + 1) % 16, 5.0,
                                 90.0 + 4.0 * static_cast<double>(m)),
                         {}});
    BatchArrivalContext batch;
    batch.now = 5.0;
    batch.platform = &platform;
    batch.catalog = &catalog;
    batch.active = active;
    batch.items = items;

    HeuristicRM rm;
    rm.set_shard_config({4});
    std::vector<Decision> out;
    rm.decide_batch(batch, out); // warm-up
    ASSERT_EQ(out.size(), items.size());

    constexpr int kRounds = 100;
    AllocationCount count;
    count.start();
    for (int round = 0; round < kRounds; ++round) {
        rm.decide_batch(batch, out);
        ASSERT_EQ(out.size(), items.size());
    }
    const std::uint64_t allocations = count.stop();

    // Explicit pinned budget for the 8-across-4 shape: one assignments
    // vector per admitted item plus a constant slack for arena growth that
    // can trail the warm-up batch (cache-entry mappings, tracked-uid
    // capacity; bucket sub-instances copy only scalar tasks).  The slack
    // must not scale with kRounds.
    const std::uint64_t budget = static_cast<std::uint64_t>(kRounds) * items.size() + 8;
    EXPECT_LE(allocations, budget)
        << "sharded decide_batch allocated " << allocations << " times over " << kRounds
        << " batches of " << items.size();
}

} // namespace
} // namespace rmwp
