// Differential tests for batched admission (DESIGN.md §13): the
// decide_batch contract at every layer of the stack.
//
//   * RM level — decide_batch is every manager's one admission body, so
//     it is checked against references that share none of its code: a
//     batch of one against a test-local Sec 4.1 ladder over from-scratch
//     PlanInstance::build and each RM's public static solver, and a
//     multi-item batch against a sequential emulation of that reference
//     over a working copy of the active set;
//   * engine level — stream_arrival_batch over coalesced same-instant
//     groups leaves the same simulation state as feeding the members as
//     groups of one at the same wake, and a group
//     whose members are all past their deadline never reaches the RM;
//   * serve level — run_serve with batch_window = 0 (coalesce identical
//     wakes) matches the unbatched loop on a bursty synthetic stream with
//     injected faults, execution-time variation, and the online predictor.
//
// Batched runs count one activation per coalesced group, so the engine- and
// serve-level comparisons check every simulated-system field *except*
// activations (and the audit counters, which also scale per activation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/baseline_rm.hpp"
#include "core/edf.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/milp_rm.hpp"
#include "obs/trace_sink.hpp"
#include "predict/online.hpp"
#include "serve/serve.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

// ---- shared fixtures ----

/// Randomized single-arrival context on the motivational platform (the
/// test_core_rm.cpp idiom): a few active tasks in assorted states plus a
/// fresh candidate and (usually) one predicted request.
struct RandomWorld {
    Platform platform = make_motivational_platform();
    Catalog catalog;
    std::vector<ActiveTask> active;
    ArrivalContext context;

    static ActiveTask task_of(TaskUid uid, TaskTypeId type, Time arrival, Time rel_deadline) {
        ActiveTask task;
        task.uid = uid;
        task.type = type;
        task.arrival = arrival;
        task.absolute_deadline = arrival + rel_deadline;
        return task;
    }

    explicit RandomWorld(std::uint64_t seed) : catalog([&] {
        CatalogParams params;
        params.type_count = 8;
        Rng catalog_rng = Rng(seed).derive(1);
        return generate_catalog(platform, params, catalog_rng);
    }()) {
        Rng rng(seed);
        const std::size_t task_count = rng.index(5);
        for (std::size_t j = 0; j < task_count; ++j) {
            ActiveTask task = task_of(j, rng.index(catalog.size()), 0.0, 0.0);
            const TaskType& type = catalog.type(task.type);
            task.absolute_deadline = rng.uniform(10.0, 120.0);
            task.resource =
                type.executable_resources()[rng.index(type.executable_resources().size())];
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
        context.candidate = task_of(100, rng.index(catalog.size()), 5.0, rng.uniform(8.0, 90.0));
        if (rng.bernoulli(0.7))
            context.predicted = {PredictedTask{rng.index(catalog.size()),
                                               5.0 + rng.uniform(0.0, 10.0),
                                               rng.uniform(6.0, 60.0)}};
    }

    /// A follow-up candidate arriving at the same instant as the first.
    [[nodiscard]] BatchItem item(TaskUid uid, Rng& rng) const {
        BatchItem item;
        item.candidate = task_of(uid, rng.index(catalog.size()), 5.0, rng.uniform(8.0, 90.0));
        if (rng.bernoulli(0.6))
            item.predicted = {PredictedTask{rng.index(catalog.size()),
                                            5.0 + rng.uniform(0.0, 10.0),
                                            rng.uniform(6.0, 60.0)}};
        return item;
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
        EXPECT_EQ(a.assignments[k].uid, b.assignments[k].uid) << what << " seed " << seed;
        EXPECT_EQ(a.assignments[k].resource, b.assignments[k].resource)
            << what << " seed " << seed;
    }
}

/// Every simulated-system field must match bit-exactly except the
/// per-activation counters: a coalesced group is one activation (and one
/// audit pass) where the sequential run counts one per member, so `b` takes
/// `a`'s `activations` and `audit_checks` before the comparison.
void expect_equivalent_modulo_activations(const TraceResult& a, TraceResult b) {
    b.activations = a.activations;
    b.audit_checks = a.audit_checks;
    EXPECT_EQ(describe_differences(a, b), "");
}

// ---- RM level ----

/// The Sec 4.1 ladder over from-scratch instances: all predicted tasks
/// first, trimming the furthest on failure, down to the prediction-free
/// plan.  Shares no code with BatchPlanner or run_admission_ladder_batch.
template <typename Solver>
Decision reference_ladder(const ArrivalContext& context, std::size_t max_predicted,
                          Solver&& solve) {
    Decision decision;
    for (std::size_t k = std::min(max_predicted, context.predicted.size()) + 1; k-- > 0;) {
        const PlanInstance instance = PlanInstance::build(context, k);
        if (const auto mapping = solve(instance)) {
            decision.admitted = true;
            decision.used_prediction = k > 0;
            decision.assignments = instance.real_assignments(*mapping);
            return decision;
        }
    }
    return decision;
}

/// BaselineRM's documented policy, restated: active tasks stay on their
/// resources, and the candidate takes the cheapest resource where its
/// physical core still passes the EDF check.
std::optional<std::vector<ResourceId>> reference_place_frozen(const PlanInstance& instance) {
    const Platform& platform = *instance.platform;
    const std::size_t candidate = instance.tasks.size() - 1;
    std::vector<ResourceId> mapping(instance.tasks.size(), 0);
    for (std::size_t j = 0; j < candidate; ++j) mapping[j] = instance.tasks[j].pinned_resource;

    const auto executable = instance.executable(candidate);
    std::vector<ResourceId> order(executable.begin(), executable.end());
    std::sort(order.begin(), order.end(), [&](ResourceId a, ResourceId b) {
        return instance.epm(candidate)[a] < instance.epm(candidate)[b];
    });
    for (const ResourceId i : order) {
        const ResourceId anchor = platform.resource(i).physical();
        std::vector<ScheduleItem> items = instance.blocks()[anchor];
        for (std::size_t j = 0; j < candidate; ++j)
            if (platform.resource(mapping[j]).physical() == anchor)
                items.push_back(instance.item_for(j, mapping[j]));
        items.push_back(instance.item_for(candidate, i));
        if (resource_feasible(platform.resource(anchor), instance.now, items)) {
            mapping[candidate] = i;
            return mapping;
        }
    }
    return std::nullopt;
}

/// The MILP's branch-and-bound budget on both sides of the comparison.
/// Under the default budget a few of these worlds take seconds per solve;
/// a tight one keeps the search deterministic and the suite fast.
milp::MilpOptions milp_budget() {
    milp::MilpOptions options;
    options.node_limit = 100;
    return options;
}

/// One arrival decided the way each RM documents it, through the public
/// static solvers only.
Decision reference_decide(const std::string& rm, const ArrivalContext& context) {
    Decision decision;
    if (rm == "heuristic") {
        decision = reference_ladder(context, context.predicted.size(), [](const PlanInstance& p) {
            return HeuristicRM::map_tasks(p);
        });
        if (!decision.admitted) decision.reason = RejectReason::heuristic_exhausted;
    } else if (rm == "exact") {
        bool proven = true;
        decision = reference_ladder(
            context, context.predicted.size(),
            [&](const PlanInstance& p) -> std::optional<std::vector<ResourceId>> {
                bool step_proven = true;
                if (auto result = ExactRM::optimize(p, ExactRM::Options{}, &step_proven))
                    return result->mapping;
                proven = proven && step_proven;
                return std::nullopt;
            });
        if (!decision.admitted)
            decision.reason =
                proven ? RejectReason::proved_infeasible : RejectReason::solver_infeasible;
    } else if (rm == "milp") {
        decision = reference_ladder(
            context, context.predicted.size(),
            [](const PlanInstance& p) -> std::optional<std::vector<ResourceId>> {
                if (auto result = MilpRM::optimize(p, milp_budget())) return result->mapping;
                return std::nullopt;
            });
        if (!decision.admitted) decision.reason = RejectReason::solver_infeasible;
    } else {
        // The baseline never plans with a prediction.
        decision = reference_ladder(context, 0, reference_place_frozen);
        if (!decision.admitted) decision.reason = RejectReason::baseline_no_fit;
    }
    return decision;
}

/// The RM-visible effect of an admission on a working active set, as the
/// engine's apply() leaves it: the candidate joins on its resource, and a
/// moved task that already started owes the new pair's migration time.
void apply_to_active(const Catalog& catalog, const Decision& decision,
                     const ActiveTask& candidate, std::vector<ActiveTask>& active) {
    for (const TaskAssignment& assignment : decision.assignments) {
        if (assignment.uid == candidate.uid) {
            ActiveTask admitted = candidate;
            admitted.resource = assignment.resource;
            active.push_back(admitted);
            continue;
        }
        auto task = std::find_if(active.begin(), active.end(),
                                 [&](const ActiveTask& t) { return t.uid == assignment.uid; });
        ASSERT_NE(task, active.end());
        if (assignment.resource == task->resource) continue;
        if (task->started)
            task->pending_overhead =
                catalog.type(task->type).migration_time(task->resource, assignment.resource);
        task->resource = assignment.resource;
    }
}

/// The batch contract's sequential semantics: each item decided by the
/// reference against the state the previous admissions left behind.
std::vector<Decision> reference_batch(const std::string& rm, const BatchArrivalContext& batch) {
    std::vector<Decision> out;
    std::vector<ActiveTask> working(batch.active.begin(), batch.active.end());
    for (const BatchItem& item : batch.items) {
        ArrivalContext context;
        context.now = batch.now;
        context.platform = batch.platform;
        context.catalog = batch.catalog;
        context.active = working;
        context.candidate = item.candidate;
        context.predicted = item.predicted;
        context.reservations = batch.reservations;
        context.health = batch.health;
        Decision decision = reference_decide(rm, context);
        if (decision.admitted)
            apply_to_active(*batch.catalog, decision, item.candidate, working);
        out.push_back(std::move(decision));
    }
    return out;
}

class BatchContract : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchContract, BatchOfOneIsBitIdenticalToDecide) {
    const RandomWorld world(GetParam());

    BatchItem only;
    only.candidate = world.context.candidate;
    only.predicted = world.context.predicted;
    BatchArrivalContext batch;
    batch.now = world.context.now;
    batch.platform = world.context.platform;
    batch.catalog = world.context.catalog;
    batch.active = world.context.active;
    batch.items = std::span<const BatchItem>(&only, 1);

    HeuristicRM heuristic;
    ExactRM exact;
    BaselineRM baseline;
    MilpRM milp(milp_budget());
    ResourceManager* const rms[] = {&heuristic, &exact, &baseline, &milp};
    for (ResourceManager* rm : rms) {
        const Decision reference = reference_decide(rm->name(), world.context);
        const Decision single = rm->decide(world.context);
        expect_same_decision(reference, single, (rm->name() + " decide").c_str(), GetParam());
        std::vector<Decision> batched;
        rm->decide_batch(batch, batched);
        ASSERT_EQ(batched.size(), 1u) << rm->name();
        expect_same_decision(reference, batched[0], (rm->name() + " batch").c_str(),
                             GetParam());
    }
}

TEST_P(BatchContract, MultiItemBatchMatchesSequentialEmulation) {
    const RandomWorld world(GetParam());
    Rng rng(GetParam() ^ 0xb417c0ffee);

    std::vector<BatchItem> items;
    items.push_back({world.context.candidate, world.context.predicted});
    const std::size_t extra = 1 + rng.index(3);
    for (std::size_t m = 0; m < extra; ++m)
        items.push_back(world.item(101 + m, rng));

    BatchArrivalContext batch;
    batch.now = world.context.now;
    batch.platform = world.context.platform;
    batch.catalog = world.context.catalog;
    batch.active = world.context.active;
    batch.items = items;

    HeuristicRM heuristic;
    ExactRM exact;
    BaselineRM baseline;
    MilpRM milp(milp_budget());
    ResourceManager* const rms[] = {&heuristic, &exact, &baseline, &milp};
    for (ResourceManager* rm : rms) {
        std::vector<Decision> fast;
        rm->decide_batch(batch, fast);
        const std::vector<Decision> reference = reference_batch(rm->name(), batch);
        ASSERT_EQ(fast.size(), items.size()) << rm->name();
        ASSERT_EQ(reference.size(), items.size()) << rm->name();
        for (std::size_t m = 0; m < items.size(); ++m)
            expect_same_decision(reference[m], fast[m], rm->name().c_str(), GetParam(), m);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchContract, ::testing::Range<std::uint64_t>(0, 60));

// ---- engine level ----

struct StreamWorld {
    Platform platform = [] {
        PlatformBuilder builder;
        builder.add_cpu("CPU1");
        builder.add_cpu("CPU2");
        builder.add_cpu("CPU3");
        builder.add_gpu("GPU");
        return builder.build();
    }();
    Catalog catalog = [this] {
        CatalogParams params;
        params.type_count = 20;
        Rng rng(11);
        return generate_catalog(platform, params, rng);
    }();
};

TEST(EngineBatch, CoalescedGroupsMatchSequentialArrivalsAtTheSameWake) {
    StreamWorld world;
    SimOptions options;
    options.execution_seed = 21;
    options.execution_time_factor_min = 0.7;

    // Bursty arrivals: groups of up to 5 requests collapsed onto one
    // shared arrival instant (the coalescing the serve loop performs).
    SyntheticSourceParams params;
    params.seed = 9;
    SyntheticArrivalSource source(world.catalog, params);
    std::vector<std::vector<Request>> groups;
    Rng shape(123);
    for (int k = 0; k < 120; ++k) {
        const std::size_t burst = 1 + shape.index(5);
        std::vector<Request> group;
        for (std::size_t m = 0; m < burst; ++m) {
            std::optional<Request> request = source.next();
            ASSERT_TRUE(request.has_value());
            if (!group.empty()) request->arrival = group.front().arrival;
            group.push_back(*request);
        }
        groups.push_back(std::move(group));
    }

    HeuristicRM sequential_rm;
    OnlinePredictor sequential_predictor(world.catalog);
    SimEngine sequential(world.platform, world.catalog, sequential_rm, sequential_predictor,
                         nullptr, options);

    HeuristicRM batched_rm;
    OnlinePredictor batched_predictor(world.catalog);
    SimEngine batched(world.platform, world.catalog, batched_rm, batched_predictor, nullptr,
                      options);

    TaskUid uid = 0;
    for (const std::vector<Request>& group : groups) {
        const Time wake = group.front().arrival;
        std::vector<StreamArrival> coalesced;
        for (const Request& request : group) {
            const StreamArrival single[] = {{request, uid}};
            (void)sequential.stream_arrival_batch(single, wake);
            coalesced.push_back({request, uid});
            ++uid;
        }
        (void)batched.stream_arrival_batch(coalesced, wake);
    }

    const TraceResult a = sequential.finish_stream();
    const TraceResult b = batched.finish_stream();
    expect_equivalent_modulo_activations(a, b);
    // The sequential run activates once per request, the batched one once
    // per group — the amortisation the batch path exists for.
    EXPECT_EQ(a.activations, a.requests);
    EXPECT_EQ(b.activations, groups.size());
}

#ifdef RMWP_OBS
/// A group whose every member missed its deadline before the wake is
/// rejected without calling the RM, so it must leave no decision-latency
/// sample behind: no admission_latency_ns record, no decision_seconds.
TEST(EngineBatch, AllDoomedGroupRecordsNoDecisionLatency) {
    StreamWorld world;
    obs::TraceSink sink(64);
    SimOptions options;
    options.sink = &sink;
    HeuristicRM rm;
    OnlinePredictor predictor(world.catalog);
    SimEngine engine(world.platform, world.catalog, rm, predictor, nullptr, options);

    const StreamArrival doomed[] = {{Request{0.0, 0, 5.0}, 0}, {Request{0.0, 1, 5.0}, 1}};
    engine.stream_arrival_batch(doomed, 10.0);
    EXPECT_EQ(engine.result().rejected, 2u);
    EXPECT_EQ(engine.result().accepted, 0u);
    EXPECT_EQ(engine.result().decision_seconds, 0.0);

    const obs::MetricsSnapshot metrics = sink.metrics().snapshot();
    const obs::MetricsSnapshot::HdrValue* latency = metrics.find_hdr("admission_latency_ns");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count, 0u);
    EXPECT_EQ(metrics.counter_value("reject.deadline_passed"), 2u);
}
#endif

// ---- serve level ----

TEST(ServeBatch, BatchWindowZeroMatchesUnbatchedUnderFaultsAndPrediction) {
    const auto run_once = [](Time batch_window) {
        StreamWorld world;
        SyntheticSourceParams params;
        params.seed = 9;
        BurstSource source(world.catalog, params, 3);
        HeuristicRM rm;
        OnlinePredictor predictor(world.catalog);
        ServeConfig config;
        config.monitor = false;
        config.max_arrivals = 600;
        config.batch_window = batch_window;
        config.faults.outage_rate = 0.3;
        config.faults.throttle_rate = 0.2;
        config.fault_seed = 17;
        config.fault_chunk = 500.0;
        config.sim.execution_seed = 21;
        config.sim.execution_time_factor_min = 0.7;
        return run_serve(world.platform, world.catalog, rm, predictor, nullptr, source, config);
    };

    const ServeResult unbatched = run_once(-1.0);
    const ServeResult batched = run_once(0.0);

    EXPECT_EQ(batched.exit_code, 0);
    EXPECT_EQ(unbatched.arrivals, batched.arrivals);
    EXPECT_EQ(unbatched.shed, batched.shed);
    expect_equivalent_modulo_activations(unbatched.result, batched.result);
    // Three-request bursts coalesce: strictly fewer activations, same
    // simulation.  The faults above exercised the rescue path in both runs.
    EXPECT_LT(batched.result.activations, unbatched.result.activations);
    EXPECT_GT(unbatched.result.rescue_activations + unbatched.result.throttle_events, 0u);
    // The online predictor scores itself identically along both paths.
    EXPECT_GT(unbatched.predictor_predictions, 0u);
    EXPECT_EQ(unbatched.predictor_predictions, batched.predictor_predictions);
    EXPECT_EQ(unbatched.predictor_hits, batched.predictor_hits);
    EXPECT_LE(unbatched.predictor_hits, unbatched.predictor_predictions);
}

} // namespace
} // namespace rmwp
