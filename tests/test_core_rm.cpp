// Tests for the resource managers: Algorithm 1 (heuristic), the
// branch-and-bound exact optimiser, admission/fallback semantics, and
// randomized cross-validation against brute-force enumeration.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <tuple>

#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/oracle.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

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

/// Exhaustive search over all mappings (ground truth for the optimisers).
struct BruteForce {
    const PlanInstance& instance;
    double best = std::numeric_limits<double>::infinity();
    std::vector<ResourceId> mapping;
    std::vector<ResourceId> best_mapping;

    explicit BruteForce(const PlanInstance& inst) : instance(inst) {
        mapping.assign(inst.tasks.size(), 0);
        recurse(0, 0.0);
    }

    void recurse(std::size_t j, double cost) {
        if (j == instance.tasks.size()) {
            if (!feasible()) return;
            if (cost < best) {
                best = cost;
                best_mapping = mapping;
            }
            return;
        }
        for (const ResourceId i : instance.executable(j)) {
            mapping[j] = i;
            recurse(j + 1, cost + instance.epm(j)[i]);
        }
    }

    [[nodiscard]] bool feasible() const {
        for (ResourceId i = 0; i < instance.resource_count(); ++i) {
            std::vector<ScheduleItem> items;
            for (std::size_t j = 0; j < instance.tasks.size(); ++j)
                if (mapping[j] == i) items.push_back(instance.item_for(j, i));
            if (!resource_feasible(instance.platform->resource(i), instance.now, items))
                return false;
        }
        return true;
    }

    [[nodiscard]] bool found() const { return !best_mapping.empty(); }
};

// ---- motivational-example decisions at the unit level ----

TEST(HeuristicRM, SingleTaskGoesToCheapestResource) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();
    ArrivalContext context;
    context.now = 0.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate = task_of(0, 0, 0.0, 8.0);

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    ASSERT_EQ(decision.assignments.size(), 1u);
    EXPECT_EQ(decision.assignments[0].resource, 2u); // GPU: 2 J vs 7.3/8.4 J
}

TEST(HeuristicRM, PredictionDivertsTaskOffTheGpu) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();
    ArrivalContext context;
    context.now = 0.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate = task_of(0, 0, 0.0, 8.0);
    context.predicted = {PredictedTask{1, 1.0, 5.0}};

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    EXPECT_TRUE(decision.used_prediction);
    // tau_1 must leave the GPU for the predicted tau_2: CPU1 is the only
    // resource where it still meets its deadline (8 <= 8).
    EXPECT_EQ(decision.assignments[0].resource, 0u);
}

TEST(HeuristicRM, RejectsWhenGpuPinnedTaskBlocksUrgentArrival) {
    // Scenario (a) of Fig 1: tau_1 runs pinned on the GPU; tau_2 arrives at
    // t=1 with no feasible resource left.
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();

    ActiveTask running = task_of(0, 0, 0.0, 8.0);
    running.resource = 2;
    running.started = true;
    running.pinned = true;
    running.remaining_fraction = 4.0 / 5.0; // 1 of 5 ms done

    const std::vector<ActiveTask> active{running};
    ArrivalContext context;
    context.now = 1.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(1, 1, 1.0, 5.0);

    HeuristicRM heuristic;
    ExactRM exact;
    EXPECT_FALSE(heuristic.decide(context).admitted);
    EXPECT_FALSE(exact.decide(context).admitted);
}

TEST(HeuristicRM, FallsBackToNoPredictionPlan) {
    // The predicted task saturates the platform; planning with it fails but
    // the arriving task must still be admitted via the Sec 4.1 fallback.
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();
    ArrivalContext context;
    context.now = 0.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate = task_of(0, 0, 0.0, 8.0);
    // Predicted task with an impossible deadline.
    context.predicted = {PredictedTask{1, 0.5, 0.1}};

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    EXPECT_FALSE(decision.used_prediction);
}

TEST(HeuristicRM, AssignmentsCoverActiveSetPlusCandidate) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();

    std::vector<ActiveTask> active{task_of(0, 0, 0.0, 50.0), task_of(1, 1, 0.0, 60.0)};
    active[0].resource = 0;
    active[1].resource = 1;
    ArrivalContext context;
    context.now = 1.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(2, 1, 1.0, 40.0);

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    EXPECT_EQ(decision.assignments.size(), 3u);
    const WindowSchedule schedule = realize_decision(context, decision);
    EXPECT_TRUE(schedule.feasible);
}

TEST(HeuristicRM, RegretTieGoesToTheFirstTaskInInstanceOrder) {
    // Lines 8-23 pick the maximum regret, the first task on ties.  Two
    // identical tau_1 instances tie at regret 7.3 - 2.0 (CPU2 misses the
    // deadline).  The GPU fits only one of them before the shared deadline,
    // so the first in instance order (the active set, then the candidate)
    // takes it and the other falls back to CPU1.  Both mappings cost the
    // same energy: only the tie rule tells them apart.
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();
    std::vector<ActiveTask> active{task_of(0, 0, 0.0, 8.0)};
    active[0].resource = 0;
    ArrivalContext context;
    context.now = 0.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(1, 0, 0.0, 8.0);

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    ASSERT_EQ(decision.assignments.size(), 2u);
    EXPECT_EQ(decision.assignments[0].uid, 0u);
    EXPECT_EQ(decision.assignments[0].resource, 2u); // first of the tie: GPU
    EXPECT_EQ(decision.assignments[1].uid, 1u);
    EXPECT_EQ(decision.assignments[1].resource, 0u); // CPU1
}

TEST(ExactRM, MatchesPaperObjectiveOnTable1) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();
    ArrivalContext context;
    context.now = 0.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate = task_of(0, 0, 0.0, 8.0);
    context.predicted = {PredictedTask{1, 1.0, 5.0}};

    const PlanInstance instance = PlanInstance::build(context, true);
    const auto result = ExactRM::optimize(instance);
    ASSERT_TRUE(result.has_value());
    // tau_1 on CPU1 (7.3 J) + predicted tau_2 on GPU (1.5 J).
    EXPECT_NEAR(result->energy, 8.8, 1e-9);
    EXPECT_TRUE(result->proven_optimal);
}

TEST(ExactRM, PinnedTaskStaysPut) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();

    ActiveTask pinned = task_of(0, 0, 0.0, 20.0);
    pinned.resource = 2;
    pinned.started = true;
    pinned.pinned = true;
    pinned.remaining_fraction = 0.5;

    const std::vector<ActiveTask> active{pinned};
    ArrivalContext context;
    context.now = 1.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(1, 1, 1.0, 30.0);

    HeuristicRM heuristic;
    ExactRM exact;
    for (ResourceManager* rm : std::initializer_list<ResourceManager*>{&heuristic, &exact}) {
        const Decision decision = rm->decide(context);
        ASSERT_TRUE(decision.admitted);
        for (const TaskAssignment& assignment : decision.assignments)
            if (assignment.uid == 0) {
                EXPECT_EQ(assignment.resource, 2u);
            }
    }
}

// ---- randomized cross-validation ----

struct RandomInstance {
    Platform platform = make_motivational_platform();
    Catalog catalog;
    std::vector<ActiveTask> active;
    ArrivalContext context;

    static Catalog make_catalog(const Platform& platform, std::uint64_t seed) {
        CatalogParams params;
        params.type_count = 8;
        Rng catalog_rng = Rng(seed).derive(1);
        return generate_catalog(platform, params, catalog_rng);
    }

    explicit RandomInstance(std::uint64_t seed, std::size_t max_tasks = 5)
        : catalog(make_catalog(platform, seed)) {
        Rng rng(seed);

        const std::size_t task_count = rng.index(max_tasks);
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
        if (rng.bernoulli(0.7)) {
            context.predicted = {PredictedTask{rng.index(catalog.size()),
                                               5.0 + rng.uniform(0.0, 10.0),
                                               rng.uniform(6.0, 60.0)}};
        }
    }
};

class RmCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RmCrossValidation, ExactMatchesBruteForce) {
    const RandomInstance random(GetParam());
    for (const bool with_prediction : {false, true}) {
        const PlanInstance instance = PlanInstance::build(random.context, with_prediction);
        const BruteForce truth(instance);
        const auto exact = ExactRM::optimize(instance);
        ASSERT_EQ(exact.has_value(), truth.found());
        if (exact) {
            EXPECT_NEAR(exact->energy, truth.best, 1e-9)
                << "seed " << GetParam() << " prediction " << with_prediction;
        }
    }
}

TEST_P(RmCrossValidation, HeuristicNeverBeatsExactAndIsAlwaysFeasible) {
    const RandomInstance random(GetParam());
    for (const bool with_prediction : {false, true}) {
        const PlanInstance instance = PlanInstance::build(random.context, with_prediction);
        const auto heuristic = HeuristicRM::map_tasks(instance);
        const auto exact = ExactRM::optimize(instance);
        if (heuristic) {
            // Whatever the heuristic maps must be feasible...
            double energy = 0.0;
            for (ResourceId i = 0; i < instance.resource_count(); ++i) {
                std::vector<ScheduleItem> items;
                for (std::size_t j = 0; j < instance.tasks.size(); ++j)
                    if ((*heuristic)[j] == i) items.push_back(instance.item_for(j, i));
                EXPECT_TRUE(
                    resource_feasible(instance.platform->resource(i), instance.now, items));
            }
            for (std::size_t j = 0; j < instance.tasks.size(); ++j)
                energy += instance.epm(j)[(*heuristic)[j]];
            // ... and the exact optimum can only be cheaper.
            ASSERT_TRUE(exact.has_value());
            EXPECT_LE(exact->energy, energy + 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, RmCrossValidation,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(ExactRM, NodeLimitReturnsBestEffort) {
    const RandomInstance random(17, /*max_tasks=*/5);
    const PlanInstance instance = PlanInstance::build(random.context, true);
    ExactRM::Options options;
    options.node_limit = 2; // absurdly small
    const auto result = ExactRM::optimize(instance, options);
    if (result) {
        EXPECT_FALSE(result->proven_optimal);
    }
}

// ---- pinned search effort on fixed instances ----

/// Solves with the exact search and keeps a copy of every instance it is
/// given: the admission instances of a whole trace run, as the exact RM
/// meets them.
class RecordingExactRM final : public LadderRM {
public:
    [[nodiscard]] std::optional<std::span<const ResourceId>> solve(const PlanInstance& instance,
                                                                   Purpose purpose,
                                                                   bool& proven) const override {
        seen.push_back(instance);
        return exact_.solve(instance, purpose, proven);
    }
    [[nodiscard]] std::string name() const override { return "recording-exact"; }

    mutable std::vector<PlanInstance> seen;

private:
    [[nodiscard]] RejectReason rejection(bool proven) const override {
        return proven ? RejectReason::proved_infeasible : RejectReason::solver_infeasible;
    }
    [[nodiscard]] bool decomposes() const noexcept override { return false; }

    ExactRM exact_;
};

struct PinnedSearch {
    std::string group;
    std::size_t index = 0; ///< position in the run's solve sequence
    std::size_t tasks = 0;
    std::uint64_t nodes = 0;
    std::vector<ResourceId> mapping;
};

/// One row in the initializer syntax of the pinned table below.
std::string format_search(const PinnedSearch& pin) {
    std::ostringstream out;
    out << "{\"" << pin.group << "\", " << pin.index << ", " << pin.tasks << ", " << pin.nodes
        << ", {";
    for (std::size_t j = 0; j < pin.mapping.size(); ++j)
        out << (j > 0 ? ", " : "") << pin.mapping[j];
    out << "}},";
    return out.str();
}

// The exact search's node count is a pure function of the instance and of
// the search's order, bounds and tie rules, so together with the returned
// mapping it pins the search itself: a port that explores one node more or
// less, or returns another optimum, fails here.  The instances are the
// solves of per-arrival oracle runs over the VT and LT traces of the golden
// world in tests/test_simulator.cpp; the LT ones hold 20-23 tasks.
TEST(ExactRM, NodeCountsPinnedOnFixedInstances) {
    const Platform platform = make_paper_platform();
    Rng catalog_rng = Rng(2024).derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, catalog_rng);

    const std::vector<PinnedSearch> pinned = {
        // clang-format off
        {"VT", 42, 9, 31, {3, 5, 5, 5, 5, 5, 4, 5, 5}},
        {"VT", 95, 8, 31, {5, 5, 5, 5, 3, 5, 5, 0}},
        {"VT", 119, 11, 52, {3, 5, 5, 5, 5, 5, 3, 5, 4, 5, 5}},
        {"VT", 121, 11, 55, {5, 5, 1, 5, 5, 0, 4, 5, 5, 5, 5}},
        {"LT", 106, 21, 287, {5, 5, 5, 5, 5, 5, 0, 5, 5, 5, 5, 5, 5, 0, 5, 5, 5, 5, 5, 5, 3}},
        {"LT", 107, 22, 674, {5, 5, 5, 5, 4, 5, 0, 5, 5, 5, 5, 5, 5, 0, 5, 5, 5, 5, 5, 5, 5, 5}},
        {"LT", 110, 22, 1164, {5, 5, 5, 4, 5, 0, 5, 5, 5, 5, 5, 0, 5, 5, 5, 5, 5, 3, 5, 5, 5, 4}},
        {"LT", 111, 23, 6865, {5, 5, 5, 4, 5, 0, 5, 5, 5, 5, 5, 0, 5, 5, 5, 5, 5, 3, 5, 5, 5, 4, 2}},
        {"LT", 112, 23, 1219, {5, 5, 5, 4, 5, 5, 5, 5, 5, 3, 0, 5, 5, 5, 5, 5, 3, 5, 5, 5, 4, 5, 5}},
        {"LT", 119, 21, 150, {5, 5, 5, 5, 3, 5, 5, 5, 5, 5, 3, 5, 4, 5, 5, 5, 5, 5, 5, 5, 5}},
        // clang-format on
    };

    std::vector<PinnedSearch> actual;
    std::string report;
    for (const DeadlineGroup group : {DeadlineGroup::very_tight, DeadlineGroup::less_tight}) {
        TraceGenParams params;
        params.length = 120;
        params.group = group;
        Rng trace_rng = Rng(2024).derive(2);
        const Trace trace = generate_trace(catalog, params, trace_rng);
        RecordingExactRM rm;
        OraclePredictor oracle;
        (void)simulate_trace(platform, catalog, trace, rm, oracle, SimOptions{});
        for (const PinnedSearch& pin : pinned) {
            if (pin.group != to_string(group)) continue;
            ASSERT_LT(pin.index, rm.seen.size());
            const PlanInstance& instance = rm.seen[pin.index];
            const auto result = ExactRM::optimize(instance);
            ASSERT_TRUE(result.has_value()) << pin.group << " " << pin.index;
            actual.push_back({pin.group, pin.index, instance.tasks.size(), result->nodes,
                              result->mapping});
            report += format_search(actual.back()) + "\n";
        }
    }
    ASSERT_EQ(actual.size(), pinned.size()) << report;
    for (std::size_t k = 0; k < actual.size(); ++k)
        EXPECT_EQ(format_search(actual[k]), format_search(pinned[k])) << report;
}

} // namespace
} // namespace rmwp
