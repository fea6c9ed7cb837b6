// Cross-validation of the literal Sec 4.2 MILP encoding against the
// branch-and-bound exact optimiser.
//
// Without prediction the two optimise over the same feasible set (EDF
// prefix sums == EDF simulation), so optimal energies must match exactly.
// With prediction the MILP's chunk placement is slightly more permissive
// than the engine's EDF realisation on non-preemptable resources, so the
// MILP optimum is a lower bound: feasible whenever B&B is, never more
// expensive.
#include <gtest/gtest.h>

#include "core/exact_rm.hpp"
#include "core/milp_rm.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

struct RandomCase {
    Platform platform = make_motivational_platform();
    Catalog catalog;
    std::vector<ActiveTask> active;
    ArrivalContext context;

    static Catalog make_catalog(const Platform& platform, std::uint64_t seed) {
        CatalogParams params;
        params.type_count = 6;
        Rng catalog_rng = Rng(seed).derive(1);
        return generate_catalog(platform, params, catalog_rng);
    }

    explicit RandomCase(std::uint64_t seed) : catalog(make_catalog(platform, seed)) {
        Rng rng(seed);

        const std::size_t count = rng.index(4); // 0..3 active tasks
        for (std::size_t j = 0; j < count; ++j) {
            ActiveTask task;
            task.uid = j;
            task.type = rng.index(catalog.size());
            task.arrival = 0.0;
            task.absolute_deadline = rng.uniform(15.0, 150.0);
            const auto& executable = catalog.type(task.type).executable_resources();
            task.resource = executable[rng.index(executable.size())];
            if (rng.bernoulli(0.4)) {
                task.started = true;
                task.remaining_fraction = rng.uniform(0.3, 1.0);
                if (!platform.resource(task.resource).preemptable()) task.pinned = true;
            }
            active.push_back(task);
        }

        context.now = 2.0;
        context.platform = &platform;
        context.catalog = &catalog;
        context.active = active;
        context.candidate.uid = 50;
        context.candidate.type = rng.index(catalog.size());
        context.candidate.arrival = 2.0;
        context.candidate.absolute_deadline = 2.0 + rng.uniform(10.0, 100.0);
        if (rng.bernoulli(0.6)) {
            context.predicted = {PredictedTask{rng.index(catalog.size()),
                                               2.0 + rng.uniform(0.0, 8.0),
                                               rng.uniform(8.0, 60.0)}};
        }
    }
};

class MilpRmCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MilpRmCrossValidation, NoPredictionOptimaMatch) {
    const RandomCase random(GetParam());
    const PlanInstance instance = PlanInstance::build(random.context, false);

    const auto exact = ExactRM::optimize(instance);
    const auto milp = MilpRM::optimize(instance);

    ASSERT_EQ(exact.has_value(), milp.has_value()) << "seed " << GetParam();
    if (exact) {
        EXPECT_NEAR(exact->energy, milp->energy, 1e-5) << "seed " << GetParam();
        EXPECT_TRUE(milp->proven_optimal);
    }
}

TEST_P(MilpRmCrossValidation, WithPredictionMilpIsALowerBound) {
    const RandomCase random(GetParam());
    if (random.context.predicted.empty()) return;
    const PlanInstance instance = PlanInstance::build(random.context, true);

    const auto exact = ExactRM::optimize(instance);
    const auto milp = MilpRM::optimize(instance);

    if (exact) {
        ASSERT_TRUE(milp.has_value()) << "seed " << GetParam();
        EXPECT_LE(milp->energy, exact->energy + 1e-5) << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(RandomCases, MilpRmCrossValidation,
                         ::testing::Range<std::uint64_t>(100, 140));

TEST(MilpRm, DecideMatchesMotivationalExample) {
    const Catalog catalog = make_motivational_catalog();
    const Platform platform = make_motivational_platform();

    ArrivalContext context;
    context.now = 0.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate.uid = 0;
    context.candidate.type = 0;
    context.candidate.arrival = 0.0;
    context.candidate.absolute_deadline = 8.0;
    context.predicted = {PredictedTask{1, 1.0, 5.0}};

    MilpRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    EXPECT_TRUE(decision.used_prediction);
    EXPECT_EQ(decision.assignments[0].resource, 0u); // CPU1, leaving the GPU free
}

TEST(MilpRm, EncodingHasExpectedStructure) {
    const RandomCase random(105);
    const PlanInstance instance = PlanInstance::build(random.context, false);
    const milp::LinearProgram lp = MilpRM::encode(instance);
    // One assignment row per task, at least one EDF row per task overall.
    EXPECT_GE(lp.constraint_count(), static_cast<int>(instance.tasks.size()));
    EXPECT_GT(lp.variable_count(), 0);
}

} // namespace
} // namespace rmwp
