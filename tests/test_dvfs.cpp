// Tests for the DVFS extension: operating-point platform construction,
// level-scaled catalog generation, physical-timeline serialisation, the
// RM's speed/energy choices, and end-to-end invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

Platform make_dvfs_platform() {
    PlatformBuilder builder;
    builder.add_cpu_with_dvfs({1.0, 0.8, 0.5}, "big");
    builder.add_cpu_with_dvfs({1.0, 0.6}, "little");
    builder.add_gpu("GPU");
    return builder.build();
}

TEST(DvfsPlatform, BuilderCreatesOperatingPoints) {
    const Platform platform = make_dvfs_platform();
    ASSERT_EQ(platform.size(), 6u); // 3 + 2 + 1
    EXPECT_EQ(platform.physical_count(), 3u);
    EXPECT_TRUE(platform.has_dvfs());

    EXPECT_EQ(platform.resource(0).name(), "big@1");
    EXPECT_EQ(platform.resource(1).name(), "big@0.8");
    EXPECT_EQ(platform.resource(2).name(), "big@0.5");
    EXPECT_EQ(platform.resource(0).physical(), 0u);
    EXPECT_EQ(platform.resource(1).physical(), 0u);
    EXPECT_EQ(platform.resource(2).physical(), 0u);
    EXPECT_DOUBLE_EQ(platform.resource(1).frequency(), 0.8);
    EXPECT_EQ(platform.resource(3).physical(), 3u);
    EXPECT_EQ(platform.resource(4).physical(), 3u);
    EXPECT_EQ(platform.resource(5).physical(), 5u);
    EXPECT_FALSE(make_paper_platform().has_dvfs());
}

TEST(DvfsPlatform, BuilderValidatesLevels) {
    PlatformBuilder builder;
    EXPECT_THROW(builder.add_cpu_with_dvfs({0.8, 0.5}), precondition_error); // must start at 1.0
    EXPECT_THROW(builder.add_cpu_with_dvfs({1.0, 1.0}), precondition_error); // strictly decreasing
    EXPECT_THROW(builder.add_cpu_with_dvfs({}), precondition_error);
}

TEST(DvfsCatalog, LevelsDeriveFromNominalDraw) {
    const Platform platform = make_dvfs_platform();
    Rng rng(31);
    const Catalog catalog = generate_catalog(platform, CatalogParams{.type_count = 40}, rng);
    for (const TaskType& type : catalog) {
        // big core: levels 1.0 / 0.8 / 0.5.
        EXPECT_NEAR(type.wcet(1), type.wcet(0) / 0.8, 1e-9);
        EXPECT_NEAR(type.wcet(2), type.wcet(0) / 0.5, 1e-9);
        EXPECT_NEAR(type.energy(1), type.energy(0) * 0.64, 1e-9);
        EXPECT_NEAR(type.energy(2), type.energy(0) * 0.25, 1e-9);
        // Level switches on one core move no state.
        EXPECT_DOUBLE_EQ(type.migration_time(0, 2), 0.0);
        EXPECT_DOUBLE_EQ(type.migration_energy(1, 0), 0.0);
        // Real migrations still cost.
        EXPECT_GT(type.migration_time(0, 3), 0.0);
        EXPECT_GT(type.migration_energy(2, 5), 0.0);
    }
}

TEST(DvfsCatalog, StaticEnergyShiftsTheOptimalLevel) {
    // cost(f) = (1-s) f^2 + s / f.  With s = 0.5 and the big core's levels
    // {1, 0.8, 0.5} the cheapest operating point is the *middle* one:
    // slowing down all the way loses to leakage.
    const Platform platform = make_dvfs_platform();
    Rng rng(32);
    CatalogParams params;
    params.type_count = 10;
    params.static_energy_fraction = 0.5;
    const Catalog catalog = generate_catalog(platform, params, rng);
    for (const TaskType& type : catalog) {
        const double e1 = type.energy(0);            // big@1.0
        EXPECT_NEAR(type.energy(1), e1 * (0.5 * 0.64 + 0.5 / 0.8), 1e-9);
        EXPECT_NEAR(type.energy(2), e1 * (0.5 * 0.25 + 0.5 / 0.5), 1e-9);
        EXPECT_LT(type.energy(1), type.energy(0)); // 0.8 beats full speed
        EXPECT_LT(type.energy(1), type.energy(2)); // ... and beats 0.5
    }
    // Validation rejects nonsense.
    params.static_energy_fraction = 1.5;
    EXPECT_THROW(params.validate(), precondition_error);
}

TEST(DvfsSchedule, LevelsOfOneCoreSerialise) {
    const Platform platform = make_dvfs_platform();
    // Two items on different operating points of the big core.
    ScheduleItem a;
    a.uid = 1;
    a.resource = 0; // big@1
    a.abs_deadline = 100.0;
    a.duration = 4.0;
    ScheduleItem b;
    b.uid = 2;
    b.resource = 2; // big@0.5
    b.abs_deadline = 50.0;
    b.duration = 6.0;

    const WindowSchedule schedule =
        build_window_schedule(platform, 0.0, std::vector{a, b});
    EXPECT_TRUE(schedule.feasible);
    // Both run on the physical timeline of resource 0, EDF order: b first.
    ASSERT_EQ(schedule.per_resource[0].segments.size(), 2u);
    EXPECT_TRUE(schedule.per_resource[1].segments.empty());
    EXPECT_TRUE(schedule.per_resource[2].segments.empty());
    EXPECT_DOUBLE_EQ(*schedule.completion_of(2), 6.0);
    EXPECT_DOUBLE_EQ(*schedule.completion_of(1), 10.0);
}

struct DvfsWorld {
    Platform platform = make_dvfs_platform();
    Catalog catalog;

    static Catalog make_catalog(const Platform& platform) {
        Rng rng = Rng(777).derive(1);
        return generate_catalog(platform, CatalogParams{.type_count = 30}, rng);
    }

    DvfsWorld() : catalog(make_catalog(platform)) {}
};

TEST(DvfsRm, LooseDeadlinePicksSlowestLevel) {
    const DvfsWorld world;
    ArrivalContext context;
    context.now = 0.0;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.candidate.uid = 1;
    context.candidate.type = 0;
    context.candidate.absolute_deadline = 10000.0; // no time pressure at all

    // With no deadline pressure the cheapest option wins.  The cheapest CPU
    // point is the lowest-frequency level of the cheaper core; the GPU may
    // still beat it (2-10x advantage) — either way the energy must be the
    // global minimum.
    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    const TaskType& type = world.catalog.type(0);
    double cheapest = type.energy(0);
    for (ResourceId i = 1; i < world.platform.size(); ++i)
        cheapest = std::min(cheapest, type.energy(i));
    EXPECT_DOUBLE_EQ(type.energy(decision.assignments[0].resource), cheapest);
}

TEST(DvfsRm, TightDeadlineForcesFasterLevel) {
    // Hand-built catalog on the DVFS platform (GPU not executable):
    //   big    @1.0/0.8/0.5: wcet 40/50/80,  energy 15/9.6/3.75
    //   little @1.0/0.6:     wcet 44/73.3,   energy 14/5.04
    // With deadline 44 only big@1 (finishes at 40) and little@1 (44) fit;
    // little@1 is the cheaper of the two, so the energy-minimal admissible
    // choice is resource 3.
    const Platform platform = make_dvfs_platform();
    const std::size_t n = platform.size();
    const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
    std::vector<TaskType> types;
    types.emplace_back(
        0,
        std::vector<double>{40.0, 50.0, 80.0, 44.0, 44.0 / 0.6, kNotExecutable},
        std::vector<double>{15.0, 9.6, 3.75, 14.0, 14.0 * 0.36, kNotExecutable}, zero, zero);
    const Catalog catalog(std::move(types));

    ArrivalContext context;
    context.now = 0.0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate.uid = 1;
    context.candidate.type = 0;
    context.candidate.absolute_deadline = 44.0;

    HeuristicRM heuristic;
    ExactRM exact;
    for (ResourceManager* rm : std::initializer_list<ResourceManager*>{&heuristic, &exact}) {
        const Decision decision = rm->decide(context);
        ASSERT_TRUE(decision.admitted);
        EXPECT_EQ(decision.assignments[0].resource, 3u) << rm->name();
    }

    // Loosening the deadline to 90 opens big@0.5 (80 <= 90, 3.75 J): the
    // slow level becomes the optimum.
    context.candidate.absolute_deadline = 90.0;
    for (ResourceManager* rm : std::initializer_list<ResourceManager*>{&heuristic, &exact}) {
        const Decision decision = rm->decide(context);
        ASSERT_TRUE(decision.admitted);
        EXPECT_EQ(decision.assignments[0].resource, 2u) << rm->name();
    }
}

TEST(DvfsEndToEnd, DvfsSavesEnergyOnLooseDeadlines) {
    // The same workload on the same cores, with and without operating
    // points: under loose deadlines DVFS must save energy without hurting
    // acceptance.
    Platform plain = PlatformBuilder{}.add_cpu("c1").add_cpu("c2").add_gpu("GPU").build();
    Platform dvfs = PlatformBuilder{}
                        .add_cpu_with_dvfs({1.0, 0.7, 0.4}, "c1")
                        .add_cpu_with_dvfs({1.0, 0.7, 0.4}, "c2")
                        .add_gpu("GPU")
                        .build();
    Rng rng_a = Rng(55).derive(1);
    const Catalog plain_catalog = generate_catalog(plain, CatalogParams{.type_count = 40}, rng_a);
    Rng rng_b = Rng(55).derive(1);
    const Catalog dvfs_catalog = generate_catalog(dvfs, CatalogParams{.type_count = 40}, rng_b);

    TraceGenParams params;
    params.length = 150;
    params.group = DeadlineGroup::less_tight;
    params.interarrival_mean = 14.0;
    params.interarrival_stddev = 4.0;
    Rng trace_rng = Rng(56).derive(2);
    const Trace trace = generate_trace(plain_catalog, params, trace_rng);

    HeuristicRM rm;
    NullPredictor off_a;
    const TraceResult plain_result = simulate_trace(plain, plain_catalog, trace, rm, off_a);
    NullPredictor off_b;
    const TraceResult dvfs_result = simulate_trace(dvfs, dvfs_catalog, trace, rm, off_b);

    EXPECT_EQ(plain_result.deadline_misses, 0u);
    EXPECT_EQ(dvfs_result.deadline_misses, 0u);
    EXPECT_LE(dvfs_result.rejected, plain_result.rejected + 2);
    EXPECT_LT(dvfs_result.total_energy, plain_result.total_energy);
}

TEST(DvfsEndToEnd, MidMigrationLevelSwitchRegression) {
    // Regression: a started task that still carried unpaid migration time
    // was switched to another operating point of the same core; the stale
    // pending overhead survived while the plan assumed it replaced, making
    // the executed schedule infeasible.  This exact configuration used to
    // throw.
    PlatformBuilder builder;
    for (int i = 1; i <= 5; ++i)
        builder.add_cpu_with_dvfs({1.0, 0.75, 0.5}, "CPU" + std::to_string(i));
    builder.add_gpu("GPU");
    const Platform platform = builder.build();
    Rng catalog_rng = Rng(42).derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, catalog_rng);

    TraceGenParams params;
    params.length = 400;
    params.group = DeadlineGroup::less_tight;
    const auto traces = generate_traces(catalog, params, 13, Rng(42).derive(2));

    HeuristicRM rm;
    OraclePredictor oracle;
    const TraceResult result =
        simulate_trace(platform, catalog, traces[12], rm, oracle);
    EXPECT_EQ(result.deadline_misses, 0u);
}

class DvfsInvariants : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(DvfsInvariants, SimulationGuaranteesHold) {
    const auto [seed, predict] = GetParam();
    const DvfsWorld world;
    TraceGenParams params;
    params.length = 120;
    params.interarrival_mean = 10.0;
    params.interarrival_stddev = 3.0;
    Rng trace_rng = Rng(seed).derive(3);
    const Trace trace = generate_trace(world.catalog, params, trace_rng);

    HeuristicRM rm;
    std::unique_ptr<Predictor> predictor;
    if (predict) predictor = std::make_unique<OraclePredictor>();
    else predictor = std::make_unique<NullPredictor>();
    const TraceResult result =
        simulate_trace(world.platform, world.catalog, trace, rm, *predictor);

    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_GT(result.total_energy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DvfsInvariants,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5), ::testing::Bool()));

TEST(DvfsExact, ExactNeverCostsMoreThanHeuristic) {
    const DvfsWorld world;
    Rng rng(88);
    for (int round = 0; round < 25; ++round) {
        ArrivalContext context;
        context.now = 0.0;
        context.platform = &world.platform;
        context.catalog = &world.catalog;
        context.candidate.uid = 1;
        context.candidate.type = rng.index(world.catalog.size());
        context.candidate.absolute_deadline = rng.uniform(30.0, 400.0);

        const PlanInstance instance = PlanInstance::build(context, 0);
        const auto heuristic = HeuristicRM::map_tasks(instance);
        const auto exact = ExactRM::optimize(instance);
        if (!heuristic) continue;
        ASSERT_TRUE(exact.has_value());
        double heuristic_energy = 0.0;
        for (std::size_t j = 0; j < instance.tasks.size(); ++j)
            heuristic_energy += instance.epm(j)[(*heuristic)[j]];
        EXPECT_LE(exact->energy, heuristic_energy + 1e-9);
    }
}

} // namespace
} // namespace rmwp
