// Tests for the execution-time-variation extension: tasks whose actual work
// is below their WCET budget complete early, the simulator reclaims the
// slack, and all firm-real-time guarantees still hold (the RM plans with the
// pessimistic WCET, so early completion can only help).
#include <gtest/gtest.h>

#include <tuple>

#include "core/heuristic_rm.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

struct VariationWorld {
    Platform platform = make_paper_platform();
    Catalog catalog;

    static Catalog make_catalog(const Platform& platform) {
        Rng rng = Rng(606).derive(1);
        return generate_catalog(platform, CatalogParams{}, rng);
    }

    VariationWorld() : catalog(make_catalog(platform)) {}

    [[nodiscard]] Trace make_trace(std::size_t length, double interarrival = 6.0) const {
        TraceGenParams params;
        params.length = length;
        params.interarrival_mean = interarrival;
        params.interarrival_stddev = interarrival / 3.0;
        Rng trace_rng = Rng(606).derive(2);
        return generate_trace(catalog, params, trace_rng);
    }
};

TEST(ExecutionVariation, FactorOneReproducesWcetBehaviour) {
    const VariationWorld world;
    const Trace trace = world.make_trace(150);
    HeuristicRM rm;

    NullPredictor off_a;
    const TraceResult baseline = simulate_trace(world.platform, world.catalog, trace, rm, off_a);

    SimOptions options;
    options.execution_time_factor_min = 1.0;
    options.execution_seed = 99; // must be irrelevant at factor 1
    NullPredictor off_b;
    const TraceResult same =
        simulate_trace(world.platform, world.catalog, trace, rm, off_b, options);

    EXPECT_EQ(describe_differences(baseline, same), "");
}

TEST(ExecutionVariation, EarlyCompletionReducesEnergyAndKeepsGuarantees) {
    const VariationWorld world;
    const Trace trace = world.make_trace(250);
    HeuristicRM rm;

    NullPredictor off_a;
    const TraceResult wcet_exact =
        simulate_trace(world.platform, world.catalog, trace, rm, off_a);

    SimOptions options;
    options.execution_time_factor_min = 0.5; // actual work uniform in [0.5, 1] x WCET
    options.execution_seed = 7;
    NullPredictor off_b;
    const TraceResult varied =
        simulate_trace(world.platform, world.catalog, trace, rm, off_b, options);

    EXPECT_EQ(varied.deadline_misses, 0u);
    EXPECT_EQ(varied.completed, varied.accepted);
    // Less actual work executed => less energy...
    EXPECT_LT(varied.total_energy, wcet_exact.total_energy);
    // ... and reclaimed slack can only help admission.
    EXPECT_GE(varied.accepted, wcet_exact.accepted);
}

TEST(ExecutionVariation, DeterministicInExecutionSeed) {
    const VariationWorld world;
    const Trace trace = world.make_trace(150);
    HeuristicRM rm;

    auto run = [&](std::uint64_t seed) {
        SimOptions options;
        options.execution_time_factor_min = 0.6;
        options.execution_seed = seed;
        NullPredictor off;
        return simulate_trace(world.platform, world.catalog, trace, rm, off, options);
    };
    const TraceResult a = run(5);
    const TraceResult c = run(6);
    EXPECT_EQ(describe_differences(a, run(5)), "");
    // A different seed draws different actual works.
    EXPECT_NE(a.total_energy, c.total_energy);
}

class VariationInvariants
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double, bool>> {};

TEST_P(VariationInvariants, GuaranteesHoldUnderVariation) {
    const auto [seed, factor, predict] = GetParam();
    const VariationWorld world;
    TraceGenParams params;
    params.length = 150;
    Rng trace_rng = Rng(seed).derive(3);
    const Trace trace = generate_trace(world.catalog, params, trace_rng);

    HeuristicRM rm;
    SimOptions options;
    options.execution_time_factor_min = factor;
    options.execution_seed = seed;
    std::unique_ptr<Predictor> predictor;
    if (predict) predictor = std::make_unique<OraclePredictor>();
    else predictor = std::make_unique<NullPredictor>();

    const TraceResult result =
        simulate_trace(world.platform, world.catalog, trace, rm, *predictor, options);
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_GT(result.total_energy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, VariationInvariants,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0.3, 0.6, 0.9),
                                            ::testing::Bool()));

} // namespace
} // namespace rmwp
