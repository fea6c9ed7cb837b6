// Cross-feature integration sweep: every extension enabled at once, under
// randomized configurations.  The invariants that must survive any
// combination of DVFS operating points, critical reservations, multi-step
// lookahead, prediction noise/overhead, execution-time variation, periodic
// activation, and injected faults (outages, throttling, permanent failures):
//   * no admitted task ever misses its deadline (aborts only with overhead
//     stalls or fault rescues);
//   * accounting conserves: accepted = completed + aborted + fault_aborted,
//     requests = accepted + rejected;
//   * energy is positive and finite, migrations carry energy consistently;
//   * runs are bit-deterministic given the same seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "core/baseline_rm.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/reservation.hpp"
#include "fault/fault.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

struct ChaosConfig {
    std::uint64_t seed = 0;
    bool dvfs = false;
    bool reservations = false;
    std::size_t lookahead = 1;
    double type_accuracy = 1.0;
    double time_nrmse = 0.0;
    double overhead = 0.0;
    double execution_factor = 1.0;
    double activation_period = 0.0;
    int rm = 0; // 0 heuristic, 1 exact, 2 baseline
    FaultParams fault; // fault injection (all-zero = fault-free)
};

ChaosConfig random_config(std::uint64_t seed) {
    Rng rng(seed * 7919 + 13);
    ChaosConfig config;
    config.seed = seed;
    config.dvfs = rng.bernoulli(0.5);
    config.reservations = rng.bernoulli(0.4);
    config.lookahead = rng.index(4); // 0..3
    config.type_accuracy = rng.uniform(0.3, 1.0);
    config.time_nrmse = rng.uniform(0.0, 0.5);
    config.overhead = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.3) : 0.0;
    config.execution_factor = rng.bernoulli(0.5) ? rng.uniform(0.4, 1.0) : 1.0;
    config.activation_period = rng.bernoulli(0.3) ? rng.uniform(2.0, 12.0) : 0.0;
    config.rm = static_cast<int>(rng.index(3));
    // Fault draws come after every pre-existing one, so the fault-free
    // subset of the sweep sees the exact configurations it always did.
    if (rng.bernoulli(0.5)) {
        config.fault.outage_rate = rng.uniform(1.0, 6.0);
        config.fault.outage_duration_mean = rng.uniform(20.0, 80.0);
        config.fault.throttle_rate = rng.bernoulli(0.5) ? rng.uniform(1.0, 4.0) : 0.0;
        config.fault.permanent_prob = rng.bernoulli(0.3) ? 0.2 : 0.0;
        config.fault.min_online = 2;
    }
    return config;
}

TraceResult run_chaos(const ChaosConfig& config) {
    PlatformBuilder builder;
    for (int i = 1; i <= 4; ++i) {
        if (config.dvfs) builder.add_cpu_with_dvfs({1.0, 0.7, 0.4}, "C" + std::to_string(i));
        else builder.add_cpu("C" + std::to_string(i));
    }
    builder.add_gpu("GPU");
    const Platform platform = builder.build();

    Rng catalog_rng = Rng(config.seed).derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{.type_count = 40},
                                             catalog_rng);

    TraceGenParams params;
    params.length = 120;
    params.group = config.seed % 2 == 0 ? DeadlineGroup::very_tight : DeadlineGroup::less_tight;
    if (config.seed % 3 == 0) {
        params.arrival_model = ArrivalModel::two_phase;
        params.type_correlation = 0.7;
    }
    Rng trace_rng = Rng(config.seed).derive(2);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    const ReservationTable reservations(
        {CriticalTask{"ctrl", platform.size() - 1, 30.0, 0.0, 6.0, 1.0},
         CriticalTask{"mon", 0, 50.0, 5.0, 8.0, 0.5}});

    PredictorSpec spec;
    spec.kind = PredictorSpec::Kind::noisy;
    spec.type_accuracy = config.type_accuracy;
    spec.time_nrmse = config.time_nrmse;
    spec.overhead = config.overhead;
    const auto predictor = make_predictor(spec, catalog, Rng(config.seed).derive(3));

    SimOptions options;
    options.lookahead = config.lookahead;
    options.execution_time_factor_min = config.execution_factor;
    options.execution_seed = config.seed;
    options.activation_period = config.activation_period;

    FaultSchedule faults;
    if (config.fault.any()) {
        Time horizon = 0.0;
        for (const Request& request : trace)
            horizon = std::max(horizon, request.absolute_deadline());
        Rng fault_rng = Rng(config.seed).derive(4);
        faults = generate_fault_schedule(platform, config.fault, horizon, fault_rng);
        options.fault_schedule = &faults;
    }

    HeuristicRM heuristic;
    // A bounded node budget keeps the sweep fast: under DVFS + throttling
    // many admission instances are infeasible, and proving that exhausts
    // the default 20M-node budget once per arrival.  Every invariant here
    // is independent of mapping optimality.
    ExactRM exact(ExactRM::Options{.node_limit = 300'000});
    BaselineRM baseline;
    ResourceManager& rm = config.rm == 0 ? static_cast<ResourceManager&>(heuristic)
                          : config.rm == 1 ? static_cast<ResourceManager&>(exact)
                                           : static_cast<ResourceManager&>(baseline);

    if (config.reservations)
        return simulate_trace(platform, catalog, trace, rm, *predictor, reservations, options);
    return simulate_trace(platform, catalog, trace, rm, *predictor, options);
}

class Chaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Chaos, InvariantsSurviveEveryFeatureCombination) {
    const ChaosConfig config = random_config(GetParam());
    const TraceResult result = run_chaos(config);

    EXPECT_EQ(result.deadline_misses, 0u)
        << "seed " << config.seed << " rm " << config.rm;
    EXPECT_EQ(result.accepted + result.rejected, result.requests);
    EXPECT_EQ(result.completed + result.aborted + result.fault_aborted, result.accepted);
    if (config.overhead == 0.0) {
        EXPECT_EQ(result.aborted, 0u);
    }
    if (!config.fault.any()) {
        EXPECT_EQ(result.resource_outages + result.throttle_events, 0u);
        EXPECT_EQ(result.fault_aborted, 0u);
        EXPECT_EQ(result.rescued, 0u);
        EXPECT_DOUBLE_EQ(result.degraded_energy, 0.0);
    }
    EXPECT_LE(result.rescue_migrations, result.migrations);
    EXPECT_LE(result.degraded_energy, result.total_energy + 1e-9);
    if (config.rm == 2) {
        EXPECT_EQ(result.rescued, 0u); // non-replanning: displaced tasks die
    }
    EXPECT_TRUE(std::isfinite(result.total_energy));
    EXPECT_GE(result.total_energy, 0.0);
    EXPECT_GE(result.migration_energy, 0.0);
    EXPECT_LE(result.migration_energy, result.total_energy + 1e-9);
    if (config.rm == 2) {
        EXPECT_EQ(result.migrations, 0u); // baseline never moves
    }
    EXPECT_LE(result.activations, result.requests);
    EXPECT_GE(result.reference_energy, 0.0);
    if (config.reservations) {
        EXPECT_GE(result.critical_energy, 0.0);
    }
}

TEST_P(Chaos, BitDeterministic) {
    const ChaosConfig config = random_config(GetParam());
    EXPECT_EQ(describe_differences(run_chaos(config), run_chaos(config)), "");
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, Chaos, ::testing::Range<std::uint64_t>(0, 40));

} // namespace
} // namespace rmwp
