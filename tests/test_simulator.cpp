// Integration tests for the discrete-event simulator: the event kernel,
// execution/energy accounting, migration bookkeeping, the overhead-stall
// model, and cross-RM invariants on realistic workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

// ---- event kernel ----

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue queue;
    queue.schedule(3.0, 0, 30);
    queue.schedule(1.0, 0, 10);
    queue.schedule(2.0, 0, 20);
    EXPECT_EQ(queue.pop().payload, 10u);
    EXPECT_EQ(queue.pop().payload, 20u);
    EXPECT_EQ(queue.pop().payload, 30u);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
    EventQueue queue;
    for (std::uint64_t i = 0; i < 5; ++i) queue.schedule(7.0, 0, i);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(queue.pop().payload, i);
}

TEST(EventQueue, CancelGroupsThroughDropsGroup) {
    EventQueue queue;
    queue.schedule(1.0, 0, 1, /*group=*/5);
    queue.schedule(2.0, 0, 2, /*group=*/6);
    queue.schedule(3.0, 0, 3, /*group=*/5);
    queue.cancel_groups_through(5);
    EXPECT_EQ(queue.pop().payload, 2u);
    EXPECT_TRUE(queue.empty());
    EXPECT_THROW(queue.schedule(4.0, 0, 4, 5), precondition_error); // dead group
}

TEST(EventQueue, CancellationWatermarkSparesGroupZeroAndLaterGroups) {
    EventQueue queue;
    queue.schedule(1.0, 0, 1, /*group=*/1);
    queue.schedule(2.0, 0, 2, /*group=*/0);
    queue.schedule(3.0, 0, 3, /*group=*/2);
    queue.schedule(4.0, 0, 4, /*group=*/3);
    queue.schedule(5.0, 0, 5, /*group=*/4);
    queue.cancel_groups_through(1);
    queue.cancel_groups_through(3); // drops 2 and 3 as well
    queue.cancel_groups_through(3); // idempotent at the watermark
    EXPECT_EQ(queue.pop().payload, 2u); // group 0 is never cancelled
    EXPECT_EQ(queue.pop().payload, 5u);
    EXPECT_TRUE(queue.empty());
    EXPECT_THROW(queue.schedule(6.0, 0, 6, 2), precondition_error); // below the watermark
    queue.schedule(6.0, 0, 6, /*group=*/0);
    queue.schedule(7.0, 0, 7, /*group=*/4);
    EXPECT_THROW(queue.cancel_groups_through(2), precondition_error); // not monotone
    EXPECT_THROW(queue.cancel_groups_through(0), precondition_error); // group 0
    EXPECT_EQ(queue.pop().payload, 6u);
    EXPECT_EQ(queue.pop().payload, 7u);
}

TEST(EventQueue, NextTimePeeks) {
    EventQueue queue;
    queue.schedule(9.0, 0, 1);
    EXPECT_DOUBLE_EQ(queue.next_time(), 9.0);
    EXPECT_EQ(queue.scheduled_count(), 1u);
}

TEST(EventQueue, EmptyPopThrows) {
    EventQueue queue;
    EXPECT_THROW(std::ignore = queue.pop(), precondition_error);
}

// ---- single-task accounting ----

struct MiniWorld {
    Platform platform = make_motivational_platform();
    Catalog catalog = [] {
        const std::size_t n = 3;
        std::vector<std::vector<double>> cm(n, std::vector<double>(n, 1.0));
        std::vector<std::vector<double>> em(n, std::vector<double>(n, 0.5));
        for (std::size_t i = 0; i < n; ++i) cm[i][i] = em[i][i] = 0.0;
        std::vector<TaskType> types;
        types.emplace_back(0, std::vector<double>{8.0, 12.0, 5.0},
                           std::vector<double>{7.3, 8.4, 2.0}, cm, em);
        types.emplace_back(1, std::vector<double>{7.0, 8.5, 3.0},
                           std::vector<double>{6.2, 7.5, 1.5}, cm, em);
        return Catalog(std::move(types));
    }();
};

TEST(Simulator, SingleTaskConsumesExactlyItsEnergy) {
    const MiniWorld world;
    const Trace trace({Request{0.0, 0, 100.0}});
    HeuristicRM rm;
    NullPredictor off;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, off);
    EXPECT_EQ(result.accepted, 1u);
    EXPECT_EQ(result.completed, 1u);
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.migrations, 0u);
    // Energy-greedy mapping: the GPU at 2 J.
    EXPECT_NEAR(result.total_energy, 2.0, 1e-9);
}

TEST(Simulator, EmptyishTraceAndEndOfTrace) {
    const MiniWorld world;
    const Trace trace({Request{0.0, 1, 50.0}});
    ExactRM rm;
    OraclePredictor oracle;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, oracle);
    EXPECT_EQ(result.requests, 1u);
    EXPECT_EQ(result.accepted, 1u);
    // No next request to predict: the plan cannot have used prediction.
    EXPECT_EQ(result.plans_with_prediction, 0u);
}

TEST(Simulator, RejectionLeavesStateUntouched) {
    const MiniWorld world;
    // Scenario (a) of Fig 1: tau_2 must be rejected; tau_1 still completes.
    const Trace trace({Request{0.0, 0, 8.0}, Request{1.0, 1, 5.0}});
    HeuristicRM rm;
    NullPredictor off;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, off);
    EXPECT_EQ(result.accepted, 1u);
    EXPECT_EQ(result.rejected, 1u);
    EXPECT_EQ(result.completed, 1u);
    EXPECT_NEAR(result.total_energy, 2.0, 1e-9);
}

TEST(Simulator, PredictionCausesReservationAndBothComplete) {
    const MiniWorld world;
    const Trace trace({Request{0.0, 0, 8.0}, Request{1.0, 1, 5.0}});
    HeuristicRM rm;
    OraclePredictor oracle;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, oracle);
    EXPECT_EQ(result.accepted, 2u);
    EXPECT_EQ(result.completed, 2u);
    EXPECT_NEAR(result.total_energy, 7.3 + 1.5, 1e-9);
    EXPECT_GE(result.plans_with_prediction, 1u);
}

TEST(Simulator, MigrationChargesEnergyAndOverhead) {
    const MiniWorld world;
    // tau_1 (type 0, d=100) starts on the GPU (cheapest).  tau_2 (type 1,
    // d=5) then needs the GPU; tau_1 is pinned there though...  so instead:
    // make tau_1 start on a CPU by occupying the GPU first with tau_0.
    // Simpler: verify migration accounting directly through a crafted
    // two-request scenario where the RM moves a started CPU task.
    //
    // t=0: tau_0 type 0 d=9 -> GPU busy [0, 5).
    //      tau_1 type 1 d=40 (arrives t=0.5) -> cheapest remaining is GPU
    //      after tau_0?  EDF would queue it; to force a CPU start and later
    //      migration we give it a deadline that allows requeueing.
    const Trace trace({Request{0.0, 0, 9.0}, Request{0.5, 1, 40.0}});
    HeuristicRM rm;
    NullPredictor off;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, off);
    // Whatever the exact choices, the invariants hold:
    EXPECT_EQ(result.accepted + result.rejected, 2u);
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_DOUBLE_EQ(result.migration_energy, 0.5 * static_cast<double>(result.migrations));
}

TEST(Simulator, DeterministicAcrossRuns) {
    const Platform platform = make_paper_platform();
    Rng rng(5);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 150;
    Rng trace_rng(6);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    auto run_once = [&] {
        HeuristicRM rm;
        OraclePredictor oracle;
        return simulate_trace(platform, catalog, trace, rm, oracle);
    };
    const TraceResult a = run_once();
    const TraceResult b = run_once();
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
    EXPECT_EQ(a.migrations, b.migrations);
}

TEST(Simulator, OverheadStallCausesAbortsOnlyWithOverhead) {
    const Platform platform = make_paper_platform();
    Rng rng(15);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 250;
    params.interarrival_mean = 5.0;
    params.interarrival_stddev = 1.5;
    Rng trace_rng(16);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM rm;
    OraclePredictor clean;
    const TraceResult no_overhead = simulate_trace(platform, catalog, trace, rm, clean);
    EXPECT_EQ(no_overhead.aborted, 0u);

    OraclePredictor costly(0.5); // 10 % of the mean interarrival
    const TraceResult with_overhead = simulate_trace(platform, catalog, trace, rm, costly);
    EXPECT_GT(with_overhead.aborted, 0u);
    EXPECT_GE(with_overhead.loss_percent(), with_overhead.rejection_percent());
    EXPECT_EQ(with_overhead.deadline_misses, 0u); // doomed tasks abort, never miss
}

TEST(Simulator, SlackOnlyOverheadModelNeverAborts) {
    const Platform platform = make_paper_platform();
    Rng rng(17);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 200;
    Rng trace_rng(18);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM rm;
    OraclePredictor costly(0.5);
    SimOptions options;
    options.overhead_stalls_platform = false;
    const TraceResult result =
        simulate_trace(platform, catalog, trace, rm, costly, options);
    EXPECT_EQ(result.aborted, 0u);
    EXPECT_EQ(result.deadline_misses, 0u);
}

// ---- cross-RM invariants on realistic workloads ----

struct InvariantCase {
    std::uint64_t seed;
    bool exact;
    bool predict;
};

class SimulatorInvariants
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {};

TEST_P(SimulatorInvariants, FirmGuaranteesAndConservation) {
    const auto [seed, use_exact, use_prediction] = GetParam();

    const Platform platform = make_paper_platform();
    Rng rng(seed);
    Rng catalog_rng = rng.derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, catalog_rng);
    TraceGenParams params;
    params.length = 120;
    params.group = seed % 2 == 0 ? DeadlineGroup::very_tight : DeadlineGroup::less_tight;
    Rng trace_rng = rng.derive(2);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM heuristic;
    ExactRM exact;
    ResourceManager& rm = use_exact ? static_cast<ResourceManager&>(exact)
                                    : static_cast<ResourceManager&>(heuristic);
    std::unique_ptr<Predictor> predictor;
    if (use_prediction) predictor = std::make_unique<OraclePredictor>();
    else predictor = std::make_unique<NullPredictor>();

    const TraceResult result =
        simulate_trace(platform, catalog, trace, rm, *predictor);

    // Firm real-time: every admitted task completed by its deadline.
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.aborted, 0u);
    EXPECT_EQ(result.accepted + result.rejected, result.requests);
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_GT(result.total_energy, 0.0);
    EXPECT_GE(result.migration_energy, 0.0);
    EXPECT_LE(result.migration_energy, result.total_energy);
    EXPECT_EQ(result.activations, result.requests);
    if (!use_prediction) {
        EXPECT_EQ(result.plans_with_prediction, 0u);
    }
    EXPECT_GT(result.reference_energy, 0.0);
    EXPECT_GE(result.rejection_percent(), 0.0);
    EXPECT_LE(result.rejection_percent(), 100.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SimulatorInvariants,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                                            ::testing::Bool(), ::testing::Bool()));

TEST(Simulator, PredictionNeverBreaksGuarantees) {
    // Even a maliciously wrong predictor must not cause deadline misses —
    // prediction is a planning constraint, not a promise.
    struct LyingPredictor final : Predictor {
        [[nodiscard]] std::string name() const override { return "liar"; }
        void observe(const Trace&, std::size_t) override {}
        [[nodiscard]] std::optional<PredictedTask> predict_next(const Trace& trace,
                                                                std::size_t index,
                                                                Time now) override {
            if (index + 1 >= trace.size()) return std::nullopt;
            // Claim a huge task is about to arrive with a tiny deadline.
            return PredictedTask{0, now + 0.1, 1.0};
        }
    };

    const Platform platform = make_paper_platform();
    Rng rng(77);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 150;
    Rng trace_rng(78);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM rm;
    LyingPredictor liar;
    const TraceResult result = simulate_trace(platform, catalog, trace, rm, liar);
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.completed, result.accepted);
}

} // namespace
} // namespace rmwp
