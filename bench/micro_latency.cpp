// E9 — RM decision latency (google-benchmark).
//
// The paper's practicality argument rests on the heuristic being orders of
// magnitude cheaper than exact optimisation (Sec 4.2: the MILP "is not
// applicable in practice").  This microbenchmark measures one decide() call
// against the active-set size for the heuristic, the branch-and-bound exact
// optimiser, and the literal MILP encoding on the in-repo simplex solver.
// Each benchmark also reports, per decision, the EDF prefilter's verdicts
// (feasible / infeasible / unknown) and the full EDF simulations it fell
// back to, as google-benchmark counters.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/milp_rm.hpp"
#include "obs/stage_timer.hpp"
#include "platform/platform.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace rmwp;

struct Fixture {
    Platform platform = make_paper_platform();
    Catalog catalog = [] {
        Rng rng(1234);
        CatalogParams params;
        params.type_count = 24;
        return generate_catalog(make_paper_platform(), params, rng);
    }();
    std::vector<ActiveTask> active;
    ArrivalContext context;

    /// An activation with `n` active tasks spread over the resources, a new
    /// candidate, and a predicted task — deadlines sized so the instance is
    /// feasible but not trivially loose.
    explicit Fixture(std::size_t n) {
        Rng rng(99 + n);
        std::vector<double> load(platform.size(), 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            ActiveTask task;
            task.uid = j;
            task.type = rng.index(catalog.size());
            task.arrival = 0.0;
            const ResourceId resource = j % platform.size();
            task.resource = resource;
            const TaskType& type = catalog.type(task.type);
            const ResourceId home = type.executable_on(resource)
                                        ? resource
                                        : type.executable_resources().front();
            task.resource = home;
            load[home] += type.wcet(home);
            task.absolute_deadline = load[home] * 1.8 + 20.0;
            active.push_back(task);
        }

        context.now = 0.0;
        context.platform = &platform;
        context.catalog = &catalog;
        context.active = active;

        context.candidate.uid = 10000;
        context.candidate.type = 0;
        context.candidate.arrival = 0.0;
        context.candidate.absolute_deadline =
            catalog.type(0).mean_wcet() * 2.0 + 30.0;

        PredictedTask predicted;
        predicted.type = 1;
        predicted.arrival = 5.0;
        predicted.relative_deadline = catalog.type(1).min_wcet() * 1.8;
        context.predicted = {predicted};
    }
};

/// Run the benchmark loop under a stage profile and export its prefilter
/// verdicts and EDF simulations per iteration (one decision, or one
/// feasibility check) as counters.
template <typename Body>
void run_counted(benchmark::State& state, Body&& body) {
    obs::StageStats stats;
#ifdef RMWP_OBS
    const obs::StageStatsScope scope(&stats);
#endif
    for (auto _ : state) body();
    const auto per_iteration = [](std::uint64_t count) {
        return benchmark::Counter(static_cast<double>(count), benchmark::Counter::kAvgIterations);
    };
    state.counters["prefilter_feasible"] = per_iteration(stats.prefilter_feasible);
    state.counters["prefilter_infeasible"] = per_iteration(stats.prefilter_infeasible);
    state.counters["prefilter_unknown"] = per_iteration(stats.prefilter_unknown);
    state.counters["edf_simulate_calls"] =
        per_iteration(stats.cell(obs::Stage::edf_simulate).calls);
}

/// One decide() per iteration.
void run_decide(benchmark::State& state, ResourceManager& rm, const ArrivalContext& context) {
    run_counted(state, [&] {
        Decision decision = rm.decide(context);
        benchmark::DoNotOptimize(decision);
    });
}

void BM_HeuristicDecide(benchmark::State& state) {
    Fixture fixture(static_cast<std::size_t>(state.range(0)));
    HeuristicRM rm;
    run_decide(state, rm, fixture.context);
}
BENCHMARK(BM_HeuristicDecide)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64);

void BM_ExactDecide(benchmark::State& state) {
    Fixture fixture(static_cast<std::size_t>(state.range(0)));
    ExactRM rm;
    run_decide(state, rm, fixture.context);
}
BENCHMARK(BM_ExactDecide)->Arg(2)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

/// Adversarial variant: deadlines squeezed to ~1.05x the accumulated load,
/// so the branch-and-bound search has to backtrack through near-infeasible
/// assignments — the regime where exact optimisation actually hurts.
void BM_ExactDecideTight(benchmark::State& state) {
    Fixture fixture(static_cast<std::size_t>(state.range(0)));
    std::vector<ActiveTask> tight = fixture.active;
    for (ActiveTask& task : tight)
        task.absolute_deadline = (task.absolute_deadline - 20.0) / 1.8 * 1.05 + 8.0;
    fixture.context.active = tight;
    ExactRM rm;
    run_decide(state, rm, fixture.context);
}
BENCHMARK(BM_ExactDecideTight)->Arg(8)->Arg(12)->Arg(16);

void BM_HeuristicDecideTight(benchmark::State& state) {
    Fixture fixture(static_cast<std::size_t>(state.range(0)));
    std::vector<ActiveTask> tight = fixture.active;
    for (ActiveTask& task : tight)
        task.absolute_deadline = (task.absolute_deadline - 20.0) / 1.8 * 1.05 + 8.0;
    fixture.context.active = tight;
    HeuristicRM rm;
    run_decide(state, rm, fixture.context);
}
BENCHMARK(BM_HeuristicDecideTight)->Arg(8)->Arg(12)->Arg(16);

void BM_MilpDecide(benchmark::State& state) {
    Fixture fixture(static_cast<std::size_t>(state.range(0)));
    MilpRM rm;
    run_decide(state, rm, fixture.context);
}
BENCHMARK(BM_MilpDecide)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ScheduleFeasibility(benchmark::State& state) {
    Fixture fixture(static_cast<std::size_t>(state.range(0)));
    const PlanInstance instance = PlanInstance::build(fixture.context, true);
    std::vector<ScheduleItem> items;
    for (std::size_t j = 0; j < instance.tasks.size(); ++j)
        items.push_back(instance.item_for(j, instance.executable(j).front()));
    const Resource& resource = fixture.platform.resource(items.front().resource);
    run_counted(state, [&] {
        bool feasible = resource_feasible(resource, 0.0, items);
        benchmark::DoNotOptimize(feasible);
    });
}
BENCHMARK(BM_ScheduleFeasibility)->Arg(4)->Arg(16);

} // namespace

namespace rmwp::bench {

// rmwp_bench's main hands google-benchmark its command-line flags (and the
// default BENCH_micro_latency.json artefact) before any experiment runs.
void micro_latency() { benchmark::RunSpecifiedBenchmarks(); }

} // namespace rmwp::bench
