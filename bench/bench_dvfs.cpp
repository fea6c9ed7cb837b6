// E12 (ours) — DVFS ablation: what does exposing frequency levels to the
// mapper buy, and how does it interact with prediction?
//
// Same cores with and without {1.0, 0.75, 0.5} operating points, LT and VT
// deadline groups, predictor on/off.  Expected shape: large energy savings
// under loose deadlines at equal acceptance; the saving shrinks under tight
// deadlines (full speed needed); prediction benefits survive DVFS.
#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace rmwp;

Platform make_platform(bool dvfs) {
    PlatformBuilder builder;
    for (int i = 1; i <= 5; ++i) {
        if (dvfs) builder.add_cpu_with_dvfs({1.0, 0.75, 0.5}, "CPU" + std::to_string(i));
        else builder.add_cpu("CPU" + std::to_string(i));
    }
    builder.add_gpu("GPU");
    return builder.build();
}

} // namespace

int main() {
    using namespace bench;
    const std::size_t traces = env_size("RMWP_TRACES", 25);
    const std::size_t requests = env_size("RMWP_REQUESTS", 400);
    const std::uint64_t seed = env_size("RMWP_SEED", 42);

    std::cout << "E12: DVFS operating points x prediction (ours)\n"
              << "setup: " << traces << " traces x " << requests << " requests, seed " << seed
              << ", jobs " << default_jobs() << "\n\n";

    Report report("dvfs");
    const std::size_t jobs = default_jobs();

    const Platform plain = make_platform(false);
    const Platform dvfs = make_platform(true);
    Rng catalog_rng_a = Rng(seed).derive(1);
    const Catalog plain_catalog = generate_catalog(plain, CatalogParams{}, catalog_rng_a);
    Rng catalog_rng_b = Rng(seed).derive(1);
    const Catalog dvfs_catalog = generate_catalog(dvfs, CatalogParams{}, catalog_rng_b);

    Table table({"group", "platform", "predictor", "rejection %", "energy (J)",
                 "energy vs plain"});
    for (const DeadlineGroup group : {DeadlineGroup::less_tight, DeadlineGroup::very_tight}) {
        TraceGenParams params;
        params.length = requests;
        params.group = group;
        const auto trace_set =
            generate_traces(plain_catalog, params, traces, Rng(seed).derive(2));

        double plain_energy_baseline = 0.0;
        for (const bool use_dvfs : {false, true}) {
            for (const bool predict : {false, true}) {
                const WallTimer timer;
                std::vector<TraceResult> results(trace_set.size());
                parallel_for(jobs, trace_set.size(), [&](std::size_t t) {
                    const Trace& trace = trace_set[t];
                    HeuristicRM rm;
                    std::unique_ptr<Predictor> predictor;
                    if (predict) predictor = std::make_unique<OraclePredictor>();
                    else predictor = std::make_unique<NullPredictor>();
                    results[t] = use_dvfs
                                     ? simulate_trace(dvfs, dvfs_catalog, trace, rm, *predictor)
                                     : simulate_trace(plain, plain_catalog, trace, rm, *predictor);
                });
                RunningStats rejection;
                RunningStats energy;
                for (const TraceResult& result : results) {
                    rejection.add(result.rejection_percent());
                    energy.add(result.total_energy);
                }
                report.add_cell_results(std::string(to_string(group)) + "/" +
                                            (use_dvfs ? "dvfs" : "plain") + "/" +
                                            (predict ? "on" : "off"),
                                        results, timer.elapsed_ms(), jobs);
                if (!use_dvfs && !predict) plain_energy_baseline = energy.mean();
                const double delta =
                    100.0 * (energy.mean() / plain_energy_baseline - 1.0);
                table.row()
                    .cell(to_string(group))
                    .cell(use_dvfs ? "dvfs" : "plain")
                    .cell(predict ? "on" : "off")
                    .cell(rejection.mean())
                    .cell(energy.mean(), 0)
                    .cell(format_fixed(delta, 1) + " %");
            }
        }
    }
    table.print(std::cout);

    std::cout << "\nexpected shape: DVFS cuts energy sharply under LT deadlines at equal\n"
                 "(or better) acceptance; the saving shrinks under VT; the prediction\n"
                 "benefit persists on the DVFS platform.\n\n";

    // --- static-power ablation: race-to-idle vs slow-down -----------------
    std::cout << "static-energy ablation (LT group, DVFS platform, predictor off):\n";
    Table ablation({"static fraction", "energy (J)", "vs s=0"});
    double baseline = 0.0;
    for (const double s : {0.0, 0.25, 0.5, 0.75}) {
        CatalogParams params;
        params.static_energy_fraction = s;
        Rng catalog_rng = Rng(seed).derive(1);
        const Catalog catalog = generate_catalog(dvfs, params, catalog_rng);

        TraceGenParams trace_params;
        trace_params.length = requests;
        trace_params.group = DeadlineGroup::less_tight;
        const auto trace_set = generate_traces(catalog, trace_params, traces, Rng(seed).derive(2));

        const WallTimer timer;
        std::vector<TraceResult> results(trace_set.size());
        parallel_for(jobs, trace_set.size(), [&](std::size_t t) {
            HeuristicRM rm;
            NullPredictor off;
            results[t] = simulate_trace(dvfs, catalog, trace_set[t], rm, off);
        });
        RunningStats energy;
        for (const TraceResult& result : results) energy.add(result.total_energy);
        report.add_cell_results("static " + format_fixed(s, 2), results, timer.elapsed_ms(),
                                jobs);
        if (s == 0.0) baseline = energy.mean();
        ablation.row()
            .cell(s, 2)
            .cell(energy.mean(), 0)
            .cell(format_fixed(100.0 * (energy.mean() / baseline - 1.0), 1) + " %");
    }
    ablation.print(std::cout);
    std::cout << "\nwith leakage in the model, crawling at the lowest frequency stops\n"
                 "paying: the mapper settles on interior operating points and the total\n"
                 "energy rises with the static share.\n";
    return 0;
}
