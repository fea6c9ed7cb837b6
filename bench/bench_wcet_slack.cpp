// E13 (ours) — WCET pessimism and slack reclamation.
//
// The paper evaluates with execution time == WCET.  Real tasks finish
// early; this bench sweeps the actual-work fraction (uniform in
// [factor_min, 1] x WCET) and reports rejection and energy with the
// predictor on/off.  The RM keeps admitting against WCET (the firm
// guarantee requires it), while the simulator reclaims slack at every early
// completion.
#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
    using namespace rmwp;
    using bench::scaled_config;

    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 25, 400);
    bench::print_header("E13", "rejection/energy vs WCET pessimism (ours)", config);
    bench::Report report("wcet_slack");
    report.add_config("VT", config);
    ExperimentRunner runner(config);
    const std::size_t jobs = default_jobs();

    Table table({"actual work in", "predictor", "rejection %", "energy (J)",
                 "prediction benefit (pp)"});
    for (const double factor : {1.0, 0.9, 0.7, 0.5, 0.3}) {
        double off_rejection = 0.0;
        for (const bool predict : {false, true}) {
            const bench::WallTimer timer;
            std::vector<TraceResult> results(runner.traces().size());
            parallel_for(jobs, results.size(), [&](std::size_t t) {
                const Trace& trace = runner.traces()[t];
                HeuristicRM rm;
                SimOptions options;
                options.execution_time_factor_min = factor;
                options.execution_seed = 1000 + t;
                if (predict) {
                    OraclePredictor oracle;
                    results[t] = simulate_trace(runner.platform(), runner.catalog(), trace, rm,
                                                oracle, options);
                } else {
                    NullPredictor off;
                    results[t] = simulate_trace(runner.platform(), runner.catalog(), trace, rm,
                                                off, options);
                }
            });
            RunningStats rejection;
            RunningStats energy;
            for (const TraceResult& result : results) {
                rejection.add(result.rejection_percent());
                energy.add(result.total_energy);
            }
            report.add_cell_results("factor " + format_fixed(factor, 1) +
                                        (predict ? "/on" : "/off"),
                                    results, timer.elapsed_ms(), jobs);
            if (!predict) off_rejection = rejection.mean();
            table.row()
                .cell("[" + format_fixed(factor, 1) + ", 1.0] x WCET")
                .cell(predict ? "on" : "off")
                .cell(rejection.mean())
                .cell(energy.mean(), 0)
                .cell(predict ? format_fixed(off_rejection - rejection.mean(), 2)
                              : std::string("-"));
        }
    }
    table.print(std::cout);

    std::cout << "\nexpected shape: more WCET pessimism (smaller factor) means more\n"
                 "reclaimed slack — lower rejection and energy; the prediction benefit\n"
                 "persists because admission still reasons about worst cases.\n";
    return 0;
}
