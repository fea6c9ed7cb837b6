// E2 — Sec 5.2: exact optimisation vs the fast heuristic, no prediction.
//
// Paper's numbers (500 VT + 500 LT traces):
//   * average rejection: MILP 24.5 %, heuristic 31 %;
//   * MILP acceptance >= heuristic on 88 % of traces (not 100 %: a locally
//     optimal decision can lose to a lucky suboptimal one on the long run).
//
// Both RM cells of each group run through one ExperimentRunner::run_all,
// which fans the full (cell x trace) grid across the worker threads — the
// exact optimiser's slow traces overlap the heuristic's fast ones instead of
// serialising behind them.
#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "util/table.hpp"

int main() {
    using namespace rmwp;
    using bench::scaled_config;

    bench::Report report("sec52_exact_vs_heuristic");
    report.set("note", "wall_ms is the shared wall-clock of the group's 2-spec batch");

    std::vector<TraceResult> exact_all;
    std::vector<TraceResult> heuristic_all;

    Table table({"group", "RM", "rejection %", "95% CI", "normalized energy"});
    for (const DeadlineGroup group : {DeadlineGroup::very_tight, DeadlineGroup::less_tight}) {
        const ExperimentConfig config = scaled_config(group, 50, 500);
        const char* group_name = group == DeadlineGroup::very_tight ? "VT" : "LT";
        report.add_config(group_name, config);
        if (group == DeadlineGroup::very_tight)
            bench::print_header("E2", "exact vs heuristic without prediction (paper Sec 5.2)",
                                config);

        const ExperimentRunner runner(config);
        const RunSpec specs[] = {{RmKind::exact, PredictorSpec::off()},
                                 {RmKind::heuristic, PredictorSpec::off()}};
        const bench::WallTimer timer;
        const std::vector<RunOutcome> outcomes = runner.run_all(specs);
        const double batch_ms = timer.elapsed_ms();
        const RunOutcome& exact = outcomes[0];
        const RunOutcome& heuristic = outcomes[1];
        for (const RunOutcome& outcome : outcomes)
            report.add_cell(std::string(group_name) + "/" + outcome.spec.label(), outcome,
                            batch_ms, runner.jobs());

        for (const RunOutcome* outcome : {&exact, &heuristic}) {
            table.row()
                .cell(to_string(group))
                .cell(to_string(outcome->spec.rm))
                .cell(outcome->mean_rejection_percent())
                .cell(format_ci(outcome->aggregate.rejection_percent))
                .cell(outcome->mean_normalized_energy(), 3);
        }
        exact_all.insert(exact_all.end(), exact.per_trace.begin(), exact.per_trace.end());
        heuristic_all.insert(heuristic_all.end(), heuristic.per_trace.begin(),
                             heuristic.per_trace.end());
    }
    table.print(std::cout);

    double exact_rejection = 0.0;
    double heuristic_rejection = 0.0;
    for (const TraceResult& r : exact_all) exact_rejection += r.rejection_percent();
    for (const TraceResult& r : heuristic_all) heuristic_rejection += r.rejection_percent();
    exact_rejection /= static_cast<double>(exact_all.size());
    heuristic_rejection /= static_cast<double>(heuristic_all.size());

    const PairedComparison comparison = compare_acceptance(exact_all, heuristic_all);
    std::cout << "\ncombined (VT+LT) rejection: exact " << format_fixed(exact_rejection, 2)
              << " %, heuristic " << format_fixed(heuristic_rejection, 2)
              << " %   (paper: 24.5 % vs 31 %)\n"
              << "traces where exact acceptance >= heuristic: "
              << format_fixed(comparison.a_better_or_equal_percent(), 1)
              << " %  (strictly better: " << format_fixed(comparison.a_strictly_better_percent(), 1)
              << " %; paper: higher on 88 %)\n";
    return 0;
}
