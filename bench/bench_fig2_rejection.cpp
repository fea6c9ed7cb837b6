// E3 — Fig 2a / 2b: average rejection percentage with the predictor on
// (accurate) and off, for the exact optimiser and the heuristic, on the LT
// and VT deadline groups.
//
// Paper's shape: prediction lowers rejection by ~1 pp (LT) / ~9.2 pp (VT)
// for the exact RM and ~2.6 pp (LT) / ~10.2 pp (VT) for the heuristic; the
// benefit is clearly larger under tight deadlines, and the heuristic tracks
// the exact optimiser within a few points.
//
// This bench also carries the parallel engine's speedup measurement: the
// LT heuristic/off cell is timed at the configured job count and serially,
// the two outcomes are verified bit-identical, and serial_ms / parallel_ms /
// speedup land in BENCH_fig2_rejection.json.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "util/table.hpp"

int main() {
    using namespace rmwp;
    using bench::scaled_config;

    bench::Report report("fig2_rejection");

    for (const DeadlineGroup group : {DeadlineGroup::less_tight, DeadlineGroup::very_tight}) {
        const ExperimentConfig config = scaled_config(group, 50, 500);
        const char* group_name = group == DeadlineGroup::less_tight ? "LT" : "VT";
        report.add_config(group_name, config);
        if (group == DeadlineGroup::less_tight)
            bench::print_header(
                "E3", "Fig 2 — rejection % for {exact, heuristic} x {pred on, off}", config);

        ExperimentRunner runner(config);
        if (group == DeadlineGroup::less_tight)
            report.record_speedup(runner, RunSpec{RmKind::heuristic, PredictorSpec::off()});

        Table table({"RM", "predictor", "rejection %", "95% CI", "benefit (pp)", "paired p"});
        std::cout << "Fig 2" << (group == DeadlineGroup::less_tight ? "a (LT)" : "b (VT)")
                  << "\n";
        const std::string prefix = std::string(group_name) + "/";
        for (const RmKind rm : {RmKind::exact, RmKind::heuristic}) {
            const RunOutcome off = report.run(runner, RunSpec{rm, PredictorSpec::off()}, prefix);
            const RunOutcome on =
                report.run(runner, RunSpec{rm, PredictorSpec::perfect()}, prefix);
            // A paired test needs at least two traces.
            std::string p_value = "n/a";
            if (off.per_trace.size() >= 2) {
                const double p = paired_rejection_test(off.per_trace, on.per_trace).p_value;
                p_value = p < 1e-4 ? std::string("< 1e-4") : format_fixed(p, 4);
            }
            table.row()
                .cell(to_string(rm))
                .cell("off")
                .cell(off.mean_rejection_percent())
                .cell(format_ci(off.aggregate.rejection_percent))
                .cell("-")
                .cell("-");
            table.row()
                .cell(to_string(rm))
                .cell("on")
                .cell(on.mean_rejection_percent())
                .cell(format_ci(on.aggregate.rejection_percent))
                .cell(off.mean_rejection_percent() - on.mean_rejection_percent())
                .cell(p_value);
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "paper: benefit LT 1.0 pp (exact) / 2.6 pp (heuristic);\n"
                 "       benefit VT 9.17 pp (exact) / 10.2 pp (heuristic).\n"
                 "expected shape: VT benefit >> LT benefit; exact <= heuristic rejection.\n";
    return 0;
}
