// E5/E6 — Fig 4a / 4b: rejection percentage under degraded prediction
// accuracy, VT group.
//
// Fig 4a sweeps task-type accuracy: at accuracy a the identity is predicted
// incorrectly with probability 1-a at each step (arrival time exact).
// Fig 4b sweeps arrival-time accuracy: accuracy a means the normalised RMSE
// of the arrival-time prediction is 1-a (identity exact).
//
// Paper's shape: rejection rises monotonically as accuracy drops, towards
// the predictor-off level; at accuracy 0.25 prediction no longer offers any
// sensible benefit.
#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "util/table.hpp"

int main() {
    using namespace rmwp;
    using bench::scaled_config;

    bench::Report report("fig4_accuracy");

    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 50, 500);
    bench::print_header("E5/E6", "Fig 4 — rejection % vs prediction accuracy (VT group)",
                        config);
    report.add_config("VT", config);
    ExperimentRunner runner(config);

    for (const RmKind rm : {RmKind::exact, RmKind::heuristic}) {
        const RunOutcome off = report.run(runner, RunSpec{rm, PredictorSpec::off()});

        std::cout << "Fig 4a — task-type accuracy sweep (" << to_string(rm) << ")\n";
        Table type_table({"type accuracy", "rejection %", "95% CI"});
        for (const double accuracy : {1.0, 0.75, 0.5, 0.25}) {
            PredictorSpec spec;
            spec.kind = PredictorSpec::Kind::noisy;
            spec.type_accuracy = accuracy;
            const RunOutcome outcome = report.run(runner, RunSpec{rm, spec}, "type/");
            type_table.row().cell(accuracy, 2).cell(outcome.mean_rejection_percent()).cell(
                format_ci(outcome.aggregate.rejection_percent));
        }
        type_table.row().cell("off").cell(off.mean_rejection_percent()).cell(
            format_ci(off.aggregate.rejection_percent));
        type_table.print(std::cout);

        std::cout << "\nFig 4b — arrival-time accuracy sweep (" << to_string(rm) << ")\n";
        Table time_table({"time accuracy (1-NRMSE)", "rejection %", "95% CI"});
        for (const double accuracy : {1.0, 0.75, 0.5, 0.25}) {
            PredictorSpec spec;
            spec.kind = PredictorSpec::Kind::noisy;
            spec.time_nrmse = 1.0 - accuracy;
            const RunOutcome outcome = report.run(runner, RunSpec{rm, spec}, "time/");
            time_table.row().cell(accuracy, 2).cell(outcome.mean_rejection_percent()).cell(
                format_ci(outcome.aggregate.rejection_percent));
        }
        time_table.row().cell("off").cell(off.mean_rejection_percent()).cell(
            format_ci(off.aggregate.rejection_percent));
        time_table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "expected shape: rejection increases as either accuracy drops and\n"
                 "approaches the predictor-off row; ~0.25 accuracy offers no benefit.\n";
    return 0;
}
