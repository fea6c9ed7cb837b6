// E7 — Fig 5: rejection percentage vs prediction runtime overhead, VT
// group, perfectly accurate prediction.
//
// The overhead is coefficient x (average interarrival time); the horizontal
// axis in the paper is that coefficient x 100.  The RM's decision for an
// arriving task is delayed by the overhead, consuming deadline slack.
//
// Paper's shape: once the overhead exceeds ~2-4 % of the mean interarrival
// time, even perfectly accurate prediction performs worse than no
// prediction at all.
#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "util/table.hpp"

int main() {
    using namespace rmwp;
    using bench::scaled_config;

    bench::Report report("fig5_overhead");

    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 50, 500);
    bench::print_header("E7", "Fig 5 — rejection % vs prediction overhead (VT group)", config);
    report.add_config("VT", config);
    ExperimentRunner runner(config);

    for (const RmKind rm : {RmKind::exact, RmKind::heuristic}) {
        const RunOutcome off = report.run(runner, RunSpec{rm, PredictorSpec::off()});

        std::cout << "overhead sweep (" << to_string(rm) << ")\n";
        Table table({"coeff x100", "rejection %", "loss % (rej+aborted)", "vs off (pp)"});
        for (const double coeff : {0.0, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08}) {
            PredictorSpec spec = PredictorSpec::perfect();
            spec.overhead_interarrival_coeff = coeff;
            const RunOutcome outcome = report.run(runner, RunSpec{rm, spec});
            double loss = 0.0;
            for (const TraceResult& r : outcome.per_trace) loss += r.loss_percent();
            loss /= static_cast<double>(outcome.per_trace.size());
            table.row()
                .cell(coeff * 100.0, 0)
                .cell(outcome.mean_rejection_percent())
                .cell(loss)
                .cell(loss - off.mean_rejection_percent());
        }
        table.row().cell("off").cell(off.mean_rejection_percent()).cell(
            off.mean_rejection_percent()).cell("0.00");
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "expected shape: rejection grows with overhead and crosses the\n"
                 "predictor-off level at a few percent of the mean interarrival time.\n";
    return 0;
}
