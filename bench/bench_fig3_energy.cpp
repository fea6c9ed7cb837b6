// E4 — Fig 3a / 3b: average normalised energy for the same four
// configurations as Fig 2, on the LT and VT groups.
//
// Paper's shape: energy closely follows acceptance — a smaller rejection
// percentage means more admitted workload and therefore *higher* energy;
// for VT, the exact optimiser buys its acceptance with a more favourable
// energy increase than the heuristic.
#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "util/table.hpp"

int main() {
    using namespace rmwp;
    using bench::scaled_config;

    bench::Report report("fig3_energy");

    for (const DeadlineGroup group : {DeadlineGroup::less_tight, DeadlineGroup::very_tight}) {
        const ExperimentConfig config = scaled_config(group, 50, 500);
        const char* group_name = group == DeadlineGroup::less_tight ? "LT" : "VT";
        report.add_config(group_name, config);
        if (group == DeadlineGroup::less_tight)
            bench::print_header("E4", "Fig 3 — normalized energy for {exact, heuristic} x "
                                      "{pred on, off}", config);

        ExperimentRunner runner(config);

        Table table({"RM", "predictor", "normalized energy", "acceptance %",
                     "energy per accepted pp"});
        std::cout << "Fig 3" << (group == DeadlineGroup::less_tight ? "a (LT)" : "b (VT)")
                  << "\n";
        for (const RmKind rm : {RmKind::exact, RmKind::heuristic}) {
            for (const bool predict : {false, true}) {
                const RunOutcome outcome = report.run(
                    runner,
                    RunSpec{rm, predict ? PredictorSpec::perfect() : PredictorSpec::off()},
                    std::string(group_name) + "/");
                const double acceptance = 100.0 - outcome.mean_rejection_percent();
                table.row()
                    .cell(to_string(rm))
                    .cell(predict ? "on" : "off")
                    .cell(outcome.mean_normalized_energy(), 4)
                    .cell(acceptance)
                    .cell(acceptance > 0.0 ? outcome.mean_normalized_energy() / acceptance * 100.0
                                           : 0.0,
                          4);
            }
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "expected shape: higher acceptance -> higher normalized energy (more\n"
                 "workload executed); the exact optimiser's energy-per-acceptance ratio is\n"
                 "no worse than the heuristic's.\n";
    return 0;
}
