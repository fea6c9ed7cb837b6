// E14 (ours) — decomposing the paper's machinery: how much acceptance comes
// from full replanning (remap + migrate the whole active set at every
// arrival, Sec 2) and how much from prediction?
//
// Four managers on the same traces:
//   baseline            greedy placement, tasks never move, no prediction
//   heuristic / off     the paper's Algorithm 1 without prediction
//   heuristic / on      ... with accurate prediction
//   exact / on          the optimal envelope
#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "util/table.hpp"

int main() {
    using namespace rmwp;
    using bench::scaled_config;

    bench::Report report("baseline");

    for (const DeadlineGroup group : {DeadlineGroup::less_tight, DeadlineGroup::very_tight}) {
        const ExperimentConfig config = scaled_config(group, 40, 400);
        if (group == DeadlineGroup::less_tight)
            bench::print_header("E14", "replanning vs prediction decomposition (ours)", config);
        ExperimentRunner runner(config);
        const char* group_name = group == DeadlineGroup::less_tight ? "LT" : "VT";
        report.add_config(group_name, config);

        std::cout << to_string(group) << " deadlines\n";
        Table table({"configuration", "rejection %", "gain vs baseline (pp)",
                     "normalized energy", "migrations/trace"});
        const RunOutcome baseline =
            report.run(runner, RunSpec{RmKind::baseline, PredictorSpec::off()},
                       std::string(group_name) + "/");
        struct Entry {
            const char* name;
            RunSpec spec;
        } entries[] = {
            {"baseline (greedy, frozen)", {RmKind::baseline, PredictorSpec::off()}},
            {"heuristic, pred off", {RmKind::heuristic, PredictorSpec::off()}},
            {"heuristic, pred on", {RmKind::heuristic, PredictorSpec::perfect()}},
            {"exact, pred on", {RmKind::exact, PredictorSpec::perfect()}},
        };
        for (const Entry& entry : entries) {
            const RunOutcome outcome =
                report.run(runner, entry.spec, std::string(group_name) + "/" + entry.name + ": ");
            table.row()
                .cell(entry.name)
                .cell(outcome.mean_rejection_percent())
                .cell(baseline.mean_rejection_percent() - outcome.mean_rejection_percent())
                .cell(outcome.mean_normalized_energy(), 4)
                .cell(outcome.aggregate.migrations.mean(), 1);
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "finding: the paper bundles two mechanisms; this separates the share of\n"
                 "acceptance bought by whole-set replanning from the share bought by the\n"
                 "one-step lookahead on top of it.\n";
    return 0;
}
