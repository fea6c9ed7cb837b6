// E8 — ablations beyond the paper: how much do Algorithm 1's design
// choices contribute, and how close does a real online predictor get to the
// oracle the paper assumes?
//
//  (1) task-selection order: max-regret (paper) vs EDF vs arrival order;
//  (2) desirability measure: remaining energy (paper) vs energy density
//      (energy per occupied millisecond);
//  (3) predictor realism: off vs online (Markov + two-phase interarrival)
//      vs noisy-at-realistic-accuracy vs oracle.  The paper's prior work
//      reports ~80-95 % type accuracy and ~17 % arrival error on real
//      streams; the noisy row uses exactly those figures.
#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/heuristic_rm.hpp"
#include "util/table.hpp"

int main() {
    using namespace rmwp;
    using bench::scaled_config;

    bench::Report report("ablations");

    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 50, 500);
    bench::print_header("E8", "ablations: Algorithm 1 design choices + predictor realism",
                        config);
    ExperimentRunner runner(config);
    report.add_config("VT", config);

    {
        std::cout << "(1) + (2): heuristic design choices, predictor on\n";
        Table table({"order", "desirability", "rejection %", "normalized energy"});
        using Options = HeuristicRM::Options;
        const std::pair<const char*, Options::Order> orders[] = {
            {"max-regret (paper)", Options::Order::max_regret},
            {"edf", Options::Order::edf},
            {"arrival", Options::Order::arrival},
        };
        const std::pair<const char*, Options::Desirability> measures[] = {
            {"energy (paper)", Options::Desirability::energy},
            {"energy density", Options::Desirability::energy_density},
        };
        for (const auto& [order_name, order] : orders) {
            for (const auto& [measure_name, measure] : measures) {
                HeuristicRM rm(Options{order, measure});
                const RunOutcome outcome =
                    report.run_with(runner, rm, PredictorSpec::perfect(),
                                    std::string(order_name) + " + " + measure_name);
                table.row()
                    .cell(order_name)
                    .cell(measure_name)
                    .cell(outcome.mean_rejection_percent())
                    .cell(outcome.mean_normalized_energy(), 4);
            }
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    {
        std::cout << "(3): predictor realism, paper heuristic\n";
        Table table({"predictor", "rejection %", "benefit vs off (pp)"});
        const RunOutcome off =
            report.run(runner, RunSpec{RmKind::heuristic, PredictorSpec::off()}, "realism/");

        PredictorSpec realistic;
        realistic.kind = PredictorSpec::Kind::noisy;
        realistic.type_accuracy = 0.875; // midpoint of the 80-95 % reported in [12, 13]
        realistic.time_nrmse = 0.17;     // "error of less than 17 %" (Sec 1)

        PredictorSpec online;
        online.kind = PredictorSpec::Kind::online;

        struct Row {
            const char* name;
            PredictorSpec spec;
        } rows[] = {
            {"off", PredictorSpec::off()},
            {"online (markov + two-phase)", online},
            {"noisy @ prior-work accuracy", realistic},
            {"oracle", PredictorSpec::perfect()},
        };
        for (const Row& row : rows) {
            const RunOutcome outcome = report.run(
                runner, RunSpec{RmKind::heuristic, row.spec},
                std::string("realism/") + row.name + ": ");
            table.row()
                .cell(row.name)
                .cell(outcome.mean_rejection_percent())
                .cell(off.mean_rejection_percent() - outcome.mean_rejection_percent());
        }
        table.print(std::cout);
    }

    {
        // On a *patterned* stream (two-phase arrivals + Markov types — the
        // structure the authors' prior work reports in real traces) the
        // online predictor closes most of the gap to the oracle.
        ExperimentConfig patterned = config;
        patterned.trace.arrival_model = ArrivalModel::two_phase;
        patterned.trace.type_correlation = 0.85;
        ExperimentRunner patterned_runner(patterned);
        report.add_config("VT patterned", patterned);

        std::cout << "\n(3b): predictor realism on a patterned stream "
                     "(two-phase arrivals, correlated types)\n";
        Table table({"predictor", "rejection %", "benefit vs off (pp)"});
        const RunOutcome off = report.run(
            patterned_runner, RunSpec{RmKind::heuristic, PredictorSpec::off()}, "patterned/");
        PredictorSpec online;
        online.kind = PredictorSpec::Kind::online;
        for (const auto& [name, spec] :
             {std::pair<const char*, PredictorSpec>{"off", PredictorSpec::off()},
              {"online (markov + two-phase)", online},
              {"oracle", PredictorSpec::perfect()}}) {
            const RunOutcome outcome = report.run(
                patterned_runner, RunSpec{RmKind::heuristic, spec},
                std::string("patterned/") + name + ": ");
            table.row()
                .cell(name)
                .cell(outcome.mean_rejection_percent())
                .cell(off.mean_rejection_percent() - outcome.mean_rejection_percent());
        }
        table.print(std::cout);
    }

    std::cout << "\nexpected: max-regret+energy (the paper's choices) is on the efficient\n"
                 "frontier; prior-work-accuracy prediction retains most of the oracle's\n"
                 "benefit (consistent with Fig 4's >= 0.75 accuracy region).\n";
    return 0;
}
