// The paper's evaluation: E1 (Table 1 / Fig 1), E2-E4 (Sec 5.2, Fig 2,
// Fig 3), E5/E6 (Fig 4), E7 (Fig 5), and the E8 ablations of Algorithm 1's
// design choices.
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"

namespace rmwp::bench {

// E1 — Table 1 / Fig 1 (Sec 3): the motivational scenarios, regenerated.
//
// Paper's rows:
//   (a) RM without prediction, tau2 at t=1 -> tau2 rejected (acceptance 1/2)
//   (b) RM with accurate prediction        -> both accepted (acceptance 2/2)
//   (c) prediction says t=1, tau2 at t=3   -> both accepted, 8.8 J
//   (c') no prediction, tau2 at t=3        -> both accepted, 3.5 J
namespace {

class FixedArrivalPredictor final : public Predictor {
public:
    explicit FixedArrivalPredictor(Time claimed_arrival) : claimed_(claimed_arrival) {}
    [[nodiscard]] std::string name() const override { return "fixed"; }
    void observe(const Trace&, std::size_t) override {}
    [[nodiscard]] std::optional<PredictedTask> predict_next(const Trace& trace, std::size_t index,
                                                            Time now) override {
        if (index + 1 >= trace.size()) return std::nullopt;
        const Request& next = trace.request(index + 1);
        return PredictedTask{next.type, std::max(claimed_, now), next.relative_deadline};
    }

private:
    Time claimed_;
};

} // namespace

void table1_motivation() {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();
    const Trace at1({Request{0.0, 0, 8.0}, Request{1.0, 1, 5.0}});
    const Trace at3({Request{0.0, 0, 8.0}, Request{3.0, 1, 5.0}});

    std::cout << "E1: Table 1 / Fig 1 motivational scenarios (paper Sec 3)\n\n";

    Report report("table1_motivation");

    for (const char* rm_name : {"heuristic", "exact"}) {
        Table table({"scenario", "accepted/total", "energy (J)", "paper"});
        auto run_case = [&](const char* label, const Trace& trace, Predictor& predictor,
                            const char* paper) {
            const WallTimer timer;
            TraceResult result;
            if (std::string(rm_name) == "heuristic") {
                HeuristicRM rm;
                result = simulate_trace(platform, catalog, trace, rm, predictor);
            } else {
                ExactRM rm;
                result = simulate_trace(platform, catalog, trace, rm, predictor);
            }
            report.add_cell_results(std::string(rm_name) + "/" + label, {&result, 1},
                                    timer.elapsed_ms(), 1);
            table.row()
                .cell(label)
                .cell(std::to_string(result.accepted) + "/" + std::to_string(result.requests))
                .cell(result.total_energy, 1)
                .cell(paper);
        };

        NullPredictor off;
        FixedArrivalPredictor accurate(1.0);
        FixedArrivalPredictor wrong(1.0);
        NullPredictor off2;
        run_case("(a)  no prediction, tau2@1", at1, off, "1/2 accepted");
        run_case("(b)  accurate prediction", at1, accurate, "2/2 accepted");
        run_case("(c)  wrong prediction, tau2@3", at3, wrong, "2/2, 8.8 J");
        run_case("(c') no prediction,  tau2@3", at3, off2, "2/2, 3.5 J");

        std::cout << "resource manager: " << rm_name << '\n';
        table.print(std::cout);
        std::cout << '\n';
    }
}

// E2-E4 — one grid read three ways: {exact, heuristic} x {predictor off,
// accurate} on the LT and VT deadline groups, each cell run once.
//
// E2 — Sec 5.2: exact optimisation vs the fast heuristic, no prediction.
// Paper's numbers (500 VT + 500 LT traces):
//   * average rejection: MILP 24.5 %, heuristic 31 %;
//   * MILP acceptance >= heuristic on 88 % of traces (not 100 %: a locally
//     optimal decision can lose to a lucky suboptimal one on the long run).
//
// E3 — Fig 2a / 2b: average rejection percentage with the predictor on
// (accurate) and off.  Paper's shape: prediction lowers rejection by ~1 pp
// (LT) / ~9.2 pp (VT) for the exact RM and ~2.6 pp (LT) / ~10.2 pp (VT) for
// the heuristic; the benefit is clearly larger under tight deadlines, and
// the heuristic tracks the exact optimiser within a few points.
//
// E4 — Fig 3a / 3b: average normalised energy for the same four
// configurations.  Paper's shape: energy closely follows acceptance — a
// smaller rejection percentage means more admitted workload and therefore
// *higher* energy; for VT, the exact optimiser buys its acceptance with a
// more favourable energy increase than the heuristic.
//
// The four cells of a group run through one ExperimentRunner::run_all,
// which fans the full (cell x trace) grid across the worker threads — the
// exact optimiser's slow traces overlap the heuristic's fast ones instead of
// serialising behind them.
//
// The grid also carries the parallel engine's speedup measurement: the LT
// heuristic/off cell is timed at the configured job count and serially, the
// two outcomes are verified bit-identical, and serial_ms / parallel_ms /
// speedup land in BENCH_sec52_fig2_fig3.json.
void exact_heuristic_grid() {
    Report report("sec52_fig2_fig3");
    report.set("note", "wall_ms is the shared wall-clock of the group's 4-spec batch");

    const RunSpec specs[] = {{RmKind::exact, PredictorSpec::off()},
                             {RmKind::exact, PredictorSpec::perfect()},
                             {RmKind::heuristic, PredictorSpec::off()},
                             {RmKind::heuristic, PredictorSpec::perfect()}};
    std::vector<std::vector<RunOutcome>> by_group; // LT, VT; cells in `specs` order
    for_each_group(
        report, "E2-E4", "Sec 5.2, Fig 2 and Fig 3 — {exact, heuristic} x {pred on, off}", 50,
        500, [&](DeadlineGroup group, const ExperimentRunner& runner) {
            if (group == DeadlineGroup::less_tight)
                report.record_speedup(runner, RunSpec{RmKind::heuristic, PredictorSpec::off()});
            const WallTimer timer;
            std::vector<RunOutcome> outcomes = runner.run_all(specs);
            const double batch_ms = timer.elapsed_ms();
            for (const RunOutcome& outcome : outcomes)
                report.add_cell(std::string(to_string(group)) + "/" + outcome.spec.label(),
                                outcome, batch_ms, runner.jobs());
            by_group.push_back(std::move(outcomes));
        });
    const char* const group_names[] = {"LT", "VT"};
    const auto cell = [&](std::size_t g, std::size_t rm, bool on) -> const RunOutcome& {
        return by_group[g][2 * rm + (on ? 1 : 0)];
    };

    // Sec 5.2: VT then LT, predictor off.
    std::vector<TraceResult> exact_all;
    std::vector<TraceResult> heuristic_all;
    Table sec52({"group", "RM", "rejection %", "95% CI", "normalized energy"});
    for (const std::size_t g : {std::size_t{1}, std::size_t{0}}) {
        for (const std::size_t rm : {std::size_t{0}, std::size_t{1}}) {
            const RunOutcome& outcome = cell(g, rm, false);
            sec52.row()
                .cell(group_names[g])
                .cell(to_string(outcome.spec.rm))
                .cell(outcome.mean_rejection_percent())
                .cell(format_ci(outcome.aggregate.rejection_percent))
                .cell(outcome.mean_normalized_energy(), 3);
            std::vector<TraceResult>& all = rm == 0 ? exact_all : heuristic_all;
            all.insert(all.end(), outcome.per_trace.begin(), outcome.per_trace.end());
        }
    }
    sec52.print(std::cout);

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
              << " %; paper: higher on 88 %)\n\n";

    for (std::size_t g = 0; g < 2; ++g) {
        Table table({"RM", "predictor", "rejection %", "95% CI", "benefit (pp)", "paired p"});
        std::cout << "Fig 2" << (g == 0 ? "a (LT)" : "b (VT)") << "\n";
        for (const std::size_t rm : {std::size_t{0}, std::size_t{1}}) {
            const RunOutcome& off = cell(g, rm, false);
            const RunOutcome& on = cell(g, rm, true);
            // A paired test needs at least two traces.
            std::string p_value = "n/a";
            if (off.per_trace.size() >= 2) {
                const double p = paired_rejection_test(off.per_trace, on.per_trace).p_value;
                p_value = p < 1e-4 ? std::string("< 1e-4") : format_fixed(p, 4);
            }
            table.row()
                .cell(to_string(off.spec.rm))
                .cell("off")
                .cell(off.mean_rejection_percent())
                .cell(format_ci(off.aggregate.rejection_percent))
                .cell("-")
                .cell("-");
            table.row()
                .cell(to_string(on.spec.rm))
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
                 "expected shape: VT benefit >> LT benefit; exact <= heuristic rejection.\n\n";

    for (std::size_t g = 0; g < 2; ++g) {
        Table table({"RM", "predictor", "normalized energy", "acceptance %",
                     "energy per accepted pp"});
        std::cout << "Fig 3" << (g == 0 ? "a (LT)" : "b (VT)") << "\n";
        for (const std::size_t rm : {std::size_t{0}, std::size_t{1}}) {
            for (const bool predict : {false, true}) {
                const RunOutcome& outcome = cell(g, rm, predict);
                const double acceptance = 100.0 - outcome.mean_rejection_percent();
                table.row()
                    .cell(to_string(outcome.spec.rm))
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
}

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
void fig4_accuracy() {
    Report report("fig4_accuracy");

    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 50, 500);
    print_header("E5/E6", "Fig 4 — rejection % vs prediction accuracy (VT group)", config);
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
}

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
void fig5_overhead() {
    Report report("fig5_overhead");

    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 50, 500);
    print_header("E7", "Fig 5 — rejection % vs prediction overhead (VT group)", config);
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
}

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
void ablations() {
    Report report("ablations");

    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 50, 500);
    print_header("E8", "ablations: Algorithm 1 design choices + predictor realism", config);
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
}

} // namespace rmwp::bench
