// Extension studies on the trace simulator (ours): E10 critical
// reservations, E11 lookahead depth, E12 DVFS, E13 WCET slack, E14
// replanning vs prediction, E15 activation policy, E16 faults and rescue.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/heuristic_rm.hpp"
#include "core/reservation.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rmwp::bench {

// E10 (ours) — adaptive performance under design-time critical
// reservations (Sec 2's mixed-criticality integration).
//
// Sweeps the reserved share of the GPU (the resource the prediction
// mechanism fights over) and reports the adaptive rejection rate with the
// predictor on and off.  Expected shape: rejection grows with the reserved
// share; the prediction benefit persists (and initially grows — the scarcer
// the GPU, the more valuable knowing who needs it next) until the
// reservations dominate.
void critical_reservation() {
    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 30, 400);
    print_header("E10", "adaptive rejection vs reserved GPU share (ours)", config);

    Report report("critical_reservation");
    report.add_config("VT", config);
    ExperimentRunner runner(config);
    const Platform& platform = runner.platform();
    const Catalog& catalog = runner.catalog();
    const ResourceId gpu = platform.size() - 1;

    Table table({"GPU reserved %", "rejection off", "rejection on", "benefit (pp)",
                 "critical energy/trace"});
    for (const double share : {0.0, 0.1, 0.2, 0.3, 0.4}) {
        const Time period = 20.0;
        ReservationTable reservations;
        if (share > 0.0) {
            reservations = ReservationTable(
                {CriticalTask{"gpu-critical", gpu, period, 0.0, share * period, 2.0}});
        }
        const auto simulate = [&](const Trace& trace, Predictor& predictor) {
            HeuristicRM rm;
            return share > 0.0
                       ? simulate_trace(platform, catalog, trace, rm, predictor, reservations)
                       : simulate_trace(platform, catalog, trace, rm, predictor);
        };

        const std::string share_label = "share " + format_fixed(share, 1);
        const std::vector<TraceResult> base_results = report.run_traces(
            share_label + "/off", runner.traces(), [&](std::size_t, const Trace& trace) {
                NullPredictor off;
                return simulate(trace, off);
            });
        const std::vector<TraceResult> predicted_results = report.run_traces(
            share_label + "/on", runner.traces(), [&](std::size_t, const Trace& trace) {
                OraclePredictor oracle;
                return simulate(trace, oracle);
            });

        double off_rejection = 0.0;
        double on_rejection = 0.0;
        double critical_energy = 0.0;
        for (std::size_t t = 0; t < runner.traces().size(); ++t) {
            off_rejection += base_results[t].rejection_percent();
            on_rejection += predicted_results[t].rejection_percent();
            critical_energy += base_results[t].critical_energy;
        }
        const auto count = static_cast<double>(runner.traces().size());
        off_rejection /= count;
        on_rejection /= count;
        critical_energy /= count;

        table.row()
            .cell(share * 100.0, 0)
            .cell(off_rejection)
            .cell(on_rejection)
            .cell(off_rejection - on_rejection)
            .cell(critical_energy, 1);
    }
    table.print(std::cout);

    std::cout << "\nexpected shape: rejection grows with the reserved share; prediction\n"
                 "keeps (or grows) its benefit while spare GPU capacity remains.\n";
}

// E11 (ours) — multi-step lookahead: how much does predicting more than
// one request ahead buy?
//
// The paper plans with the single next request (tau_p) and leaves deeper
// horizons open.  This experiment sweeps the lookahead depth at two load
// levels of the VT workload.  The admission ladder trims the furthest
// prediction on planning failure, so deeper horizons can only constrain
// mapping choices, never admission itself.
void lookahead() {
    Report report("lookahead");

    struct Load {
        const char* name;
        double interarrival;
    };
    for (const Load load : {Load{"moderate (ia=6)", 6.0}, Load{"heavy (ia=3.5)", 3.5}}) {
        ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 30, 400);
        config.trace.interarrival_mean = load.interarrival;
        config.trace.interarrival_stddev = load.interarrival / 3.0;
        if (load.interarrival == 6.0)
            print_header("E11", "rejection % vs prediction lookahead depth (ours)", config);
        ExperimentRunner runner(config);
        report.add_config(load.name, config);

        std::cout << "load: " << load.name << '\n';
        Table table({"lookahead", "rejection % (heuristic)", "rejection % (exact)"});
        for (const std::size_t depth : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                        std::size_t{3}, std::size_t{5}}) {
            PredictorSpec spec = depth == 0 ? PredictorSpec::off() : PredictorSpec::perfect();
            spec.lookahead = depth;
            const std::string prefix =
                std::string(load.name) + "/depth" + std::to_string(depth) + "/";
            const RunOutcome heuristic =
                report.run(runner, RunSpec{RmKind::heuristic, spec}, prefix);
            const RunOutcome exact = report.run(runner, RunSpec{RmKind::exact, spec}, prefix);
            table.row()
                .cell(depth == 0 ? std::string("off") : std::to_string(depth))
                .cell(heuristic.mean_rejection_percent())
                .cell(exact.mean_rejection_percent());
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "finding: the benefit keeps growing well past the paper's depth of 1 —\n"
                 "each extra predicted request lets the mapper keep scarce resources free\n"
                 "further into the future, and under heavy load (where one step barely\n"
                 "helps) depth 5 recovers a multi-point rejection cut.  Deeper lookahead\n"
                 "is where the magnitude the paper reports for one step lives in this\n"
                 "implementation.\n";
}

// E12 (ours) — DVFS ablation: what does exposing frequency levels to the
// mapper buy, and how does it interact with prediction?
//
// Same cores with and without {1.0, 0.75, 0.5} operating points, LT and VT
// deadline groups, predictor on/off.  Expected shape: large energy savings
// under loose deadlines at equal acceptance; the saving shrinks under tight
// deadlines (full speed needed); prediction benefits survive DVFS.
namespace {

Platform make_dvfs_platform(bool dvfs) {
    PlatformBuilder builder;
    for (int i = 1; i <= 5; ++i) {
        if (dvfs) builder.add_cpu_with_dvfs({1.0, 0.75, 0.5}, "CPU" + std::to_string(i));
        else builder.add_cpu("CPU" + std::to_string(i));
    }
    builder.add_gpu("GPU");
    return builder.build();
}

} // namespace

void dvfs() {
    const std::size_t traces = env_size("RMWP_TRACES", 25);
    const std::size_t requests = env_size("RMWP_REQUESTS", 400);
    const std::uint64_t seed = env_size("RMWP_SEED", 42);

    std::cout << "E12: DVFS operating points x prediction (ours)\n"
              << "setup: " << traces << " traces x " << requests << " requests, seed " << seed
              << ", jobs " << default_jobs() << "\n\n";

    Report report("dvfs");

    const Platform plain = make_dvfs_platform(false);
    const Platform dvfs = make_dvfs_platform(true);
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
                const std::vector<TraceResult> results = report.run_traces(
                    std::string(to_string(group)) + "/" + (use_dvfs ? "dvfs" : "plain") + "/" +
                        (predict ? "on" : "off"),
                    trace_set, [&](std::size_t, const Trace& trace) {
                        HeuristicRM rm;
                        std::unique_ptr<Predictor> predictor;
                        if (predict) predictor = std::make_unique<OraclePredictor>();
                        else predictor = std::make_unique<NullPredictor>();
                        return use_dvfs
                                   ? simulate_trace(dvfs, dvfs_catalog, trace, rm, *predictor)
                                   : simulate_trace(plain, plain_catalog, trace, rm, *predictor);
                    });
                RunningStats rejection;
                RunningStats energy;
                for (const TraceResult& result : results) {
                    rejection.add(result.rejection_percent());
                    energy.add(result.total_energy);
                }
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

        const std::vector<TraceResult> results = report.run_traces(
            "static " + format_fixed(s, 2), trace_set, [&](std::size_t, const Trace& trace) {
                HeuristicRM rm;
                NullPredictor off;
                return simulate_trace(dvfs, catalog, trace, rm, off);
            });
        RunningStats energy;
        for (const TraceResult& result : results) energy.add(result.total_energy);
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
}

// E13 (ours) — WCET pessimism and slack reclamation.
//
// The paper evaluates with execution time == WCET.  Real tasks finish
// early; this experiment sweeps the actual-work fraction (uniform in
// [factor_min, 1] x WCET) and reports rejection and energy with the
// predictor on/off.  The RM keeps admitting against WCET (the firm
// guarantee requires it), while the simulator reclaims slack at every early
// completion.
void wcet_slack() {
    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 25, 400);
    print_header("E13", "rejection/energy vs WCET pessimism (ours)", config);
    Report report("wcet_slack");
    report.add_config("VT", config);
    ExperimentRunner runner(config);

    Table table({"actual work in", "predictor", "rejection %", "energy (J)",
                 "prediction benefit (pp)"});
    for (const double factor : {1.0, 0.9, 0.7, 0.5, 0.3}) {
        double off_rejection = 0.0;
        for (const bool predict : {false, true}) {
            const std::vector<TraceResult> results = report.run_traces(
                "factor " + format_fixed(factor, 1) + (predict ? "/on" : "/off"),
                runner.traces(), [&](std::size_t t, const Trace& trace) {
                    HeuristicRM rm;
                    SimOptions options;
                    options.execution_time_factor_min = factor;
                    options.execution_seed = 1000 + t;
                    if (predict) {
                        OraclePredictor oracle;
                        return simulate_trace(runner.platform(), runner.catalog(), trace, rm,
                                              oracle, options);
                    }
                    NullPredictor off;
                    return simulate_trace(runner.platform(), runner.catalog(), trace, rm, off,
                                          options);
                });
            RunningStats rejection;
            RunningStats energy;
            for (const TraceResult& result : results) {
                rejection.add(result.rejection_percent());
                energy.add(result.total_energy);
            }
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
}

// E14 (ours) — decomposing the paper's machinery: how much acceptance comes
// from full replanning (remap + migrate the whole active set at every
// arrival, Sec 2) and how much from prediction?
//
// Four managers on the same traces:
//   baseline            greedy placement, tasks never move, no prediction
//   heuristic / off     the paper's Algorithm 1 without prediction
//   heuristic / on      ... with accurate prediction
//   exact / on          the optimal envelope
void baseline() {
    Report report("baseline");

    for_each_group(
        report, "E14", "replanning vs prediction decomposition (ours)", 40, 400,
        [&](DeadlineGroup group, const ExperimentRunner& runner) {
            const std::string group_name = to_string(group);
            std::cout << group_name << " deadlines\n";
            Table table({"configuration", "rejection %", "gain vs baseline (pp)",
                         "normalized energy", "migrations/trace"});
            const RunOutcome baseline = report.run(
                runner, RunSpec{RmKind::baseline, PredictorSpec::off()}, group_name + "/");
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
                    report.run(runner, entry.spec, group_name + "/" + entry.name + ": ");
                table.row()
                    .cell(entry.name)
                    .cell(outcome.mean_rejection_percent())
                    .cell(baseline.mean_rejection_percent() - outcome.mean_rejection_percent())
                    .cell(outcome.mean_normalized_energy(), 4)
                    .cell(outcome.aggregate.migrations.mean(), 1);
            }
            table.print(std::cout);
            std::cout << '\n';
        });

    std::cout << "finding: the paper bundles two mechanisms; this separates the share of\n"
                 "acceptance bought by whole-set replanning from the share bought by the\n"
                 "one-step lookahead on top of it.\n";
}

// E15 (ours) — activation policy: per-arrival (the paper) vs periodic
// batching, with and without prediction overhead.
//
// Waking the RM on every arrival minimises queueing delay but pays the
// prediction/decision overhead once per request; waking periodically
// amortises the overhead over a batch at the cost of slack.  With a
// per-activation overhead there is an interior optimum.
void activation() {
    const ExperimentConfig config = scaled_config(DeadlineGroup::very_tight, 25, 400);
    print_header("E15", "loss % vs RM activation period (ours)", config);
    Report report("activation");
    report.add_config("VT", config);
    ExperimentRunner runner(config);
    const double mean_interarrival = config.trace.interarrival_mean;

    for (const double coeff : {0.0, 0.04, 0.12}) {
        std::cout << "per-activation overhead = " << format_fixed(coeff * 100.0, 0)
                  << " % of mean interarrival (oracle prediction)\n";
        Table table({"activation period", "activations/trace", "rejection %",
                     "loss % (rej+aborted)"});
        for (const double period_ia : {0.0, 0.5, 1.0, 2.0, 4.0}) {
            const std::vector<TraceResult> results = report.run_traces(
                "coeff " + format_fixed(coeff, 2) + "/period " + format_fixed(period_ia, 1),
                runner.traces(), [&](std::size_t, const Trace& trace) {
                    HeuristicRM rm;
                    OraclePredictor oracle(coeff * trace.mean_interarrival());
                    SimOptions options;
                    options.activation_period = period_ia * mean_interarrival;
                    return simulate_trace(runner.platform(), runner.catalog(), trace, rm,
                                          oracle, options);
                });
            RunningStats rejection;
            RunningStats loss;
            RunningStats activations;
            for (const TraceResult& result : results) {
                rejection.add(result.rejection_percent());
                loss.add(result.loss_percent());
                activations.add(static_cast<double>(result.activations));
            }
            table.row()
                .cell(period_ia == 0.0 ? std::string("per-arrival (paper)")
                                       : format_fixed(period_ia, 1) + " x interarrival")
                .cell(activations.mean(), 0)
                .cell(rejection.mean())
                .cell(loss.mean());
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "finding: without overhead, per-arrival activation (the paper's choice)\n"
                 "is clearly optimal — batching only adds queueing delay.  Amortisation\n"
                 "wins only at extreme per-activation overheads (>= ~12 % of the mean\n"
                 "interarrival, far beyond Fig 5's 2-4 % viability bound), where 2-4x\n"
                 "batching beats per-arrival on total loss.  The paper's per-arrival\n"
                 "protocol is the right default across its whole viable overhead range.\n";
}

// E16 (ours) — resource management under faults: transient outages and
// thermal throttling strike the platform while the trace runs, and a
// fault-rescue RM activation re-plans the surviving task set.
//
// Three managers on the same traces and the same fault schedules:
//   baseline    greedy, non-replanning: displaced tasks are simply aborted
//   heuristic   Algorithm 1 re-plans the survivors onto the healthy cores
//   exact       the optimal rescue envelope
//
// The rescue guarantee is absolute: a rescued task never misses its
// deadline (validated inside the simulator), so fault tolerance shows up as
// fewer fault-aborted tasks, not as deadline misses.
void fault_tolerance() {
    struct Scenario {
        const char* name;
        FaultParams fault;
    };
    FaultParams outages;
    outages.outage_rate = 1.5;         // per core per 1000 ms
    outages.outage_duration_mean = 60.0;
    outages.min_online = 2;
    FaultParams mixed = outages;
    mixed.throttle_rate = 1.5;
    mixed.throttle_duration_mean = 80.0;
    mixed.permanent_prob = 0.1;
    const Scenario scenarios[] = {
        {"transient outages", outages},
        {"outages + throttling + permanent", mixed},
    };

    Report report("fault_tolerance");

    bool first = true;
    for (const Scenario& scenario : scenarios) {
        ExperimentConfig config = scaled_config(DeadlineGroup::less_tight, 30, 300);
        config.fault = scenario.fault;
        if (first) {
            print_header("E16", "fault injection and rescue re-planning (ours)", config);
            first = false;
        }
        ExperimentRunner runner(config);
        report.add_config(scenario.name, config);

        std::cout << scenario.name << " (outage rate " << scenario.fault.outage_rate
                  << "/core/1000ms, throttle rate " << scenario.fault.throttle_rate << ")\n";
        Table table({"configuration", "loss %", "rescued/trace", "fault-aborted/trace",
                     "rescue migr/trace", "degraded energy"});
        const RunSpec specs[] = {
            {RmKind::baseline, PredictorSpec::off()},
            {RmKind::heuristic, PredictorSpec::off()},
            {RmKind::heuristic, PredictorSpec::perfect()},
            {RmKind::exact, PredictorSpec::perfect()},
        };
        for (const RunSpec& spec : specs) {
            const RunOutcome outcome =
                report.run(runner, spec, std::string(scenario.name) + "/");
            double degraded = 0.0;
            for (const TraceResult& r : outcome.per_trace) degraded += r.degraded_energy;
            table.row()
                .cell(spec.label())
                .cell(outcome.aggregate.loss_percent.mean())
                .cell(outcome.aggregate.rescued.mean(), 2)
                .cell(outcome.aggregate.fault_aborted.mean(), 2)
                .cell(outcome.aggregate.migrations.mean(), 1)
                .cell(degraded / static_cast<double>(outcome.per_trace.size()), 1);
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "finding: the non-replanning baseline loses every task that was running on\n"
                 "a failed core; the replanning managers migrate most of them onto the\n"
                 "surviving capacity and only abort what provably cannot make its deadline\n"
                 "any more.\n";
}

} // namespace rmwp::bench
