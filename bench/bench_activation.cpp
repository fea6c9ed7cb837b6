// E15 (ours) — activation policy: per-arrival (the paper) vs periodic
// batching, with and without prediction overhead.
//
// Waking the RM on every arrival minimises queueing delay but pays the
// prediction/decision overhead once per request; waking periodically
// amortises the overhead over a batch at the cost of slack.  With a
// per-activation overhead there is an interior optimum.
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
    bench::print_header("E15", "loss % vs RM activation period (ours)", config);
    bench::Report report("activation");
    report.add_config("VT", config);
    ExperimentRunner runner(config);
    const double mean_interarrival = config.trace.interarrival_mean;
    const std::size_t jobs = default_jobs();

    for (const double coeff : {0.0, 0.04, 0.12}) {
        std::cout << "per-activation overhead = " << format_fixed(coeff * 100.0, 0)
                  << " % of mean interarrival (oracle prediction)\n";
        Table table({"activation period", "activations/trace", "rejection %",
                     "loss % (rej+aborted)"});
        for (const double period_ia : {0.0, 0.5, 1.0, 2.0, 4.0}) {
            const bench::WallTimer timer;
            std::vector<TraceResult> results(runner.traces().size());
            parallel_for(jobs, results.size(), [&](std::size_t t) {
                const Trace& trace = runner.traces()[t];
                HeuristicRM rm;
                OraclePredictor oracle(coeff * trace.mean_interarrival());
                SimOptions options;
                options.activation_period = period_ia * mean_interarrival;
                results[t] = simulate_trace(runner.platform(), runner.catalog(), trace, rm,
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
            report.add_cell_results("coeff " + format_fixed(coeff, 2) + "/period " +
                                        format_fixed(period_ia, 1),
                                    results, timer.elapsed_ms(), jobs);
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
    return 0;
}
