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
#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "util/table.hpp"

int main() {
    using namespace rmwp;
    using bench::scaled_config;

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

    bench::Report report("fault_tolerance");

    bool first = true;
    for (const Scenario& scenario : scenarios) {
        ExperimentConfig config = scaled_config(DeadlineGroup::less_tight, 30, 300);
        config.fault = scenario.fault;
        if (first) {
            bench::print_header("E16", "fault injection and rescue re-planning (ours)", config);
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
    return 0;
}
