// rmwp_bench — one driver for every experiment (DESIGN.md's experiment
// index, EXPERIMENTS.md).  Each experiment is a plain function; the table
// below names it by its E-id.
//
//   rmwp_bench list             the table
//   rmwp_bench E3 [E11 ...]     the selected experiments, each run once
//   rmwp_bench all              every experiment
//
// Ids that share a function run it once: E2-E4 are one grid (Sec 5.2,
// Fig 2 and Fig 3 read the same cells), E5/E6 are the two sweeps of Fig 4,
// and E18/E20 run together.  --benchmark_* flags go to google-benchmark,
// which runs E9; E9 writes BENCH_micro_latency.json unless --benchmark_out
// names another file.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace {

using namespace rmwp::bench;

struct Experiment {
    const char* id;
    const char* what;
    void (*run)();
};

constexpr Experiment kExperiments[] = {
    {"E1", "Table 1 / Fig 1: motivational scenarios", table1_motivation},
    {"E2", "Sec 5.2: exact vs heuristic, no prediction (E2-E4 grid)", exact_heuristic_grid},
    {"E3", "Fig 2: rejection %, prediction on/off (E2-E4 grid)", exact_heuristic_grid},
    {"E4", "Fig 3: normalized energy, prediction on/off (E2-E4 grid)", exact_heuristic_grid},
    {"E5", "Fig 4a: rejection % vs task-type accuracy (with E6)", fig4_accuracy},
    {"E6", "Fig 4b: rejection % vs arrival-time accuracy (with E5)", fig4_accuracy},
    {"E7", "Fig 5: rejection % vs prediction overhead", fig5_overhead},
    {"E8", "ablations: Algorithm 1 design choices, predictor realism", ablations},
    {"E9", "RM decision latency (google-benchmark)", micro_latency},
    {"E10", "rejection vs reserved GPU share", critical_reservation},
    {"E11", "rejection vs lookahead depth", lookahead},
    {"E12", "DVFS operating points x prediction", dvfs},
    {"E13", "WCET pessimism and slack reclamation", wcet_slack},
    {"E14", "replanning vs prediction decomposition", baseline},
    {"E15", "per-arrival vs periodic RM activation", activation},
    {"E16", "fault injection and rescue re-planning", fault_tolerance},
    {"E17", "serve-mode throughput", serve_throughput},
    {"E18", "batched admission throughput (with E20)", admission_throughput},
    {"E19", "telemetry overhead on the serve hot path", telemetry_overhead},
    {"E20", "sharded admission throughput (with E18)", admission_throughput},
};

constexpr const char* kUsage =
    "usage: rmwp_bench list | all | <E-id>... [--benchmark_* flags for E9]\n";

} // namespace

int main(int argc, char** argv) {
    // E9 defaults to a JSON artefact alongside the console output, so it
    // matches the BENCH_<id>.json convention of the other experiments.  An
    // explicit --benchmark_out wins.
    std::vector<char*> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=BENCH_micro_latency.json";
    std::string format_flag = "--benchmark_out_format=json";
    if (std::none_of(args.begin() + 1, args.end(), [](const char* arg) {
            return std::string_view(arg).starts_with("--benchmark_out=");
        })) {
        args.push_back(out_flag.data());
        args.push_back(format_flag.data());
    }
    // Takes google-benchmark's flags out of args and leaves the rest.
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());

    std::vector<void (*)()> selected;
    const auto select = [&](const Experiment& experiment) {
        if (std::find(selected.begin(), selected.end(), experiment.run) == selected.end())
            selected.push_back(experiment.run);
    };
    for (int i = 1; i < count; ++i) {
        const std::string_view arg = args[static_cast<std::size_t>(i)];
        if (arg == "list") {
            for (const Experiment& experiment : kExperiments)
                std::cout << std::left << std::setw(5) << experiment.id << experiment.what
                          << '\n';
            return 0;
        }
        if (arg == "all") {
            for (const Experiment& experiment : kExperiments) select(experiment);
            continue;
        }
        const auto found = std::find_if(std::begin(kExperiments), std::end(kExperiments),
                                        [&](const Experiment& e) { return arg == e.id; });
        if (found == std::end(kExperiments)) {
            std::cerr << "rmwp_bench: unknown experiment or flag '" << arg << "'\n" << kUsage;
            return 2;
        }
        select(*found);
    }
    if (selected.empty()) {
        std::cerr << kUsage;
        return 2;
    }
    for (const auto run : selected) run();
    benchmark::Shutdown();
    return 0;
}
