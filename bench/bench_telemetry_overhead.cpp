// E19 (ours) — telemetry overhead: serve-mode throughput with the full
// observability stack live (telemetry endpoint + stage profiler + HDR
// latency recording) versus the bare hot path.  The claim under test
// (DESIGN.md §14): instrumentation costs < 3 % of decisions/sec, because
// the hot path only touches thread-local counters (clock pair on every
// 64th call) and relaxed atomics, and all rendering happens on the
// telemetry thread against published snapshots.
//
// Scaling: RMWP_SERVE_ARRIVALS (default 20000) arrivals per cell,
// RMWP_SEED for the master seed, RMWP_BENCH_REPS (default 3) repetitions
// per cell (best-of to shed scheduler noise).  Writes BENCH_telemetry.json.
#include <algorithm>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/heuristic_rm.hpp"
#include "obs/stage_timer.hpp"
#include "serve/serve.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"

int main() {
    using namespace rmwp;

    const std::uint64_t arrivals = env_size("RMWP_SERVE_ARRIVALS", 20000);
    const std::uint64_t seed = env_size("RMWP_SEED", 42);
    const std::uint64_t reps = std::max<std::uint64_t>(1, env_size("RMWP_BENCH_REPS", 3));

    PlatformBuilder builder;
    for (int i = 1; i <= 5; ++i) builder.add_cpu("CPU" + std::to_string(i));
    builder.add_gpu("GPU");
    const Platform platform = builder.build();
    CatalogParams catalog_params;
    Rng catalog_rng(seed);
    const Catalog catalog = generate_catalog(platform, catalog_params, catalog_rng);

    struct Cell {
        const char* label;
        bool telemetry; ///< live /metrics endpoint (port 0 = ephemeral)
        bool profiler;  ///< StageStats block installed
    };
    const Cell cells[] = {
        {"bare", false, false},
        {"profiler", false, true},
        {"telemetry+profiler", true, true},
    };

    std::cout << "E19: telemetry overhead on the serve hot path (ours)\n"
              << "setup: " << arrivals << " synthetic arrivals per cell, best of " << reps
              << " reps, seed " << seed << ", 5 CPUs + 1 GPU\n\n";

    struct Outcome {
        double decisions_per_second = 0.0;
        double wall_ms = 0.0;
        ServeResult serve;
    };
    Outcome outcomes[3];

    obs::JsonValue results = obs::JsonValue::array();
    Table table({"configuration", "decisions/sec", "p99 us", "stage ns/decision", "wall ms",
                 "vs bare"});
    for (std::size_t index = 0; index < 3; ++index) {
        const Cell& cell = cells[index];
        Outcome best;
        obs::StageStats stages;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
            HeuristicRM rm;
            NullPredictor predictor;
            SyntheticSourceParams source_params;
            source_params.seed = seed;
            SyntheticArrivalSource source(catalog, source_params);

            ServeConfig config;
            config.sim.execution_seed = seed;
            config.max_arrivals = arrivals;
            config.monitor_period_seconds = 0.1;
            config.limits.expect_no_misses = true;
            if (cell.telemetry) config.telemetry_port = 0;
            obs::StageStats rep_stages;
            if (cell.profiler) config.stage_stats_out = &rep_stages;

            serve_clear_stop();
            const ServeResult serve =
                run_serve(platform, catalog, rm, predictor, nullptr, source, config);
            RMWP_ENSURE(serve.exit_code == 0);
            const double dps = serve.wall_seconds > 0.0
                                   ? static_cast<double>(serve.result.requests) / serve.wall_seconds
                                   : 0.0;
            if (dps > best.decisions_per_second) {
                best.decisions_per_second = dps;
                best.wall_ms = serve.wall_seconds * 1000.0;
                best.serve = serve;
                stages = rep_stages;
            }
        }
        outcomes[index] = best;

        // The three cells run the identical deterministic workload: any drift
        // in decisions means the instrumentation leaked into the decisions.
        RMWP_ENSURE(best.serve.result.accepted == outcomes[0].serve.result.accepted);
        RMWP_ENSURE(best.serve.result.rejected == outcomes[0].serve.result.rejected);
        RMWP_ENSURE(best.serve.result.deadline_misses == outcomes[0].serve.result.deadline_misses);

        const std::uint64_t decide_calls = stages.cell(obs::Stage::decide).calls;
        const double stage_ns_per_decision =
            decide_calls > 0
                ? static_cast<double>(stages.estimated_ns(obs::Stage::decide)) /
                      static_cast<double>(decide_calls)
                : 0.0;
        const double versus_bare =
            outcomes[0].decisions_per_second > 0.0
                ? best.decisions_per_second / outcomes[0].decisions_per_second
                : 1.0;
        table.row()
            .cell(cell.label)
            .cell(best.decisions_per_second, 0)
            .cell(best.serve.latency_p99_us, 0)
            .cell(stage_ns_per_decision, 0)
            .cell(best.wall_ms, 0)
            .cell(versus_bare, 3);

        obs::JsonValue j = obs::JsonValue::object();
        j.set("label", cell.label);
        j.set("decisions_per_second", best.decisions_per_second);
        j.set("latency_p50_us", best.serve.latency_p50_us);
        j.set("latency_p99_us", best.serve.latency_p99_us);
        j.set("latency_p999_us", best.serve.latency_p999_us);
        j.set("stage_ns_per_decision", stage_ns_per_decision);
        j.set("telemetry_requests", best.serve.telemetry_requests);
        j.set("wall_ms", best.wall_ms);
        j.set("throughput_vs_bare", versus_bare);
        results.push(std::move(j));
    }
    table.print(std::cout);

    const double regression =
        outcomes[0].decisions_per_second > 0.0
            ? 1.0 - outcomes[2].decisions_per_second / outcomes[0].decisions_per_second
            : 0.0;
    std::cout << "\ntelemetry+profiler regression vs bare: " << regression * 100.0 << " %\n";
    // The acceptance bound from ISSUE 9.  Best-of-N already sheds most
    // scheduler noise; a real > 3 % cost means a hot-path regression.
    RMWP_ENSURE(regression < 0.03);

    obs::JsonValue root = obs::JsonValue::object();
    root.set("bench", "telemetry");
    root.set("arrivals_per_cell", arrivals);
    root.set("reps", reps);
    root.set("seed", seed);
    root.set("regression_vs_bare", regression);
    root.set("cells", std::move(results));
    std::ofstream out("BENCH_telemetry.json");
    out << root.dump(2) << '\n';
    if (out) std::cout << "wrote BENCH_telemetry.json\n";

    std::cout << "\nfinding: the full observability stack — live /metrics endpoint, sampled\n"
                 "stage profiler, HDR latency recording — stays within the 3 % throughput\n"
                 "budget because the hot path only increments thread-local counters and\n"
                 "relaxed atomics; rendering runs on the telemetry thread from snapshots.\n";
    return 0;
}
