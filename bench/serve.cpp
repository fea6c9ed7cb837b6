// Serve-mode studies (ours): E17 serve throughput, E18 batched and E20
// sharded admission throughput, E19 telemetry overhead.  Each cell is one
// run_serve over the endless synthetic source, measured in decisions per
// wall-clock second; RMWP_SERVE_ARRIVALS (default 20000) sets the arrivals
// per cell and RMWP_SEED the master seed.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/heuristic_rm.hpp"
#include "obs/stage_timer.hpp"
#include "serve/serve.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"

namespace rmwp::bench {

namespace {

std::uint64_t serve_arrivals() { return env_size("RMWP_SERVE_ARRIVALS", 20000); }

/// A serve cell's config with the knobs every serve experiment shares.
ServeConfig serve_config(std::uint64_t arrivals, std::uint64_t seed) {
    ServeConfig config;
    config.sim.execution_seed = seed;
    config.max_arrivals = arrivals;
    config.monitor_period_seconds = 0.1;
    config.limits.expect_no_misses = true;
    return config;
}

/// The seed's default catalog on `platform`: the serve experiments' task set.
Catalog serve_catalog(const Platform& platform, std::uint64_t seed) {
    Rng rng(seed);
    return generate_catalog(platform, CatalogParams{}, rng);
}

/// One run_serve that must drain cleanly.
ServeResult serve(const Platform& platform, const Catalog& catalog, ResourceManager& rm,
                  Predictor& predictor, ArrivalSource& source, const ServeConfig& config) {
    serve_clear_stop();
    ServeResult result = run_serve(platform, catalog, rm, predictor, nullptr, source, config);
    RMWP_ENSURE(result.exit_code == 0);
    return result;
}

/// True when two serve runs made the same admission decisions: every
/// non-host result field and the shed count match.
bool same_decisions(const ServeResult& a, const ServeResult& b) {
    return describe_differences(a.result, b.result).empty() && a.shed == b.shed;
}

/// RMWP_BENCH_REPS (at least 1), or `fallback` when unset.
std::size_t bench_reps(std::size_t fallback) {
    return std::max<std::size_t>(1, env_size("RMWP_BENCH_REPS", fallback));
}

/// `run_cell(c)` for every cell, `reps` times, interleaved: a repetition
/// runs each cell once before the next repetition starts, so a slow spell
/// on the host spreads over the cells a ratio compares instead of landing
/// on one of them.  Decisions are deterministic, so every repetition of a
/// cell must decide alike.  Returns runs[cell][rep].
template <typename RunCell>
std::vector<std::vector<ServeResult>> serve_repeated(std::size_t cells, std::size_t reps,
                                                     RunCell&& run_cell) {
    std::vector<std::vector<ServeResult>> runs(cells);
    for (std::size_t rep = 0; rep < reps; ++rep)
        for (std::size_t c = 0; c < cells; ++c) {
            runs[c].push_back(run_cell(c));
            RMWP_ENSURE(same_decisions(runs[c].back(), runs[c].front()));
        }
    return runs;
}

double decisions_per_second(const ServeResult& serve) {
    return serve.wall_seconds > 0.0
               ? static_cast<double>(serve.result.requests) / serve.wall_seconds
               : 0.0;
}

double accepted_percent(const ServeResult& serve) {
    return serve.result.requests > 0 ? 100.0 * static_cast<double>(serve.result.accepted) /
                                           static_cast<double>(serve.result.requests)
                                     : 0.0;
}

/// One cell of a burst sweep (E18, E20): the heuristic RM with the online
/// predictor over bursts of `burst` simultaneous synthetic arrivals.
struct BurstCell {
    const char* label;
    std::size_t burst;
    double batch_window; ///< < 0 = sequential decision loop
    std::size_t shards;
    bool contender; ///< competes for the sweep's best against the first cell
};

/// Run `cells` RMWP_BENCH_REPS times (default 1), interleaved, print their
/// table and write BENCH_<id>.json.  The first cell is the reference
/// (`reference` names it in the JSON keys); per repetition, the best
/// contender's decisions/s over the reference's is that repetition's
/// speedup, and the headline is its median over the repetitions, so one
/// slow cell in one repetition cannot decide it.  Returns runs[cell][rep].
std::vector<std::vector<ServeResult>> burst_sweep(const std::string& id,
                                                  const std::string& reference,
                                                  const std::string& contender,
                                                  std::span<const BurstCell> cells,
                                                  const Platform& platform, const Catalog& catalog,
                                                  SyntheticSourceParams source_params,
                                                  const std::string& setup) {
    const std::uint64_t arrivals = serve_arrivals();
    const std::uint64_t seed = env_size("RMWP_SEED", 42);
    const std::size_t reps = bench_reps(1);
    std::cout << "setup: " << arrivals << " synthetic arrivals per cell, " << reps
              << " interleaved rep(s), seed " << seed << ", " << setup
              << ", heuristic RM + online predictor\n\n";

    source_params.seed = seed;
    const auto runs = serve_repeated(cells.size(), reps, [&](std::size_t c) {
        HeuristicRM rm;
        rm.set_shard_config({cells[c].shards});
        PredictorSpec spec;
        spec.kind = PredictorSpec::Kind::online;
        const std::unique_ptr<Predictor> predictor = make_predictor(spec, catalog, Rng(seed));
        BurstSource source(catalog, source_params, cells[c].burst);
        ServeConfig config = serve_config(arrivals, seed);
        config.batch_window = cells[c].batch_window;
        return serve(platform, catalog, rm, *predictor, source, config);
    });
    // dps[cell][rep]
    std::vector<std::vector<double>> dps(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c)
        for (const ServeResult& run : runs[c]) dps[c].push_back(decisions_per_second(run));

    Samples reference_dps;
    Samples best_dps;
    Samples best_speedup;
    JsonValue per_rep = JsonValue::array();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        double best = 0.0;
        for (std::size_t c = 0; c < cells.size(); ++c)
            if (cells[c].contender) best = std::max(best, dps[c][rep]);
        const double ref = dps[0][rep];
        reference_dps.add(ref);
        best_dps.add(best);
        best_speedup.add(ref > 0.0 ? best / ref : 0.0);
        JsonValue j = JsonValue::object();
        j.set(reference + "_decisions_per_second", ref);
        j.set("best_" + contender + "_decisions_per_second", best);
        per_rep.push(std::move(j));
    }

    JsonValue results = JsonValue::array();
    Table table({"configuration", "decisions/sec", "min", "max", "mean group", "accepted %",
                 "p99 us", "wall ms", "speedup"});
    for (std::size_t c = 0; c < cells.size(); ++c) {
        Samples cell_dps;
        Samples speedup;
        Samples p99_us;
        Samples wall_ms;
        for (std::size_t rep = 0; rep < reps; ++rep) {
            cell_dps.add(dps[c][rep]);
            speedup.add(dps[0][rep] > 0.0 ? dps[c][rep] / dps[0][rep] : 0.0);
            p99_us.add(runs[c][rep].latency_p99_us);
            wall_ms.add(runs[c][rep].wall_seconds * 1000.0);
        }
        const ServeResult& run = runs[c].front();
        const double mean_group = run.result.activations > 0
                                      ? static_cast<double>(run.result.requests) /
                                            static_cast<double>(run.result.activations)
                                      : 0.0;
        table.row()
            .cell(cells[c].label)
            .cell(cell_dps.median(), 0)
            .cell(cell_dps.min(), 0)
            .cell(cell_dps.max(), 0)
            .cell(mean_group, 2)
            .cell(accepted_percent(run), 1)
            .cell(p99_us.median(), 0)
            .cell(wall_ms.median(), 0)
            .cell(speedup.median(), 2);

        JsonValue j = JsonValue::object();
        j.set("label", cells[c].label);
        j.set("burst", static_cast<std::uint64_t>(cells[c].burst));
        j.set("batch_window", cells[c].batch_window);
        j.set("shards", static_cast<std::uint64_t>(cells[c].shards));
        j.set("arrivals", run.arrivals);
        j.set("accepted", static_cast<std::uint64_t>(run.result.accepted));
        j.set("rejected", static_cast<std::uint64_t>(run.result.rejected));
        j.set("deadline_misses", static_cast<std::uint64_t>(run.result.deadline_misses));
        j.set("activations", static_cast<std::uint64_t>(run.result.activations));
        j.set("mean_group_size", mean_group);
        j.set("decisions_per_second", cell_dps.median());
        j.set("decisions_per_second_min", cell_dps.min());
        j.set("decisions_per_second_max", cell_dps.max());
        j.set("latency_p99_us", p99_us.median());
        j.set("wall_ms", wall_ms.median());
        j.set("speedup_vs_" + reference, speedup.median());
        results.push(std::move(j));
    }
    table.print(std::cout);

    JsonValue root = JsonValue::object();
    root.set("bench", id);
    root.set("arrivals_per_cell", arrivals);
    root.set("seed", seed);
    root.set("reps", static_cast<std::uint64_t>(reps));
    root.set(reference + "_decisions_per_second", reference_dps.median());
    root.set("best_" + contender + "_decisions_per_second", best_dps.median());
    root.set("best_speedup_vs_" + reference, best_speedup.median());
    root.set("repetitions", std::move(per_rep));
    root.set("cells", std::move(results));
    write_json(id, root);
    return runs;
}

} // namespace

// E17 (ours) — serve-mode throughput: the long-running admission service
// (DESIGN.md §11) driven from the endless synthetic source, measured in
// decisions per wall-clock second with per-arrival service latency
// percentiles.  Cells cover each RM with prediction off/online, plus an
// overload cell (bounded backlog, deterministic shedding) and a
// fault-injection cell (chunked schedules + rescue re-planning on the hot
// path).  Writes BENCH_serve.json.
void serve_throughput() {
    const std::uint64_t arrivals = serve_arrivals();
    const std::uint64_t seed = env_size("RMWP_SEED", 42);
    const Platform platform = make_paper_platform();
    const Catalog catalog = serve_catalog(platform, seed);

    struct Cell {
        const char* label;
        RmKind rm;
        bool online;
        std::size_t max_pending;
        double decision_cost;
        bool faults;
    };
    const Cell cells[] = {
        {"baseline", RmKind::baseline, false, 0, 0.0, false},
        {"heuristic", RmKind::heuristic, false, 0, 0.0, false},
        {"heuristic+online", RmKind::heuristic, true, 0, 0.0, false},
        {"exact", RmKind::exact, false, 0, 0.0, false},
        // Decision cost above the ~6ms mean interarrival: the decider falls
        // behind, the backlog saturates, and shedding engages.
        {"heuristic+overload", RmKind::heuristic, false, 4, 8.0, false},
        {"heuristic+faults", RmKind::heuristic, false, 0, 0.0, true},
    };

    std::cout << "E17: serve-mode throughput (ours)\n"
              << "setup: " << arrivals << " synthetic arrivals per cell, seed " << seed
              << ", 5 CPUs + 1 GPU, " << catalog.size() << " task types\n\n";

    JsonValue results = JsonValue::array();
    Table table({"configuration", "decisions/sec", "p50 us", "p99 us", "accepted %", "shed",
                 "wall ms"});
    for (const Cell& cell : cells) {
        const std::unique_ptr<ResourceManager> rm = make_rm(cell.rm);
        PredictorSpec spec;
        if (cell.online) spec.kind = PredictorSpec::Kind::online;
        const std::unique_ptr<Predictor> predictor = make_predictor(spec, catalog, Rng(seed));

        SyntheticSourceParams source_params;
        source_params.seed = seed;
        SyntheticArrivalSource source(catalog, source_params);

        ServeConfig config = serve_config(arrivals, seed);
        config.max_pending = cell.max_pending;
        config.decision_cost = cell.decision_cost;
        if (cell.faults) {
            config.faults.outage_rate = 0.5;
            config.faults.throttle_rate = 0.5;
            config.fault_seed = seed;
            config.limits.expect_no_misses = false;
        }
        const ServeResult run = serve(platform, catalog, *rm, *predictor, source, config);

        table.row()
            .cell(cell.label)
            .cell(decisions_per_second(run), 0)
            .cell(run.latency_p50_us, 0)
            .cell(run.latency_p99_us, 0)
            .cell(accepted_percent(run), 1)
            .cell(run.shed)
            .cell(run.wall_seconds * 1000.0, 0);

        JsonValue j = JsonValue::object();
        j.set("label", cell.label);
        j.set("arrivals", run.arrivals);
        j.set("accepted", static_cast<std::uint64_t>(run.result.accepted));
        j.set("rejected", static_cast<std::uint64_t>(run.result.rejected));
        j.set("shed", run.shed);
        j.set("completed", static_cast<std::uint64_t>(run.result.completed));
        j.set("deadline_misses", static_cast<std::uint64_t>(run.result.deadline_misses));
        j.set("decisions_per_second", decisions_per_second(run));
        j.set("latency_p50_us", run.latency_p50_us);
        j.set("latency_p99_us", run.latency_p99_us);
        j.set("wall_ms", run.wall_seconds * 1000.0);
        j.set("monitor_checks", run.monitor_checks);
        results.push(std::move(j));
    }
    table.print(std::cout);

    JsonValue root = JsonValue::object();
    root.set("bench", "serve");
    root.set("arrivals_per_cell", arrivals);
    root.set("seed", seed);
    root.set("cells", std::move(results));
    write_json("serve", root);

    std::cout << "\nfinding: the streaming engine sustains the batch path's admission\n"
                 "throughput without holding the trace in memory; overload shedding and\n"
                 "chunked fault injection cost little on the hot path.\n";
}

// E18 (ours) — batched admission throughput: decisions per wall-clock
// second of the serve loop as a function of admission batch size
// (DESIGN.md §13).  The workload is the endless synthetic source with
// arrivals collapsed into bursts of B simultaneous requests (the
// per-request mean rate is unchanged, so every cell carries the same
// offered load); the sweep compares the sequential decision loop
// (batch_window < 0, one RM activation per request) against the batched
// loop (batch_window = 0, one decide_batch activation per burst) across
// burst sizes.  Sequential controls at selected burst sizes separate the
// batching speedup from any workload effect of burstiness itself.
//
// E20 (ours) — sharded admission throughput runs with it: the islands
// platform whose partitioned catalog splits into four independent resource
// groups (DESIGN.md §15), decided by the batched loop under shards
// {1, 2, 4}, every bucket solved serially on the serve thread.  Decisions
// are bit-identical by contract, so the acceptance counts must agree across
// every cell (RMWP_ENSURE) and the sweep isolates the sharded path's
// solve-side speedup, which comes from its cross-item bucket cache
// (EXPERIMENTS.md E20).
//
// RMWP_BENCH_REPS (default 1) repeats every cell, interleaved; each cell
// reports the median, min and max of its decisions/s, and each headline
// ratio is the median over repetitions of that repetition's ratio.  Writes
// BENCH_admission.json and BENCH_shard.json.
void admission_throughput() {
    const std::uint64_t seed = env_size("RMWP_SEED", 42);
    const Platform platform = make_paper_platform();
    const Catalog catalog = serve_catalog(platform, seed);

    const BurstCell cells[] = {
        // The baseline: one decision per arrival.
        {"sequential", 1, -1.0, 1, false},
        // Batch-of-1 parity: the decide_batch path on singleton groups.
        {"batch=1", 1, 0.0, 1, true},
        {"batch=2", 2, 0.0, 1, true},
        {"batch=4", 4, 0.0, 1, true},
        {"batch=8", 8, 0.0, 1, true},
        {"seq@burst=8", 8, -1.0, 1, false},
        {"batch=16", 16, 0.0, 1, true},
        {"batch=32", 32, 0.0, 1, true},
        {"seq@burst=32", 32, -1.0, 1, false},
    };
    std::cout << "E18: batched admission throughput (ours)\n";
    burst_sweep("admission", "sequential", "batched", cells, platform, catalog,
                SyntheticSourceParams{},
                "5 CPUs + 1 GPU, " + std::to_string(catalog.size()) + " task types");
    std::cout << "\nfinding: coalescing simultaneous arrivals into one decide_batch\n"
                 "activation amortises the plan rebuild, the sorted-block refresh, and the\n"
                 "schedule rebuild across the group; throughput grows with batch size while\n"
                 "the sequential controls at the same burstiness stay near the baseline.\n";

    // ---- E20: sharded admission on the islands platform ----
    //
    // Twenty-four CPUs, four GPUs, one DVFS core — round-robin over four
    // islands, so each island holds six CPUs and a GPU and the partitioned
    // catalog confines every task type to one island.  The platform is
    // deliberately big: Algorithm 1's refresh loop is superlinear in the
    // active-set size, so the whole-platform solve dominates the decision
    // and a bucket verdict kept across the burst saves real work.  All
    // cells run the batched loop on the same burst-8 workload — the only
    // variable is the shard config, and the determinism contract makes
    // every cell's decision stream identical.
    PlatformBuilder islands_builder;
    for (int k = 0; k < 24; ++k) islands_builder.add_cpu("CPU" + std::to_string(k));
    for (int k = 0; k < 4; ++k) islands_builder.add_gpu("GPU" + std::to_string(k));
    islands_builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    const Platform islands = islands_builder.build();
    CatalogParams islands_params;
    islands_params.type_count = 32;
    Rng islands_rng(seed);
    const Catalog islands_catalog =
        generate_partitioned_catalog(islands, islands_params, 4, islands_rng);

    const BurstCell shard_cells[] = {
        {"batched (shards=1)", 8, 0.0, 1, false},
        {"shards=2", 8, 0.0, 2, true},
        {"shards=4", 8, 0.0, 4, true},
    };
    // The default mean is calibrated for the 6-resource platform; with ~5x
    // the capacity here, arrivals come ~5x as fast so the active set stays
    // proportionally loaded and the solver sees platform-sized instances.
    SyntheticSourceParams islands_source;
    islands_source.interarrival_mean = 1.2;
    islands_source.interarrival_stddev = 0.4;
    std::cout << "\nE20: sharded admission throughput (ours)\n";
    const auto shard_runs = burst_sweep(
        "shard", "batched", "sharded", shard_cells, islands, islands_catalog, islands_source,
        "burst 8, 24 CPUs + 4 GPUs + 1 DVFS core in 4 islands, " +
            std::to_string(islands_catalog.size()) + " island-confined task types");
    // The determinism contract in numbers: every shard config must accept
    // and reject exactly the same requests (every repetition of a cell
    // already matches its first).
    for (const std::vector<ServeResult>& cell_runs : shard_runs)
        RMWP_ENSURE(same_decisions(cell_runs.front(), shard_runs.front().front()));

    std::cout << "\nfinding: partitioning the admission solve by resource group turns one\n"
                 "whole-platform plan into bucket-sized plans solved one after another, and\n"
                 "buckets no admission touched keep their verdict for the rest of the burst;\n"
                 "the acceptance counts stay bit-identical across shard configs, so the\n"
                 "speedup, which the kept verdicts pay for, carries no behavioural drift.\n";
}

// E19 (ours) — telemetry overhead: serve-mode throughput with the full
// observability stack live (telemetry endpoint + stage profiler + HDR
// latency recording) versus the bare hot path.  The claim under test
// (DESIGN.md §14): instrumentation costs < 3 % of decisions/sec, because
// the hot path only touches thread-local counters (clock pair on every
// 64th call) and relaxed atomics, and all rendering happens on the
// telemetry thread against published snapshots.
//
// RMWP_BENCH_REPS (default 3) repetitions per cell, interleaved, and each
// cell keeps its best (best-of to shed scheduler noise).  Writes
// BENCH_telemetry.json.
void telemetry_overhead() {
    const std::uint64_t arrivals = serve_arrivals();
    const std::uint64_t seed = env_size("RMWP_SEED", 42);
    const std::size_t reps = bench_reps(3);
    const Platform platform = make_paper_platform();
    const Catalog catalog = serve_catalog(platform, seed);

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

    // stages[cell][rep], filled in the order serve_repeated runs the cells.
    std::vector<std::vector<obs::StageStats>> stages(std::size(cells));
    const auto runs = serve_repeated(std::size(cells), reps, [&](std::size_t c) {
        HeuristicRM rm;
        NullPredictor predictor;
        SyntheticSourceParams source_params;
        source_params.seed = seed;
        SyntheticArrivalSource source(catalog, source_params);

        ServeConfig config = serve_config(arrivals, seed);
        if (cells[c].telemetry) config.telemetry_port = 0;
        obs::StageStats& rep_stages = stages[c].emplace_back();
        if (cells[c].profiler) config.stage_stats_out = &rep_stages;
        return serve(platform, catalog, rm, predictor, source, config);
    });

    JsonValue results = JsonValue::array();
    Table table({"configuration", "decisions/sec", "p99 us", "stage ns/decision", "wall ms",
                 "vs bare"});
    std::vector<double> best_dps;
    for (std::size_t c = 0; c < std::size(cells); ++c) {
        std::size_t best_rep = 0;
        for (std::size_t rep = 1; rep < reps; ++rep)
            if (decisions_per_second(runs[c][rep]) > decisions_per_second(runs[c][best_rep]))
                best_rep = rep;
        const ServeResult& best = runs[c][best_rep];
        const obs::StageStats& best_stages = stages[c][best_rep];
        best_dps.push_back(decisions_per_second(best));

        // The three cells run the identical deterministic workload: any drift
        // in decisions means the instrumentation leaked into the decisions.
        RMWP_ENSURE(same_decisions(best, runs[0][0]));

        const std::uint64_t decide_calls = best_stages.cell(obs::Stage::decide).calls;
        const double stage_ns_per_decision =
            decide_calls > 0
                ? static_cast<double>(best_stages.estimated_ns(obs::Stage::decide)) /
                      static_cast<double>(decide_calls)
                : 0.0;
        const double versus_bare = best_dps[0] > 0.0 ? best_dps[c] / best_dps[0] : 1.0;
        table.row()
            .cell(cells[c].label)
            .cell(best_dps[c], 0)
            .cell(best.latency_p99_us, 0)
            .cell(stage_ns_per_decision, 0)
            .cell(best.wall_seconds * 1000.0, 0)
            .cell(versus_bare, 3);

        JsonValue j = JsonValue::object();
        j.set("label", cells[c].label);
        j.set("decisions_per_second", best_dps[c]);
        j.set("latency_p50_us", best.latency_p50_us);
        j.set("latency_p99_us", best.latency_p99_us);
        j.set("latency_p999_us", best.latency_p999_us);
        j.set("stage_ns_per_decision", stage_ns_per_decision);
        j.set("telemetry_requests", best.telemetry_requests);
        j.set("wall_ms", best.wall_seconds * 1000.0);
        j.set("throughput_vs_bare", versus_bare);
        results.push(std::move(j));
    }
    table.print(std::cout);

    const double regression = best_dps[0] > 0.0 ? 1.0 - best_dps[2] / best_dps[0] : 0.0;
    std::cout << "\ntelemetry+profiler regression vs bare: " << regression * 100.0 << " %\n";
    // The acceptance bound of DESIGN.md §14.  Best-of-N already sheds most
    // scheduler noise; a real > 3 % cost means a hot-path regression.
    RMWP_ENSURE(regression < 0.03);

    JsonValue root = JsonValue::object();
    root.set("bench", "telemetry");
    root.set("arrivals_per_cell", arrivals);
    root.set("reps", static_cast<std::uint64_t>(reps));
    root.set("seed", seed);
    root.set("regression_vs_bare", regression);
    root.set("cells", std::move(results));
    write_json("telemetry", root);

    std::cout << "\nfinding: the full observability stack — live /metrics endpoint, sampled\n"
                 "stage profiler, HDR latency recording — stays within the 3 % throughput\n"
                 "budget because the hot path only increments thread-local counters and\n"
                 "relaxed atomics; rendering runs on the telemetry thread from snapshots.\n";
}

} // namespace rmwp::bench
