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
// E20 (ours) — sharded admission throughput rides in the same binary:
// the islands platform whose partitioned catalog splits into four
// independent resource groups (DESIGN.md §15), decided by the batched
// loop under shards {1, 2, 4}, every bucket solved serially on the serve
// thread.  Decisions are bit-identical by contract, so the acceptance
// counts must agree across every cell (RMWP_ENSURE) and the sweep isolates
// the sharded path's solve-side speedup, which comes from its cross-item
// bucket cache (EXPERIMENTS.md E20).  Writes BENCH_shard.json.
//
// Scaling: RMWP_SERVE_ARRIVALS (default 20000) arrivals per cell,
// RMWP_SEED for the master seed.  Writes BENCH_admission.json.
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/heuristic_rm.hpp"
#include "serve/serve.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace rmwp;

/// Synthetic arrivals collapsed into bursts: every run of `burst`
/// consecutive requests shares the first member's arrival instant.  Mean
/// per-request rate, types, and relative deadlines are untouched, so the
/// offered load is identical across burst sizes.  Not seekable (the bench
/// never checkpoints).
class BurstSource final : public ArrivalSource {
public:
    BurstSource(const Catalog& catalog, const SyntheticSourceParams& params, std::size_t burst)
        : inner_(catalog, params), burst_(burst) {}

    [[nodiscard]] std::optional<Request> next() override {
        if (in_burst_ == 0) {
            const std::optional<Request> first = inner_.next();
            if (!first.has_value()) return std::nullopt;
            burst_arrival_ = first->arrival;
            in_burst_ = burst_;
            --in_burst_;
            return first;
        }
        std::optional<Request> request = inner_.next();
        if (!request.has_value()) return std::nullopt;
        --in_burst_;
        request->arrival = burst_arrival_;
        return request;
    }
    [[nodiscard]] bool seekable() const noexcept override { return false; }
    [[nodiscard]] SourceCursor cursor() const noexcept override { return {}; }
    void seek(const SourceCursor&) override {
        throw std::runtime_error("BurstSource is not seekable");
    }

private:
    SyntheticArrivalSource inner_;
    std::size_t burst_;
    std::size_t in_burst_ = 0; ///< members still owed at burst_arrival_
    Time burst_arrival_ = 0.0;
};

} // namespace

int main() {
    using namespace rmwp;

    const std::uint64_t arrivals = env_size("RMWP_SERVE_ARRIVALS", 20000);
    const std::uint64_t seed = env_size("RMWP_SEED", 42);

    PlatformBuilder builder;
    for (int i = 1; i <= 5; ++i) builder.add_cpu("CPU" + std::to_string(i));
    builder.add_gpu("GPU");
    const Platform platform = builder.build();
    CatalogParams catalog_params;
    Rng catalog_rng(seed);
    const Catalog catalog = generate_catalog(platform, catalog_params, catalog_rng);

    struct Cell {
        const char* label;
        std::size_t burst;
        double batch_window; ///< < 0 = sequential decision loop
    };
    const Cell cells[] = {
        // The PR-5-comparable baseline: one decision per arrival.
        {"sequential", 1, -1.0},
        // Batch-of-1 parity: the decide_batch path on singleton groups.
        {"batch=1", 1, 0.0},
        {"batch=2", 2, 0.0},
        {"batch=4", 4, 0.0},
        {"batch=8", 8, 0.0},
        {"seq@burst=8", 8, -1.0},
        {"batch=16", 16, 0.0},
        {"batch=32", 32, 0.0},
        {"seq@burst=32", 32, -1.0},
    };

    std::cout << "E18: batched admission throughput (ours)\n"
              << "setup: " << arrivals << " synthetic arrivals per cell, seed " << seed
              << ", 5 CPUs + 1 GPU, " << catalog.size()
              << " task types, heuristic RM + online predictor\n\n";

    obs::JsonValue results = obs::JsonValue::array();
    double sequential_dps = 0.0;
    double best_dps = 0.0;
    Table table({"configuration", "decisions/sec", "mean group", "accepted %", "p99 us",
                 "wall ms", "speedup"});
    for (const Cell& cell : cells) {
        HeuristicRM rm;
        PredictorSpec spec;
        spec.kind = PredictorSpec::Kind::online;
        const std::unique_ptr<Predictor> predictor = make_predictor(spec, catalog, Rng(seed));

        SyntheticSourceParams source_params;
        source_params.seed = seed;
        BurstSource source(catalog, source_params, cell.burst);

        ServeConfig config;
        config.sim.execution_seed = seed;
        config.max_arrivals = arrivals;
        config.batch_window = cell.batch_window;
        config.monitor_period_seconds = 0.1;
        config.limits.expect_no_misses = true;

        serve_clear_stop();
        const ServeResult serve =
            run_serve(platform, catalog, rm, *predictor, nullptr, source, config);
        RMWP_ENSURE(serve.exit_code == 0);

        const double dps = serve.wall_seconds > 0.0
                               ? static_cast<double>(serve.result.requests) / serve.wall_seconds
                               : 0.0;
        const double mean_group =
            serve.result.activations > 0
                ? static_cast<double>(serve.result.requests) /
                      static_cast<double>(serve.result.activations)
                : 0.0;
        const double accepted_percent =
            serve.result.requests > 0
                ? 100.0 * static_cast<double>(serve.result.accepted) /
                      static_cast<double>(serve.result.requests)
                : 0.0;
        if (std::string(cell.label) == "sequential") sequential_dps = dps;
        if (cell.batch_window >= 0.0 && dps > best_dps) best_dps = dps;
        const double speedup = sequential_dps > 0.0 ? dps / sequential_dps : 0.0;

        table.row()
            .cell(cell.label)
            .cell(dps, 0)
            .cell(mean_group, 2)
            .cell(accepted_percent, 1)
            .cell(serve.latency_p99_us, 0)
            .cell(serve.wall_seconds * 1000.0, 0)
            .cell(speedup, 2);

        obs::JsonValue j = obs::JsonValue::object();
        j.set("label", cell.label);
        j.set("burst", static_cast<std::uint64_t>(cell.burst));
        j.set("batch_window", cell.batch_window);
        j.set("arrivals", serve.arrivals);
        j.set("accepted", static_cast<std::uint64_t>(serve.result.accepted));
        j.set("rejected", static_cast<std::uint64_t>(serve.result.rejected));
        j.set("deadline_misses", static_cast<std::uint64_t>(serve.result.deadline_misses));
        j.set("activations", static_cast<std::uint64_t>(serve.result.activations));
        j.set("mean_group_size", mean_group);
        j.set("decisions_per_second", dps);
        j.set("latency_p99_us", serve.latency_p99_us);
        j.set("wall_ms", serve.wall_seconds * 1000.0);
        j.set("speedup_vs_sequential", speedup);
        results.push(std::move(j));
    }
    table.print(std::cout);

    obs::JsonValue root = obs::JsonValue::object();
    root.set("bench", "admission");
    root.set("arrivals_per_cell", arrivals);
    root.set("seed", seed);
    root.set("sequential_decisions_per_second", sequential_dps);
    root.set("best_batched_decisions_per_second", best_dps);
    root.set("best_speedup_vs_sequential", sequential_dps > 0.0 ? best_dps / sequential_dps : 0.0);
    root.set("cells", std::move(results));
    std::ofstream out("BENCH_admission.json");
    out << root.dump(2) << '\n';
    if (out) std::cout << "wrote BENCH_admission.json\n";

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

    struct ShardCell {
        const char* label;
        std::size_t shards;
    };
    const ShardCell shard_cells[] = {
        {"batched (shards=1)", 1},
        {"shards=2", 2},
        {"shards=4", 4},
    };

    std::cout << "\nE20: sharded admission throughput (ours)\n"
              << "setup: " << arrivals << " synthetic arrivals per cell, burst 8, seed " << seed
              << ", 24 CPUs + 4 GPUs + 1 DVFS core in 4 islands, " << islands_catalog.size()
              << " island-confined task types, heuristic RM + online predictor\n\n";

    obs::JsonValue shard_results = obs::JsonValue::array();
    double batched_dps = 0.0;
    double best_sharded_dps = 0.0;
    std::uint64_t reference_accepted = 0;
    std::uint64_t reference_rejected = 0;
    Table shard_table(
        {"configuration", "decisions/sec", "accepted %", "p99 us", "wall ms", "speedup"});
    for (const ShardCell& cell : shard_cells) {
        HeuristicRM rm;
        rm.set_shard_config({cell.shards});
        PredictorSpec spec;
        spec.kind = PredictorSpec::Kind::online;
        const std::unique_ptr<Predictor> predictor =
            make_predictor(spec, islands_catalog, Rng(seed));

        SyntheticSourceParams source_params;
        source_params.seed = seed;
        // The default mean is calibrated for the 6-resource platform;
        // with ~5x the capacity here, arrivals come ~5x as fast so the
        // active set stays proportionally loaded and the solver sees
        // platform-sized instances.
        source_params.interarrival_mean = 1.2;
        source_params.interarrival_stddev = 0.4;
        BurstSource source(islands_catalog, source_params, 8);

        ServeConfig config;
        config.sim.execution_seed = seed;
        config.max_arrivals = arrivals;
        config.batch_window = 0.0;
        config.monitor_period_seconds = 0.1;
        config.limits.expect_no_misses = true;

        serve_clear_stop();
        const ServeResult serve =
            run_serve(islands, islands_catalog, rm, *predictor, nullptr, source, config);
        RMWP_ENSURE(serve.exit_code == 0);

        // The determinism contract in numbers: every shard config must
        // accept and reject exactly the same requests.
        if (cell.shards == 1) {
            reference_accepted = serve.result.accepted;
            reference_rejected = serve.result.rejected;
        }
        RMWP_ENSURE(serve.result.accepted == reference_accepted);
        RMWP_ENSURE(serve.result.rejected == reference_rejected);

        const double dps = serve.wall_seconds > 0.0
                               ? static_cast<double>(serve.result.requests) / serve.wall_seconds
                               : 0.0;
        const double accepted_percent =
            serve.result.requests > 0
                ? 100.0 * static_cast<double>(serve.result.accepted) /
                      static_cast<double>(serve.result.requests)
                : 0.0;
        if (cell.shards == 1) batched_dps = dps;
        if (cell.shards > 1 && dps > best_sharded_dps) best_sharded_dps = dps;
        const double speedup = batched_dps > 0.0 ? dps / batched_dps : 0.0;

        shard_table.row()
            .cell(cell.label)
            .cell(dps, 0)
            .cell(accepted_percent, 1)
            .cell(serve.latency_p99_us, 0)
            .cell(serve.wall_seconds * 1000.0, 0)
            .cell(speedup, 2);

        obs::JsonValue j = obs::JsonValue::object();
        j.set("label", cell.label);
        j.set("shards", static_cast<std::uint64_t>(cell.shards));
        j.set("arrivals", serve.arrivals);
        j.set("accepted", static_cast<std::uint64_t>(serve.result.accepted));
        j.set("rejected", static_cast<std::uint64_t>(serve.result.rejected));
        j.set("deadline_misses", static_cast<std::uint64_t>(serve.result.deadline_misses));
        j.set("decisions_per_second", dps);
        j.set("latency_p99_us", serve.latency_p99_us);
        j.set("wall_ms", serve.wall_seconds * 1000.0);
        j.set("speedup_vs_batched", speedup);
        shard_results.push(std::move(j));
    }
    shard_table.print(std::cout);

    obs::JsonValue shard_root = obs::JsonValue::object();
    shard_root.set("bench", "shard");
    shard_root.set("arrivals_per_cell", arrivals);
    shard_root.set("seed", seed);
    shard_root.set("batched_decisions_per_second", batched_dps);
    shard_root.set("best_sharded_decisions_per_second", best_sharded_dps);
    shard_root.set("best_speedup_vs_batched",
                   batched_dps > 0.0 ? best_sharded_dps / batched_dps : 0.0);
    shard_root.set("cells", std::move(shard_results));
    std::ofstream shard_out("BENCH_shard.json");
    shard_out << shard_root.dump(2) << '\n';
    if (shard_out) std::cout << "wrote BENCH_shard.json\n";

    std::cout << "\nfinding: partitioning the admission solve by resource group turns one\n"
                 "whole-platform plan into bucket-sized plans solved one after another, and\n"
                 "buckets no admission touched keep their verdict for the rest of the burst;\n"
                 "the acceptance counts stay bit-identical across shard configs, so the\n"
                 "speedup, which the kept verdicts pay for, carries no behavioural drift.\n";
    return 0;
}
