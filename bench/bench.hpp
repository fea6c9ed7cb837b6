// Shared plumbing for rmwp_bench's experiments: environment-scaled trace
// budgets and consistent headers, the machine-readable BENCH_<id>.json
// artefacts, and the loops several experiments share (the LT/VT group loop
// and the per-trace simulation loop).
//
// Every trace experiment accepts:
//   RMWP_TRACES   — traces per deadline group            (default: per-experiment)
//   RMWP_REQUESTS — requests per trace                   (default: per-experiment)
//   RMWP_SEED     — master seed                          (default: 42)
// The paper's full study is RMWP_TRACES=500 RMWP_REQUESTS=500; the
// defaults are chosen so the whole suite completes in laptop-minutes while
// preserving the paper's shapes.  The serve experiments (E17-E20) take
// RMWP_SERVE_ARRIVALS arrivals per cell instead, and E18-E20 repeat each
// cell RMWP_BENCH_REPS times.
//
// Artefacts: every trace experiment writes a BENCH_<id>.json file in the
// working directory recording its configuration, one metrics object per
// (RM, predictor) cell with the cell's wall-clock time, and — where the
// experiment opts in via record_speedup — a serial vs parallel timing
// comparison whose results are verified bit-identical before the speedup is
// reported.  CI uploads these files as artefacts so perf regressions are
// visible without re-running the suite.  Documents are obs::JsonValue trees
// written indented (src/obs/json.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/task_pool.hpp"
#include "exp/runner.hpp"
#include "obs/json.hpp"
#include "obs/telemetry_server.hpp"
#include "util/check.hpp"

namespace rmwp::bench {

using obs::JsonValue;

inline ExperimentConfig scaled_config(DeadlineGroup group, std::size_t default_traces,
                                      std::size_t default_requests) {
    ExperimentConfig config = ExperimentConfig::paper(group);
    config.trace_count = env_size("RMWP_TRACES", default_traces);
    config.trace.length = env_size("RMWP_REQUESTS", default_requests);
    config.seed = env_size("RMWP_SEED", 42);
    return config;
}

inline void print_header(const char* id, const char* what, const ExperimentConfig& config) {
    std::cout << id << ": " << what << '\n'
              << "setup: " << config.trace_count << " traces x " << config.trace.length
              << " requests, seed " << config.seed << ", interarrival Gaussian("
              << config.trace.interarrival_mean << ", " << config.trace.interarrival_stddev
              << "^2), jobs " << default_jobs() << "\n\n";
}

class WallTimer {
public:
    [[nodiscard]] double elapsed_ms() const {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double, std::milli>(now - start_).count();
    }

private:
    std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

inline void write_json(const std::string& id, const JsonValue& root) {
    const std::string path = "BENCH_" + id + ".json";
    std::ofstream out(path);
    out << root.dump(2) << '\n';
    if (out) std::cout << "wrote " << path << '\n';
}

inline JsonValue samples_json(const Samples& samples) {
    JsonValue j = JsonValue::object();
    j.set("count", static_cast<std::uint64_t>(samples.count()));
    j.set("mean", samples.empty() ? JsonValue() : JsonValue(samples.mean()));
    j.set("ci95", samples.count() > 1 ? JsonValue(samples.ci_halfwidth()) : JsonValue());
    j.set("min", samples.empty() ? JsonValue() : JsonValue(samples.min()));
    j.set("max", samples.empty() ? JsonValue() : JsonValue(samples.max()));
    return j;
}

inline JsonValue config_json(const ExperimentConfig& config) {
    JsonValue j = JsonValue::object();
    j.set("seed", static_cast<std::uint64_t>(config.seed));
    j.set("cpu_count", static_cast<std::uint64_t>(config.cpu_count));
    j.set("gpu_count", static_cast<std::uint64_t>(config.gpu_count));
    j.set("traces", static_cast<std::uint64_t>(config.trace_count));
    j.set("requests_per_trace", static_cast<std::uint64_t>(config.trace.length));
    j.set("interarrival_mean", config.trace.interarrival_mean);
    j.set("interarrival_stddev", config.trace.interarrival_stddev);
    j.set("faults", config.fault.any());
    return j;
}

inline JsonValue outcome_json(const RunOutcome& outcome) {
    std::uint64_t requests = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t fault_aborted = 0;
    for (const TraceResult& trace : outcome.per_trace) {
        requests += trace.requests;
        accepted += trace.accepted;
        rejected += trace.rejected;
        completed += trace.completed;
        fault_aborted += trace.fault_aborted;
    }
    JsonValue j = JsonValue::object();
    j.set("requests", requests);
    j.set("accepted", accepted);
    j.set("rejected", rejected);
    j.set("completed", completed);
    j.set("fault_aborted", fault_aborted);
    j.set("rejection_percent", samples_json(outcome.aggregate.rejection_percent));
    j.set("normalized_energy", samples_json(outcome.aggregate.normalized_energy));
    j.set("migrations", samples_json(outcome.aggregate.migrations));
    j.set("decision_ms_per_activation",
          samples_json(outcome.aggregate.decision_milliseconds_per_activation));
    j.set("loss_percent", samples_json(outcome.aggregate.loss_percent));
    obs::MetricsSnapshot merged;
    for (const TraceResult& trace : outcome.per_trace) merged.merge(trace.obs_metrics);
    if (!merged.empty()) j.set("obs", obs::metrics_json(merged));
    return j;
}

/// One experiment's JSON artefact.  Construct at the top of the experiment;
/// cells append as it runs; the file is written by flush() (also invoked by
/// the destructor, so early returns still leave an artefact behind).
class Report {
public:
    explicit Report(std::string id) : id_(std::move(id)) {}

    Report(const Report&) = delete;
    Report& operator=(const Report&) = delete;

    ~Report() { flush(); }

    /// Record the configuration of one experiment group (experiments
    /// sweeping deadline groups call this once per group).
    void add_config(const std::string& label, const ExperimentConfig& config) {
        JsonValue j = JsonValue::object();
        j.set("label", label);
        j.set("config", config_json(config));
        configs_.push(std::move(j));
    }

    /// Run one cell through the runner, timing it and appending its metrics.
    RunOutcome run(const ExperimentRunner& runner, const RunSpec& spec,
                   const std::string& label_prefix = "") {
        const WallTimer timer;
        RunOutcome outcome = runner.run(spec);
        add_cell(label_prefix + spec.label(), outcome, timer.elapsed_ms(), runner.jobs());
        return outcome;
    }

    /// Same with a caller-provided RM (ablation experiments).
    RunOutcome run_with(const ExperimentRunner& runner, ResourceManager& rm,
                        const PredictorSpec& predictor, const std::string& label) {
        const WallTimer timer;
        RunOutcome outcome = runner.run_with(rm, predictor);
        add_cell(label, outcome, timer.elapsed_ms(), runner.jobs());
        return outcome;
    }

    /// One cell from `simulate(t, trace)` over every trace, fanned out over
    /// the session's jobs (experiments that drive simulate_trace directly
    /// instead of going through RunSpec).  Results are in trace order.
    template <typename Simulate>
    std::vector<TraceResult> run_traces(const std::string& label, const std::vector<Trace>& traces,
                                        Simulate&& simulate) {
        const std::size_t jobs = default_jobs();
        const WallTimer timer;
        std::vector<TraceResult> results(traces.size());
        parallel_for(jobs, traces.size(),
                     [&](std::size_t t) { results[t] = simulate(t, traces[t]); });
        add_cell_results(label, results, timer.elapsed_ms(), jobs);
        return results;
    }

    /// Cell from a raw per-trace result set.
    void add_cell_results(const std::string& label, std::span<const TraceResult> results,
                          double wall_ms, std::size_t jobs) {
        RunOutcome outcome;
        outcome.per_trace.assign(results.begin(), results.end());
        outcome.aggregate = AggregateResult::over(outcome.per_trace);
        add_cell(label, outcome, wall_ms, jobs);
    }

    void add_cell(const std::string& label, const RunOutcome& outcome, double wall_ms,
                  std::size_t jobs) {
        JsonValue j = JsonValue::object();
        j.set("label", label);
        j.set("jobs", static_cast<std::uint64_t>(jobs));
        j.set("wall_ms", wall_ms);
        j.set("metrics", outcome_json(outcome));
        cells_.push(std::move(j));
    }

    /// Attach an experiment-specific top-level field.
    void set(const std::string& key, JsonValue value) { extra_.set(key, std::move(value)); }

    /// Time `spec` at the runner's configured job count against a fresh
    /// serial runner on the same configuration, verify the two outcomes are
    /// bit-identical (the engine's determinism contract), and record
    /// serial_ms / parallel_ms / speedup.  Trace generation happens outside
    /// the timed region in both cases.
    void record_speedup(const ExperimentRunner& runner, const RunSpec& spec) {
        const WallTimer parallel_timer;
        const RunOutcome parallel = runner.run(spec);
        const double parallel_ms = parallel_timer.elapsed_ms();

        const ExperimentRunner serial_runner(runner.config(), 1);
        const WallTimer serial_timer;
        const RunOutcome serial = serial_runner.run(spec);
        const double serial_ms = serial_timer.elapsed_ms();

        RMWP_ENSURE(serial.per_trace.size() == parallel.per_trace.size());
        for (std::size_t t = 0; t < serial.per_trace.size(); ++t)
            RMWP_ENSURE(
                equivalent_ignoring_host_time(serial.per_trace[t], parallel.per_trace[t]));

        JsonValue j = JsonValue::object();
        j.set("spec", spec.label());
        j.set("jobs", static_cast<std::uint64_t>(runner.jobs()));
        j.set("serial_ms", serial_ms);
        j.set("parallel_ms", parallel_ms);
        j.set("speedup", parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
        j.set("identical_results", true);
        speedup_ = std::move(j);
    }

    void flush() {
        if (flushed_) return;
        flushed_ = true;
        JsonValue root = JsonValue::object();
        root.set("bench", id_);
        root.set("default_jobs", static_cast<std::uint64_t>(default_jobs()));
        root.set("configs", std::move(configs_));
        root.set("cells", std::move(cells_));
        if (!speedup_.is_null()) root.set("speedup", std::move(speedup_));
        root.set("extra", std::move(extra_));
        write_json(id_, root);
    }

private:
    std::string id_;
    JsonValue configs_ = JsonValue::array();
    JsonValue cells_ = JsonValue::array();
    JsonValue speedup_;
    JsonValue extra_ = JsonValue::object();
    bool flushed_ = false;
};

/// Run `body(group, runner)` for the LT group, then the VT group, on the
/// scaled paper configuration.  The header (with the LT setup) comes first,
/// and each group's config is recorded under "LT" / "VT".
template <typename Body>
void for_each_group(Report& report, const char* id, const char* what, std::size_t traces,
                    std::size_t requests, Body&& body) {
    for (const DeadlineGroup group : {DeadlineGroup::less_tight, DeadlineGroup::very_tight}) {
        const ExperimentConfig config = scaled_config(group, traces, requests);
        if (group == DeadlineGroup::less_tight) print_header(id, what, config);
        report.add_config(to_string(group), config);
        body(group, ExperimentRunner(config));
    }
}

// ---- the experiments (DESIGN.md's experiment index) ----

void table1_motivation();    // E1
void exact_heuristic_grid(); // E2-E4
void fig4_accuracy();        // E5/E6
void fig5_overhead();        // E7
void ablations();            // E8
void micro_latency();        // E9
void critical_reservation(); // E10
void lookahead();            // E11
void dvfs();                 // E12
void wcet_slack();           // E13
void baseline();             // E14
void activation();           // E15
void fault_tolerance();      // E16
void serve_throughput();     // E17
void admission_throughput(); // E18/E20
void telemetry_overhead();   // E19

} // namespace rmwp::bench
