// Machine-readable bench artefacts: every experiment bench writes a
// BENCH_<id>.json file in the working directory recording its configuration,
// one metrics object per (RM, predictor) cell with the cell's wall-clock
// time, and — where the bench opts in via record_speedup — a serial vs
// parallel timing comparison whose results are verified bit-identical
// before the speedup is reported.  CI uploads these files as artefacts so
// perf regressions are visible without re-running the suite.  Documents are
// obs::JsonValue trees written indented (src/obs/json.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "obs/telemetry_server.hpp"
#include "util/check.hpp"

namespace rmwp::bench {

using obs::JsonValue;

class WallTimer {
public:
    [[nodiscard]] double elapsed_ms() const {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double, std::milli>(now - start_).count();
    }

private:
    std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

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

/// One bench's JSON artefact.  Construct at the top of main; cells append
/// as the bench runs; the file is written by flush() (also invoked by the
/// destructor, so early returns still leave an artefact behind).
class Report {
public:
    explicit Report(std::string id) : id_(std::move(id)) {}

    Report(const Report&) = delete;
    Report& operator=(const Report&) = delete;

    ~Report() { flush(); }

    /// Record the configuration of one experiment group (benches sweeping
    /// deadline groups call this once per group).
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

    /// Same with a caller-provided RM (ablation benches).
    RunOutcome run_with(const ExperimentRunner& runner, ResourceManager& rm,
                        const PredictorSpec& predictor, const std::string& label) {
        const WallTimer timer;
        RunOutcome outcome = runner.run_with(rm, predictor);
        add_cell(label, outcome, timer.elapsed_ms(), runner.jobs());
        return outcome;
    }

    /// Cell from a raw per-trace result set (benches that drive
    /// simulate_trace directly instead of going through RunSpec).
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

    /// Attach a bench-specific top-level field.
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
        const std::string path = "BENCH_" + id_ + ".json";
        std::ofstream out(path);
        out << root.dump(2) << '\n';
        if (out) std::cout << "wrote " << path << '\n';
    }

private:
    std::string id_;
    JsonValue configs_ = JsonValue::array();
    JsonValue cells_ = JsonValue::array();
    JsonValue speedup_;
    JsonValue extra_ = JsonValue::object();
    bool flushed_ = false;
};

} // namespace rmwp::bench
