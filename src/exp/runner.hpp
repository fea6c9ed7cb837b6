// The experiment runner: generates the catalog and trace set once per
// configuration (identical traces feed every RM/predictor pairing, enabling
// the paired per-trace comparisons of Sec 5.2), then simulates each RunSpec
// and aggregates the results.
//
// Scaling: the paper runs 500 traces x 500 requests per group.  Bench
// binaries honour RMWP_TRACES and RMWP_REQUESTS environment variables so the
// full study can be reproduced when time allows; the defaults keep every
// bench within a laptop-minutes budget while preserving the paper's shapes.
//
// Parallelism: trace cells are simulated across `jobs` threads (RMWP_JOBS or
// the hardware concurrency by default).  Every per-trace random stream is
// derived from a fixed (seed, stream, trace-index) tuple and results land in
// index-addressed slots, so the per-trace results and the aggregate are
// bit-identical for every jobs value (only the host wall-clock fields of
// TraceResult differ; tests/test_parallel.cpp pins this).  run_all flattens
// a whole (spec, trace) grid into one fan-out, so the tail of one spec
// overlaps the head of the next, and builds its own RM per grid point.  The
// RM passed to run_with is shared across threads instead: its
// decide_batch()/rescue() must be re-entrant, which holds for every RM in
// this repository (they are stateless beyond construction-time options).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "metrics/aggregate.hpp"
#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"
#include "util/env.hpp"

namespace rmwp {

/// Per-trace observability artefacts (DESIGN.md §10).  When enabled, every
/// trace cell runs with its own TraceSink (one sink per run, so the
/// parallel engine needs no locking) and optionally exports the event
/// stream to `trace_dir`.  Exports omit host timestamps by default, so the
/// artefact files are byte-identical for every jobs value.
struct ObsOptions {
    /// Directory receiving per-trace files; empty = no files written.
    /// Created (recursively) on first use.
    std::string trace_dir;
    bool chrome = true; ///< write <stem>.trace.json (Chrome trace_event)
    bool jsonl = false; ///< write <stem>.events.jsonl (flat, re-parseable)
    std::size_t ring_capacity = obs::TraceSink::kDefaultCapacity;
    /// Attach a sink (filling TraceResult::obs_metrics) even with no
    /// trace_dir — metrics without event files.
    bool collect_metrics = false;

    [[nodiscard]] bool enabled() const noexcept {
        return collect_metrics || !trace_dir.empty();
    }
};

/// All per-trace results plus their aggregate for one RunSpec.
struct RunOutcome {
    RunSpec spec;
    std::vector<TraceResult> per_trace;
    AggregateResult aggregate;

    [[nodiscard]] double mean_rejection_percent() const {
        return aggregate.rejection_percent.mean();
    }
    [[nodiscard]] double mean_normalized_energy() const {
        return aggregate.normalized_energy.mean();
    }
};

class ExperimentRunner {
public:
    /// `jobs` = 0 selects the session default (RMWP_JOBS or hardware
    /// concurrency); 1 forces serial execution.
    explicit ExperimentRunner(ExperimentConfig config, std::size_t jobs = 0);

    /// Evaluate every spec over every trace in one fan-out over the flat,
    /// cell-major (spec, trace) grid.  The returned outcomes match `specs`
    /// in order; each per_trace vector is in trace order, bit-identical at
    /// any jobs value.
    [[nodiscard]] std::vector<RunOutcome> run_all(std::span<const RunSpec> specs) const;

    /// Simulate one RM/predictor pairing over every trace: a one-spec run_all.
    [[nodiscard]] RunOutcome run(const RunSpec& spec) const;

    /// Same, but with a caller-provided resource manager (e.g. a HeuristicRM
    /// with ablation options).  The RM must be stateless across traces and
    /// re-entrant (decide/rescue may run concurrently when jobs > 1).
    [[nodiscard]] RunOutcome run_with(ResourceManager& rm, const PredictorSpec& predictor) const;

    /// Simulate a single trace cell — the unit the parallel engine fans
    /// out.  Deterministic in (config, t, predictor) alone.
    [[nodiscard]] TraceResult run_trace(std::size_t t, ResourceManager& rm,
                                        const PredictorSpec& predictor) const;

    /// Enable per-trace observability for subsequent run/run_all/run_with
    /// calls.
    void set_obs(ObsOptions obs) { obs_ = std::move(obs); }
    [[nodiscard]] const ObsOptions& obs() const noexcept { return obs_; }

    [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }
    [[nodiscard]] const Platform& platform() const noexcept { return platform_; }
    [[nodiscard]] const Catalog& catalog() const noexcept { return catalog_; }
    [[nodiscard]] const std::vector<Trace>& traces() const noexcept { return traces_; }
    [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

private:
    /// Write the per-trace Chrome/JSONL files for one finished cell.
    void export_artefacts(const obs::TraceSink& sink, std::size_t t, const ResourceManager& rm,
                          const PredictorSpec& predictor) const;

    ExperimentConfig config_;
    Platform platform_;
    Catalog catalog_;
    std::vector<Trace> traces_;
    Rng predictor_root_;
    Rng fault_root_;
    std::size_t jobs_ = 1;
    ObsOptions obs_;
};

} // namespace rmwp
