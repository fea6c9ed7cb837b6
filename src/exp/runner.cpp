#include "exp/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "exec/task_pool.hpp"
#include "obs/export.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

// Fixed stream ids so that adding a new consumer never perturbs the draws
// of existing ones.
constexpr std::uint64_t kCatalogStream = 0x0001;
constexpr std::uint64_t kTraceStream = 0x0002;
constexpr std::uint64_t kPredictorStream = 0x0003;
constexpr std::uint64_t kFaultStream = 0x0004;

/// Everything a trace can make the simulator execute ends by the latest
/// absolute deadline — the fault horizon only needs to cover that.
Time trace_horizon(const Trace& trace) {
    Time horizon = 0.0;
    for (const Request& request : trace)
        horizon = std::max(horizon, request.absolute_deadline());
    return horizon;
}

Catalog build_catalog(const ExperimentConfig& config, const Platform& platform) {
    Rng rng = Rng(config.seed).derive(kCatalogStream);
    return generate_catalog(platform, config.catalog, rng);
}

} // namespace

ExperimentRunner::ExperimentRunner(ExperimentConfig config, std::size_t jobs)
    : config_(std::move(config)),
      platform_(config_.make_platform()),
      catalog_(build_catalog(config_, platform_)),
      traces_(generate_traces(catalog_, config_.trace, config_.trace_count,
                              Rng(config_.seed).derive(kTraceStream))),
      predictor_root_(Rng(config_.seed).derive(kPredictorStream)),
      fault_root_(Rng(config_.seed).derive(kFaultStream)),
      jobs_(jobs == 0 ? default_jobs() : jobs) {
    // RMWP_OBS_METRICS=1 attaches a metrics-only sink to every trace cell
    // (no event files), so benches export the §10 counters into their
    // BENCH_<id>.json without any code change.  Simulated results are
    // bit-identical either way; only TraceResult::obs_metrics fills in.
    obs_.collect_metrics = env_flag("RMWP_OBS_METRICS");
}

std::vector<RunOutcome> ExperimentRunner::run_all(std::span<const RunSpec> specs) const {
    const std::size_t traces = traces_.size();
    std::vector<RunOutcome> outcomes(specs.size());
    for (std::size_t c = 0; c < specs.size(); ++c) {
        outcomes[c].spec = specs[c];
        outcomes[c].per_trace.resize(traces);
    }

    // Cell-major, so the merge order below is the natural spec order.
    // Every grid point is self-contained — own RM instance, own predictor,
    // per-trace RNG streams — so execution order cannot influence any result.
    parallel_for(jobs_, specs.size() * traces, [&](std::size_t flat) {
        const std::size_t c = flat / traces;
        const std::size_t t = flat % traces;
        const std::unique_ptr<ResourceManager> rm = make_rm(specs[c].rm);
        outcomes[c].per_trace[t] = run_trace(t, *rm, specs[c].predictor);
    });

    for (RunOutcome& outcome : outcomes)
        outcome.aggregate = AggregateResult::over(outcome.per_trace);
    return outcomes;
}

RunOutcome ExperimentRunner::run(const RunSpec& spec) const {
    return std::move(run_all(std::span(&spec, 1)).front());
}

TraceResult ExperimentRunner::run_trace(std::size_t t, ResourceManager& rm,
                                        const PredictorSpec& predictor) const {
    RMWP_EXPECT(t < traces_.size());
    const Trace& trace = traces_[t];

    PredictorSpec resolved = predictor;
    if (resolved.overhead_interarrival_coeff != 0.0 && trace.size() >= 2) {
        resolved.overhead +=
            resolved.overhead_interarrival_coeff * trace.mean_interarrival();
        resolved.overhead_interarrival_coeff = 0.0;
    }
    const std::unique_ptr<Predictor> instance =
        make_predictor(resolved, catalog_, predictor_root_.derive(t));

    SimOptions sim_options;
    sim_options.lookahead = resolved.lookahead;
    // Per-trace fault schedule from its own stream: every RM/predictor
    // pairing faces the identical fault sequence on the same trace, so
    // rescue comparisons are paired just like admission comparisons.
    FaultSchedule faults;
    if (config_.fault.any()) {
        Rng fault_rng = fault_root_.derive(t);
        faults = generate_fault_schedule(platform_, config_.fault, trace_horizon(trace),
                                         fault_rng);
        sim_options.fault_schedule = &faults;
    }
    if (!obs_.enabled())
        return simulate_trace(platform_, catalog_, trace, rm, *instance, sim_options);

    // One sink per trace cell: sinks are single-threaded by contract, and
    // cells never share one, so the parallel fan-out stays lock-free.
    obs::TraceSink sink(obs_.ring_capacity);
    sim_options.sink = &sink;
    TraceResult result = simulate_trace(platform_, catalog_, trace, rm, *instance, sim_options);
    if (!obs_.trace_dir.empty()) export_artefacts(sink, t, rm, resolved);
    return result;
}

void ExperimentRunner::export_artefacts(const obs::TraceSink& sink, std::size_t t,
                                        const ResourceManager& rm,
                                        const PredictorSpec& predictor) const {
    const std::filesystem::path dir(obs_.trace_dir);
    std::filesystem::create_directories(dir);

    obs::ExportOptions options; // host time omitted: files are jobs-invariant
    options.resource_names.reserve(platform_.size());
    for (ResourceId i = 0; i < platform_.size(); ++i)
        options.resource_names.push_back(platform_.resource(i).name());

    const std::string stem =
        obs::sanitize_label(rm.name() + "_" + predictor.label()) + "_t" + std::to_string(t);
    const std::vector<obs::TraceEvent> events = sink.events();
    if (obs_.chrome) {
        std::ofstream out(dir / (stem + ".trace.json"));
        RMWP_ENSURE(out.good());
        obs::write_chrome_trace(out, events, options);
    }
    if (obs_.jsonl) {
        std::ofstream out(dir / (stem + ".events.jsonl"));
        RMWP_ENSURE(out.good());
        obs::write_events_jsonl(out, events, options);
    }
}

RunOutcome ExperimentRunner::run_with(ResourceManager& rm, const PredictorSpec& predictor) const {
    RunOutcome outcome;
    outcome.spec.predictor = predictor;
    outcome.per_trace.resize(traces_.size());

    // Every trace cell is independent (per-trace RNG streams, index-slot
    // results), so fanning out over threads cannot perturb a single draw;
    // the aggregate is rebuilt in trace order below, making serial and
    // parallel runs bit-identical.
    parallel_for(jobs_, traces_.size(),
                 [&](std::size_t t) { outcome.per_trace[t] = run_trace(t, rm, predictor); });

    outcome.aggregate = AggregateResult::over(outcome.per_trace);
    return outcome;
}

} // namespace rmwp
