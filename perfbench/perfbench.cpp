// rmwp_perfbench — the workload runner behind perfbench/run.py.
//
//   rmwp_perfbench --workload serve_vt|islands_burst|paper_grid --seed N
//                  --seconds S --trace 0|1 [--size tiny] [--inject-fault]
//
// One process runs one workload.  A run is a sequence of identical
// repetitions: each builds its inputs (set-up, timed on its own), then
// decides them as a series of cells — independent units of fixed work (a
// serve session, or one ExperimentRunner::run_with call).  Repetition 0 is a
// warm-up (filled thread-local arenas, faulted-in pages) and is not timed;
// repetitions then continue until --seconds of timed work have passed.  The
// decision-phase metrics use each cell's fastest reading over the run, since
// host slowdowns only ever lengthen identical work; every repetition's raw
// values are printed too, so noise can be audited afterwards.
//
// Correctness gate: a repetition fails when the program reports a deadline
// miss, a tripped runtime monitor or an exception, or when its accept/reject
// counts or energy differ from repetition 0's (every repetition decides the
// same inputs, and the traced repetitions of a --trace 1 run must decide
// exactly as the untraced ones do).
//
// Tracing (--trace 1) alternates untraced and traced repetitions.  Traced
// repetitions time the calls into each layer from this file only, through
// the program's public seams: decorators around ResourceManager and
// Predictor, ExperimentRunner::run_trace for the experiment engine, and the
// program's own obs::StageStats counters (ServeConfig::stage_stats_out on
// the serve loop; a per-thread StageStatsScope around decide on the
// experiment engine's threads).
//
// Output: one JSON object on stdout (perfbench/run.py turns it into the
// benchmark's result line).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "exec/task_pool.hpp"
#include "exp/runner.hpp"
#include "obs/hdr.hpp"
#include "obs/stage_timer.hpp"
#include "predict/online.hpp"
#include "serve/serve.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace rmwp;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool inject_fault = false;
};

// ---------------------------------------------------------------------------
// Layer decorators
// ---------------------------------------------------------------------------

/// What one thread saw of the decorated RM.
struct RmThreadStats {
    obs::HdrHistogram call_ns; ///< per decide / decide_batch call
    std::uint64_t calls = 0;
    std::uint64_t items = 0; ///< arrivals decided (batch items count one each)
    std::uint64_t total_ns = 0;
    obs::StageStats stages;  ///< filled only when stage scopes are on
};

void add_stages(obs::StageStats& into, const obs::StageStats& from) {
    for (std::size_t s = 0; s < obs::kStageCount; ++s) {
        into.stage[s].calls += from.stage[s].calls;
        into.stage[s].samples += from.stage[s].samples;
        into.stage[s].sampled_ns += from.stage[s].sampled_ns;
    }
    into.prefilter_infeasible += from.prefilter_infeasible;
    into.prefilter_feasible += from.prefilter_feasible;
    into.prefilter_unknown += from.prefilter_unknown;
    into.arena_high_water_bytes = std::max(into.arena_high_water_bytes, from.arena_high_water_bytes);
}

void add_rm_stats(RmThreadStats& into, const RmThreadStats& from) {
    into.call_ns.merge(from.call_ns);
    into.calls += from.calls;
    into.items += from.items;
    into.total_ns += from.total_ns;
    add_stages(into.stages, from.stages);
}

/// Times every decide / decide_batch call of the wrapped RM into per-thread
/// slots (the experiment engine calls one RM from several threads).  With
/// `stage_scopes`, each call also runs under a per-thread StageStatsScope so
/// the program's stage counters fill on threads the serve loop does not
/// profile.
class TimedRM final : public ResourceManager {
public:
    TimedRM(ResourceManager& inner, bool stage_scopes)
        : inner_(inner), stage_scopes_(stage_scopes), id_(next_id_.fetch_add(1)) {}

    [[nodiscard]] Decision decide(const ArrivalContext& context) override {
        RmThreadStats& slot = local();
        std::optional<obs::StageStatsScope> scope;
        if (stage_scopes_) scope.emplace(&slot.stages);
        const auto begin = Clock::now();
        Decision decision = inner_.decide(context);
        record(slot, ns_between(begin, Clock::now()), 1);
        return decision;
    }

    void decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) override {
        RmThreadStats& slot = local();
        std::optional<obs::StageStatsScope> scope;
        if (stage_scopes_) scope.emplace(&slot.stages);
        const auto begin = Clock::now();
        inner_.decide_batch(batch, out);
        record(slot, ns_between(begin, Clock::now()), batch.items.size());
    }

    [[nodiscard]] RescueDecision rescue(const RescueContext& context) override {
        return inner_.rescue(context);
    }
    [[nodiscard]] std::string name() const override { return inner_.name(); }

    /// All threads' slots merged.  Call only while no decide is running.
    [[nodiscard]] RmThreadStats merged() const {
        RmThreadStats total;
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& slot : slots_) add_rm_stats(total, *slot);
        return total;
    }

private:
    static void record(RmThreadStats& slot, std::uint64_t ns, std::size_t items) {
        slot.call_ns.record(ns);
        ++slot.calls;
        slot.items += items;
        slot.total_ns += ns;
    }

    RmThreadStats& local() {
        // Keyed by a process-unique id, not the address: a later TimedRM can
        // reuse a destroyed one's address on the same thread.
        thread_local std::uint64_t cached_id = 0;
        thread_local RmThreadStats* cached = nullptr;
        if (cached_id != id_) {
            const std::lock_guard<std::mutex> lock(mutex_);
            slots_.push_back(std::make_unique<RmThreadStats>());
            cached = slots_.back().get();
            cached_id = id_;
        }
        return *cached;
    }

    static inline std::atomic<std::uint64_t> next_id_{1};
    ResourceManager& inner_;
    bool stage_scopes_;
    std::uint64_t id_;
    mutable std::mutex mutex_; ///< guards slots_
    std::vector<std::unique_ptr<RmThreadStats>> slots_;
};

/// Times the streaming predictor calls the serve loop makes.
class TimedPredictor final : public Predictor {
public:
    explicit TimedPredictor(Predictor& inner) : inner_(inner) {}

    [[nodiscard]] std::string name() const override { return inner_.name(); }
    void observe(const Trace& trace, std::size_t index) override { inner_.observe(trace, index); }
    [[nodiscard]] std::optional<PredictedTask> predict_next(const Trace& trace, std::size_t index,
                                                            Time now) override {
        return inner_.predict_next(trace, index, now);
    }
    [[nodiscard]] std::vector<PredictedTask> predict_horizon(const Trace& trace,
                                                             std::size_t index, Time now,
                                                             std::size_t depth) override {
        return inner_.predict_horizon(trace, index, now, depth);
    }
    [[nodiscard]] Time overhead() const noexcept override { return inner_.overhead(); }

    void observe_arrival(const Request& request) override {
        const auto begin = Clock::now();
        inner_.observe_arrival(request);
        observe_ns += ns_between(begin, Clock::now());
        ++observe_calls;
    }
    [[nodiscard]] std::vector<PredictedTask> predict_upcoming(Time now,
                                                              std::size_t depth) override {
        const auto begin = Clock::now();
        std::vector<PredictedTask> upcoming = inner_.predict_upcoming(now, depth);
        predict_ns += ns_between(begin, Clock::now());
        ++predict_calls;
        return upcoming;
    }

    std::uint64_t observe_ns = 0, observe_calls = 0;
    std::uint64_t predict_ns = 0, predict_calls = 0;

private:
    Predictor& inner_;
};

/// Replays arrivals generated during set-up, so the timed loop runs only
/// the program's own work.
class ReplaySource final : public ArrivalSource {
public:
    explicit ReplaySource(const std::vector<Request>& arrivals) : arrivals_(arrivals) {}

    [[nodiscard]] std::optional<Request> next() override {
        if (next_ == arrivals_.size()) return std::nullopt;
        return arrivals_[next_++];
    }
    [[nodiscard]] bool seekable() const noexcept override { return false; }
    [[nodiscard]] SourceCursor cursor() const noexcept override { return {}; }
    void seek(const SourceCursor&) override {
        throw std::runtime_error("ReplaySource is not seekable");
    }

private:
    const std::vector<Request>& arrivals_;
    std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Repetitions
// ---------------------------------------------------------------------------

/// The simulated outcome of one repetition; identical across repetitions.
struct Outcome {
    std::uint64_t requests = 0, accepted = 0, rejected = 0, completed = 0;
    double total_energy = 0.0;
    double normalized_energy = 0.0;

    friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// Host-side layer totals of one traced repetition.
struct LayerTotals {
    RmThreadStats rm;                      ///< every RM kind merged
    RmThreadStats heuristic, exact;        ///< per RM kind
    obs::StageStats stages;                ///< program's stage counters
    std::uint64_t observe_ns = 0, observe_calls = 0;
    std::uint64_t predict_ns = 0, predict_calls = 0;
    double loop_s = 0.0;  ///< host time inside the program's loop (run_serve / run_trace)
    double busy_s = 0.0;  ///< thread-seconds available to the layers (wall x threads)
    std::vector<double> run_trace_ms;
};

struct Repetition {
    bool traced = false;
    bool failed = false;
    std::string failure;
    double setup_s = 0.0;    ///< inputs generated, program objects constructed
    double generate_s = 0.0; ///< the input-generation share of setup_s
    double run_s = 0.0;      ///< timed decision work
    double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t predictor_predictions = 0, predictor_hits = 0;
    Outcome outcome;
    std::unique_ptr<LayerTotals> layers; ///< traced repetitions only

    [[nodiscard]] double decisions_per_s() const {
        return run_s > 0.0 ? static_cast<double>(outcome.requests) / run_s : 0.0;
    }
};

/// One reading of a cell: an independent unit of fixed work inside a
/// repetition (a serve session, or one run_with call of the grid).
struct CellReading {
    double seconds = 0.0;
    std::uint64_t requests = 0;
    double p50_us = 0.0, p99_us = 0.0;
};

/// The least-disturbed reading of every cell over a run's untraced
/// repetitions: the fastest one.  Cells take milliseconds, so nearly every
/// cell gets at least one reading while the host runs at full speed, even
/// when no whole repetition does.
struct FastestCells {
    std::vector<CellReading> best;
    /// paper_grid: the decide latencies of each best reading, so the
    /// quantiles cover all cells' decisions at once.
    std::vector<obs::HdrHistogram> decide_ns;

    void offer(std::size_t cell, const CellReading& reading,
               const obs::HdrHistogram* latencies = nullptr) {
        if (cell >= best.size()) {
            best.resize(cell + 1, CellReading{std::numeric_limits<double>::infinity()});
            if (latencies != nullptr) decide_ns.resize(cell + 1);
        }
        if (reading.seconds >= best[cell].seconds) return;
        best[cell] = reading;
        if (latencies != nullptr) decide_ns[cell] = *latencies;
    }
};

// --- serve workloads -------------------------------------------------------

enum class ServeKind { vt, islands };

/// The task-type catalog is part of each serve workload's fixed platform
/// definition; --seed varies the arrivals and execution times.
constexpr std::uint64_t kCatalogSeed = 42;

Platform make_serve_platform(ServeKind kind) {
    PlatformBuilder resources;
    if (kind == ServeKind::vt) {
        for (int i = 1; i <= 5; ++i) resources.add_cpu("CPU" + std::to_string(i));
        resources.add_gpu("GPU");
    } else {
        // Round-robin over four islands: six CPUs and one GPU per island,
        // plus one DVFS core.
        for (int k = 0; k < 24; ++k) resources.add_cpu("CPU" + std::to_string(k));
        for (int k = 0; k < 4; ++k) resources.add_gpu("GPU" + std::to_string(k));
        resources.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    }
    return resources.build();
}

Catalog make_serve_catalog(ServeKind kind, const Platform& platform) {
    Rng rng(kCatalogSeed);
    if (kind == ServeKind::vt) return generate_catalog(platform, CatalogParams{}, rng);
    CatalogParams params;
    params.type_count = 32;
    return generate_partitioned_catalog(platform, params, 4, rng);
}

std::vector<Request> make_serve_arrivals(ServeKind kind, const Catalog& catalog,
                                         std::uint64_t seed, std::uint64_t count) {
    SyntheticSourceParams params;
    params.seed = seed;
    params.count = count;
    if (kind == ServeKind::islands) {
        // ~5x the VT platform's capacity, so arrivals come ~5x as fast.
        params.interarrival_mean = 1.2;
        params.interarrival_stddev = 0.4;
    }
    SyntheticArrivalSource source(catalog, params);
    std::vector<Request> arrivals;
    arrivals.reserve(count);
    while (std::optional<Request> request = source.next()) arrivals.push_back(*request);
    if (kind == ServeKind::islands) {
        // Collapse every 8 consecutive arrivals onto the first one's instant.
        for (std::size_t i = 0; i < arrivals.size(); ++i)
            arrivals[i].arrival = arrivals[i - i % 8].arrival;
    }
    return arrivals;
}

/// Independent serve sessions per repetition, each with its own arrivals
/// (seeded from --seed), RM and predictor.
constexpr std::size_t kServeSessions = 4;

struct ServeSession {
    std::uint64_t seed = 0;
    std::vector<Request> arrivals;
    HeuristicRM rm;
    std::unique_ptr<Predictor> predictor;
};

Repetition serve_repetition(ServeKind kind, const Options& options, std::uint64_t count,
                            bool traced, FastestCells* best) {
    Repetition rep;
    rep.traced = traced;

    // --- set-up: platform, catalog, arrivals, RMs, predictors ---
    const auto setup_begin = Clock::now();
    const Platform platform = make_serve_platform(kind);
    const Catalog catalog = make_serve_catalog(kind, platform);
    std::vector<ServeSession> sessions(kServeSessions);
    for (std::size_t c = 0; c < sessions.size(); ++c) {
        sessions[c].seed = options.seed * kServeSessions + c;
        sessions[c].arrivals = make_serve_arrivals(kind, catalog, sessions[c].seed, count);
    }
    const auto generated = Clock::now();
    PredictorSpec spec;
    if (kind == ServeKind::vt) spec.kind = PredictorSpec::Kind::online;
    for (ServeSession& session : sessions) {
        if (kind == ServeKind::islands) {
            ShardConfig shards;
            shards.shards = 4;
            session.rm.set_shard_config(shards);
        }
        session.predictor = make_predictor(spec, catalog, Rng(session.seed));
    }
    rep.setup_s = seconds_between(setup_begin, Clock::now());
    rep.generate_s = seconds_between(setup_begin, generated);

    // --- timed work: the sessions one after another ---
    if (traced) rep.layers = std::make_unique<LayerTotals>();
    double normalized_sum = 0.0;
    for (std::size_t c = 0; c < sessions.size(); ++c) {
        ServeSession& session = sessions[c];
        ReplaySource source(session.arrivals);
        ServeConfig config;
        config.sim.execution_seed = session.seed;
        config.batch_window = kind == ServeKind::vt ? -1.0 : 0.0;
        config.monitor = true;
        config.monitor_period_seconds = 0.1;
        config.limits.expect_no_misses = true;
        if (options.inject_fault && c == 0) config.chaos_fake_miss_at = count / 2;

        std::optional<TimedRM> timed_rm;
        std::optional<TimedPredictor> timed_predictor;
        obs::StageStats stages;
        ResourceManager* rm = &session.rm;
        Predictor* predictor = session.predictor.get();
        if (traced) {
            rm = &timed_rm.emplace(session.rm, false);
            predictor = &timed_predictor.emplace(*session.predictor);
            config.stage_stats_out = &stages;
        }

        serve_clear_stop();
        const auto begin = Clock::now();
        const ServeResult serve =
            run_serve(platform, catalog, *rm, *predictor, nullptr, source, config);
        const CellReading reading{seconds_between(begin, Clock::now()), serve.result.requests,
                                  serve.latency_p50_us, serve.latency_p99_us};
        if (best != nullptr) best->offer(c, reading);

        rep.run_s += reading.seconds;
        rep.p50_us += reading.p50_us / kServeSessions;
        rep.p99_us += reading.p99_us / kServeSessions;
        rep.p999_us += serve.latency_p999_us / kServeSessions;
        rep.deadline_misses += serve.result.deadline_misses;
        rep.outcome.requests += serve.result.requests;
        rep.outcome.accepted += serve.result.accepted;
        rep.outcome.rejected += serve.result.rejected;
        rep.outcome.completed += serve.result.completed;
        rep.outcome.total_energy += serve.result.total_energy;
        normalized_sum += serve.result.normalized_energy();
        if (const auto* online = dynamic_cast<const OnlinePredictor*>(session.predictor.get())) {
            rep.predictor_predictions += online->type_predictions();
            rep.predictor_hits += online->type_hits();
        }
        std::string failure;
        if (serve.exit_code != 0)
            failure = "runtime monitor tripped (exit " + std::to_string(serve.exit_code) +
                      "): " + serve.violation;
        else if (serve.result.deadline_misses != 0)
            failure = std::to_string(serve.result.deadline_misses) + " deadline misses";
        else if (serve.arrivals != count || serve.shed != 0)
            failure = "consumed " + std::to_string(serve.arrivals) + " of " +
                      std::to_string(count) + " arrivals, shed " + std::to_string(serve.shed);
        if (!failure.empty() && !rep.failed) {
            rep.failed = true;
            rep.failure = "session " + std::to_string(c) + ": " + failure;
        }

        if (traced) {
            LayerTotals& layers = *rep.layers;
            add_rm_stats(layers.rm, timed_rm->merged());
            add_stages(layers.stages, stages);
            layers.observe_ns += timed_predictor->observe_ns;
            layers.observe_calls += timed_predictor->observe_calls;
            layers.predict_ns += timed_predictor->predict_ns;
            layers.predict_calls += timed_predictor->predict_calls;
            layers.loop_s += serve.wall_seconds;
            layers.busy_s += reading.seconds;
        }
    }
    rep.outcome.normalized_energy = normalized_sum / kServeSessions;
    if (traced) rep.layers->heuristic = rep.layers->rm;
    return rep;
}

// --- paper_grid ------------------------------------------------------------

constexpr std::size_t kGridJobs = 2;
/// Experiment configurations (catalog + trace set) per deadline group.  The
/// grid is one fixed study, master seeds kGridSeed + k: the exact RM's cost
/// is heavy-tailed across catalogs (one LT catalog can cost ten times the
/// median), so a grid drawn from --seed would measure which catalogs it drew
/// rather than the program.  --seed shuffles the order the cells run in.
constexpr std::size_t kGridConfigs = 16;
constexpr std::uint64_t kGridSeed = 42;

Repetition grid_repetition(const Options& options, std::size_t traces, std::size_t length,
                           bool traced, FastestCells* best) {
    Repetition rep;
    rep.traced = traced;

    // --- set-up: catalogs and trace sets per deadline group, the two RMs ---
    const auto setup_begin = Clock::now();
    std::vector<std::unique_ptr<ExperimentRunner>> runners;
    for (const DeadlineGroup group : {DeadlineGroup::very_tight, DeadlineGroup::less_tight}) {
        for (std::size_t k = 0; k < kGridConfigs; ++k) {
            ExperimentConfig config = ExperimentConfig::paper(group, kGridSeed + k);
            config.trace_count = traces;
            config.trace.length = length;
            runners.push_back(std::make_unique<ExperimentRunner>(config, kGridJobs));
        }
    }
    const auto generated = Clock::now();
    ExactRM exact;
    HeuristicRM heuristic;
    // Cells: {VT, LT} x configurations x {exact, heuristic} x {off, oracle},
    // run in a seeded order.
    struct Cell {
        const ExperimentRunner* runner;
        ResourceManager* rm;
        PredictorSpec predictor;
    };
    std::vector<Cell> cells;
    for (const auto& runner : runners)
        for (ResourceManager* rm : {static_cast<ResourceManager*>(&exact),
                                    static_cast<ResourceManager*>(&heuristic)})
            for (const PredictorSpec& predictor : {PredictorSpec::off(), PredictorSpec::perfect()})
                cells.push_back({runner.get(), rm, predictor});
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng shuffle(options.seed);
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[shuffle.index(i)]);
    rep.setup_s = seconds_between(setup_begin, Clock::now());
    rep.generate_s = seconds_between(setup_begin, generated);

    // --- timed work ---
    // Traced repetitions time each run_trace under run_with's own fan-out
    // and profile stages per thread; untraced ones time whole cells.
    TimedRM traced_exact(exact, true);
    TimedRM traced_heuristic(heuristic, true);
    obs::HdrHistogram decide_ns;
    std::vector<std::vector<TraceResult>> results(cells.size());
    std::vector<double> run_trace_ms;
    double loop_s = 0.0;
    const auto run_begin = Clock::now();
    for (const std::size_t c : order) {
        const Cell& cell = cells[c];
        if (!traced) {
            TimedRM timed(*cell.rm, false);
            const auto begin = Clock::now();
            results[c] = cell.runner->run_with(timed, cell.predictor).per_trace;
            const double cell_s = seconds_between(begin, Clock::now());
            const RmThreadStats stats = timed.merged();
            decide_ns.merge(stats.call_ns);
            if (best != nullptr) {
                CellReading reading{cell_s, 0,
                                    1e-3 * static_cast<double>(stats.call_ns.quantile(0.50)),
                                    1e-3 * static_cast<double>(stats.call_ns.quantile(0.99))};
                for (const TraceResult& r : results[c]) reading.requests += r.requests;
                best->offer(c, reading, &stats.call_ns);
            }
            continue;
        }
        TimedRM& timed = cell.rm == &exact ? traced_exact : traced_heuristic;
        std::vector<TraceResult>& per_trace = results[c];
        per_trace.resize(cell.runner->traces().size());
        std::vector<double> cell_ms(per_trace.size());
        const auto cell_begin = Clock::now();
        parallel_for(kGridJobs, per_trace.size(), [&](std::size_t t) {
            const auto begin = Clock::now();
            per_trace[t] = cell.runner->run_trace(t, timed, cell.predictor);
            cell_ms[t] = 1e3 * seconds_between(begin, Clock::now());
        });
        loop_s += seconds_between(cell_begin, Clock::now());
        run_trace_ms.insert(run_trace_ms.end(), cell_ms.begin(), cell_ms.end());
    }
    rep.run_s = seconds_between(run_begin, Clock::now());

    double normalized_sum = 0.0;
    for (const std::vector<TraceResult>& cell : results) {
        double cell_sum = 0.0;
        for (const TraceResult& r : cell) {
            rep.outcome.requests += r.requests;
            rep.outcome.accepted += r.accepted;
            rep.outcome.rejected += r.rejected;
            rep.outcome.completed += r.completed;
            rep.outcome.total_energy += r.total_energy;
            rep.deadline_misses += r.deadline_misses;
            cell_sum += r.normalized_energy();
        }
        normalized_sum += cell.empty() ? 0.0 : cell_sum / static_cast<double>(cell.size());
    }
    rep.outcome.normalized_energy = normalized_sum / static_cast<double>(results.size());
    // Self-check hook: a repetition whose outcome drifts must fail the run.
    if (options.inject_fault) ++rep.outcome.accepted;
    if (rep.deadline_misses != 0) {
        rep.failed = true;
        rep.failure = std::to_string(rep.deadline_misses) + " deadline misses";
    }

    if (traced) {
        LayerTotals& layers = *(rep.layers = std::make_unique<LayerTotals>());
        layers.exact = traced_exact.merged();
        layers.heuristic = traced_heuristic.merged();
        layers.rm = layers.exact;
        add_rm_stats(layers.rm, layers.heuristic);
        layers.stages = layers.rm.stages;
        for (const double ms : run_trace_ms) layers.loop_s += 1e-3 * ms;
        layers.busy_s = loop_s * static_cast<double>(kGridJobs);
        layers.run_trace_ms = std::move(run_trace_ms);
        decide_ns = layers.rm.call_ns;
    }
    rep.p50_us = 1e-3 * static_cast<double>(decide_ns.quantile(0.50));
    rep.p99_us = 1e-3 * static_cast<double>(decide_ns.quantile(0.99));
    rep.p999_us = 1e-3 * static_cast<double>(decide_ns.quantile(0.999));
    return rep;
}

// ---------------------------------------------------------------------------
// Summaries and output
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident memory of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across exec, so it would report the
/// launching process's footprint when that was larger.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", v);
    return buffer;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// Every repetition does identical work and host slowdowns only ever
/// lengthen one, so the fastest few are the least-disturbed estimate of a
/// per-repetition cost (set-up; traced vs untraced throughput).
constexpr std::size_t kFastest = 3;

/// The kFastest repetitions (traced or untraced ones) by `key`, ascending.
template <class Key>
std::vector<const Repetition*> fastest(std::span<const Repetition> reps, bool traced, Key key) {
    std::vector<const Repetition*> picked;
    for (const Repetition& rep : reps)
        if (rep.traced == traced) picked.push_back(&rep);
    std::sort(picked.begin(), picked.end(),
              [&](const Repetition* a, const Repetition* b) { return key(*a) < key(*b); });
    if (picked.size() > kFastest) picked.resize(kFastest);
    return picked;
}

template <class Value>
double mean_over(const std::vector<const Repetition*>& reps, Value value) {
    double sum = 0.0;
    for (const Repetition* rep : reps) sum += value(*rep);
    return reps.empty() ? 0.0 : sum / static_cast<double>(reps.size());
}

/// End-to-end metrics: decision-phase figures from the fastest reading of
/// every cell, set-up from the fastest set-ups, outcomes from repetition 0's
/// (all repetitions must agree).
std::vector<Metric> end_to_end(std::span<const Repetition> timed, const FastestCells& cells) {
    double seconds = 0.0, requests = 0.0, p50 = 0.0, p99 = 0.0;
    for (const CellReading& cell : cells.best) {
        seconds += cell.seconds;
        requests += static_cast<double>(cell.requests);
        p50 += static_cast<double>(cell.requests) * cell.p50_us;
        p99 += static_cast<double>(cell.requests) * cell.p99_us;
    }
    p50 = ratio(p50, requests);
    p99 = ratio(p99, requests);
    if (!cells.decide_ns.empty()) {
        obs::HdrHistogram decide_ns;
        for (const obs::HdrHistogram& h : cells.decide_ns) decide_ns.merge(h);
        p50 = 1e-3 * static_cast<double>(decide_ns.quantile(0.50));
        p99 = 1e-3 * static_cast<double>(decide_ns.quantile(0.99));
    }
    const double dps = ratio(requests, seconds);
    const auto by_setup = fastest(timed, false, [](const Repetition& r) { return r.setup_s; });
    const Outcome& o = timed.front().outcome;
    return {
        {"decisions_per_s", dps, "1/s"},
        {"decision_p50_us", p50, "us"},
        {"decision_p99_us", p99, "us"},
        {"accept_ratio", ratio(static_cast<double>(o.accepted), static_cast<double>(o.requests)),
         "ratio"},
        {"normalized_energy", o.normalized_energy, "ratio"},
        {"setup_s", mean_over(by_setup, [](const Repetition& r) { return r.setup_s; }), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
}

/// Per-layer metrics: traced repetitions summed, untraced ones for the
/// tracing overhead and the predictor hit ratio.
std::vector<Metric> per_layer(std::span<const Repetition> timed) {
    LayerTotals t;
    std::uint64_t requests = 0;
    std::vector<double> generate_ms;
    std::uint64_t predictions = 0, hits = 0;
    for (const Repetition& rep : timed) {
        generate_ms.push_back(1e3 * rep.generate_s);
        if (!rep.traced) {
            predictions += rep.predictor_predictions;
            hits += rep.predictor_hits;
            continue;
        }
        requests += rep.outcome.requests;
        const LayerTotals& l = *rep.layers;
        add_rm_stats(t.rm, l.rm);
        add_rm_stats(t.heuristic, l.heuristic);
        add_rm_stats(t.exact, l.exact);
        add_stages(t.stages, l.stages);
        t.observe_ns += l.observe_ns;
        t.observe_calls += l.observe_calls;
        t.predict_ns += l.predict_ns;
        t.predict_calls += l.predict_calls;
        t.loop_s += l.loop_s;
        t.busy_s += l.busy_s;
        t.run_trace_ms.insert(t.run_trace_ms.end(), l.run_trace_ms.begin(), l.run_trace_ms.end());
    }
    const auto per_decision = [&](std::uint64_t count) {
        return ratio(static_cast<double>(count), static_cast<double>(requests));
    };
    const auto us = [](const obs::HdrHistogram& h, double q) {
        return 1e-3 * static_cast<double>(h.quantile(q));
    };
    const obs::StageStats& s = t.stages;
    const double verdicts =
        static_cast<double>(s.prefilter_infeasible + s.prefilter_feasible + s.prefilter_unknown);
    const double rm_s = 1e-9 * static_cast<double>(t.rm.total_ns);
    const double predictor_s = 1e-9 * static_cast<double>(t.observe_ns + t.predict_ns);
    // Host time in the program's loop outside the RM and predictor layers:
    // engine advance, event dispatch, plan commit, the replayed source (and,
    // on the experiment engine, the predictor, which run_trace builds).
    const double sim_s = std::max(0.0, t.loop_s - rm_s - predictor_s);
    const double attributed = rm_s + predictor_s + sim_s;
    const auto dps = [](const Repetition& r) { return r.decisions_per_s(); };
    const auto run_s = [](const Repetition& r) { return r.run_s; };
    const double tracing = mean_over(fastest(timed, true, run_s), dps);
    const double plain = mean_over(fastest(timed, false, run_s), dps);
    return {
        {"core.prefilter_unknown_ratio", ratio(static_cast<double>(s.prefilter_unknown), verdicts),
         "ratio"},
        {"core.prefilter_per_decision",
         per_decision(s.cell(obs::Stage::prefilter).calls), "count"},
        {"core.edf_simulate_per_decision",
         per_decision(s.cell(obs::Stage::edf_simulate).calls), "count"},
        {"core.solve_per_decision", per_decision(s.cell(obs::Stage::solve).calls), "count"},
        {"core.shard_solve_per_decision", per_decision(s.cell(obs::Stage::shard_solve).calls),
         "count"},
        {"core.batch_items_per_call",
         ratio(static_cast<double>(t.rm.items), static_cast<double>(t.rm.calls)), "count"},
        {"core.decide_us_p50", us(t.rm.call_ns, 0.50), "us"},
        {"core.decide_us_p99", us(t.rm.call_ns, 0.99), "us"},
        {"core.decide_share", ratio(rm_s, t.loop_s), "ratio"},
        {"core.heuristic.decide_us_p50", us(t.heuristic.call_ns, 0.50), "us"},
        {"core.exact.decide_us_p50", us(t.exact.call_ns, 0.50), "us"},
        {"core.exact.decide_us_p99", us(t.exact.call_ns, 0.99), "us"},
        {"core.arena_high_water_kib", static_cast<double>(s.arena_high_water_bytes) / 1024.0,
         "KiB"},
        {"sim.self_us", 1e6 * ratio(sim_s, static_cast<double>(requests)), "us"},
        {"predict.observe_ns",
         ratio(static_cast<double>(t.observe_ns), static_cast<double>(t.observe_calls)), "ns"},
        {"predict.predict_ns",
         ratio(static_cast<double>(t.predict_ns), static_cast<double>(t.predict_calls)), "ns"},
        {"predict.hit_ratio", ratio(static_cast<double>(hits), static_cast<double>(predictions)),
         "ratio"},
        {"exp.run_trace_ms", median(t.run_trace_ms), "ms"},
        {"exp.pool_busy_ratio",
         t.run_trace_ms.empty() ? 0.0 : ratio(t.loop_s, t.busy_s), "ratio"},
        {"workload.generate_ms", median(generate_ms), "ms"},
        {"unattributed_ratio", t.busy_s > 0.0 ? 1.0 - attributed / t.busy_s : 0.0, "ratio"},
        {"trace.overhead_ratio", plain > 0.0 ? 1.0 - tracing / plain : 0.0, "ratio"},
    };
}

void print_result(const Options& options, const std::vector<Repetition>& reps,
                  const FastestCells& cells, const std::vector<std::string>& failures) {
    std::uint64_t attempted = 0, failed = 0;
    for (const Repetition& rep : reps) {
        attempted += rep.outcome.requests;
        if (rep.failed) failed += std::max<std::uint64_t>(rep.outcome.requests, 1);
    }
    const bool correct = failures.empty() && reps.size() >= 2;
    std::ostringstream out;
    out << "{\"workload\":" << json_string(options.workload) << ",\"seed\":" << options.seed
        << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"seconds\":" << json_number(options.seconds)
        << ",\"size\":" << json_string(options.tiny ? "tiny" : "full")
        << ",\"compiler\":" << json_string(RMWP_PERFBENCH_COMPILER)
        << ",\"build_type\":" << json_string(RMWP_PERFBENCH_BUILD_TYPE)
        << ",\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
        << ",\"failed\":" << failed << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        out << (i ? "," : "") << json_string(failures[i]);
    out << "],\"metrics\":{";
    if (correct) {
        const std::span<const Repetition> timed(reps.begin() + 1, reps.end());
        const std::vector<Metric> metrics = options.trace ? per_layer(timed) : end_to_end(timed, cells);
        for (std::size_t i = 0; i < metrics.size(); ++i)
            out << (i ? "," : "") << json_string(metrics[i].name) << ":{\"value\":"
                << json_number(metrics[i].value) << ",\"unit\":" << json_string(metrics[i].unit)
                << "}";
    }
    out << "},\"repetitions\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Repetition& r = reps[i];
        out << (i ? "," : "") << "{\"warmup\":" << (i == 0 ? "true" : "false")
            << ",\"traced\":" << (r.traced ? "true" : "false")
            << ",\"setup_s\":" << json_number(r.setup_s)
            << ",\"generate_s\":" << json_number(r.generate_s)
            << ",\"run_s\":" << json_number(r.run_s)
            << ",\"decisions_per_s\":" << json_number(r.decisions_per_s())
            << ",\"p50_us\":" << json_number(r.p50_us) << ",\"p99_us\":" << json_number(r.p99_us)
            << ",\"p999_us\":" << json_number(r.p999_us) << ",\"requests\":" << r.outcome.requests
            << ",\"accepted\":" << r.outcome.accepted << ",\"rejected\":" << r.outcome.rejected
            << ",\"total_energy\":" << json_number(r.outcome.total_energy)
            << ",\"deadline_misses\":" << r.deadline_misses << "}";
    }
    out << "],\"fastest_cells\":[";
    for (std::size_t c = 0; c < cells.best.size(); ++c) {
        const CellReading& cell = cells.best[c];
        out << (c ? "," : "") << "{\"seconds\":" << json_number(cell.seconds)
            << ",\"requests\":" << cell.requests << ",\"p50_us\":" << json_number(cell.p50_us)
            << ",\"p99_us\":" << json_number(cell.p99_us) << "}";
    }
    out << "]}";
    std::cout << out.str() << std::endl;
}

[[noreturn]] void usage(const std::string& error) {
    std::cerr << "rmwp_perfbench: " << error
              << "\nusage: rmwp_perfbench --workload serve_vt|islands_burst|paper_grid --seed N"
                 " --seconds S --trace 0|1 [--size tiny|full] [--inject-fault]\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload") options.workload = value();
            else if (arg == "--seed") options.seed = std::stoull(value());
            else if (arg == "--seconds") options.seconds = std::stod(value());
            else if (arg == "--trace") options.trace = value() == "1";
            else if (arg == "--size") options.tiny = value() == "tiny";
            else if (arg == "--inject-fault") options.inject_fault = true;
            else usage("unknown argument " + arg);
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (options.workload != "serve_vt" && options.workload != "islands_burst" &&
        options.workload != "paper_grid")
        usage("unknown workload '" + options.workload + "'");
    if (!(options.seconds > 0.0)) usage("--seconds must be positive");
    return options;
}

} // namespace

int main(int argc, char** argv) {
    const Options options = parse(argc, argv);

    // Work per cell: short enough to fit inside the host's fast spells,
    // large enough that each session's p99 has over ten samples beyond it
    // (islands_burst decides its arrivals in groups of 8).
    const ServeKind kind = options.workload == "serve_vt" ? ServeKind::vt : ServeKind::islands;
    const std::uint64_t serve_arrivals =
        options.tiny ? 100 : (kind == ServeKind::vt ? 5000 : 10000);
    const std::size_t grid_traces = options.tiny ? 1 : 2;
    const std::size_t grid_length = options.tiny ? 40 : 250;
    const std::size_t min_timed = options.trace ? 2 : 3;

    std::vector<Repetition> reps;
    FastestCells cells;
    std::vector<std::string> failures;
    const auto run_one = [&](std::size_t index) {
        const bool traced = options.trace && index > 0 && index % 2 == 0;
        FastestCells* best = index > 0 && !traced ? &cells : nullptr;
        // The injected fault hits the first timed repetition only.
        Options rep_options = options;
        rep_options.inject_fault = options.inject_fault && index == 1;
        if (options.workload == "paper_grid")
            return grid_repetition(rep_options, grid_traces, grid_length, traced, best);
        return serve_repetition(kind, rep_options, serve_arrivals, traced, best);
    };

    try {
        reps.push_back(run_one(0)); // warm-up
        const auto timed_begin = Clock::now();
        while (reps.size() < 1 + min_timed ||
               seconds_between(timed_begin, Clock::now()) < options.seconds)
            reps.push_back(run_one(reps.size()));
    } catch (const std::exception& e) {
        failures.push_back(std::string("exception: ") + e.what());
    }

    for (std::size_t i = 0; i < reps.size(); ++i) {
        Repetition& rep = reps[i];
        if (!rep.failed && !(rep.outcome == reps.front().outcome)) {
            rep.failed = true;
            rep.failure = "outcome differs from repetition 0 (accepted " +
                          std::to_string(rep.outcome.accepted) + " vs " +
                          std::to_string(reps.front().outcome.accepted) + ", rejected " +
                          std::to_string(rep.outcome.rejected) + " vs " +
                          std::to_string(reps.front().outcome.rejected) + ")";
        }
        if (rep.failed) failures.push_back("repetition " + std::to_string(i) + ": " + rep.failure);
    }
    print_result(options, reps, cells, failures);
    return 0;
}
