#include "serve/serve.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace_sink.hpp"
#include "predict/online.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/hexfloat.hpp"

namespace rmwp {
namespace {

constexpr const char* kCheckpointContext = "serve checkpoint";

// Signal-to-drain flag.  The handlers only set it; the serve loop polls it
// between arrivals.  volatile sig_atomic_t semantics via std::atomic<int>
// (lock-free on every platform this builds on).
std::atomic<int> g_stop_requested{0};

void handle_stop_signal(int) { g_stop_requested.store(1, std::memory_order_relaxed); }

struct PendingArrival {
    Request request;
    TaskUid uid = 0;
    Time wake = 0.0;
};

std::string hexf(double value) {
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return buffer;
}

/// Canonical space-free digest of everything a restore must agree on.  A
/// checkpoint taken under one configuration refuses to resume under
/// another instead of silently diverging.
std::string make_digest(const Platform& platform, const Catalog& catalog,
                        const ResourceManager& rm, const Predictor& predictor,
                        const ServeConfig& config) {
    std::ostringstream os;
    os << "v1|platform=" << platform.size() << "|catalog=" << catalog.size()
       << "|rm=" << rm.name() << "|predictor=" << predictor.name()
       << "|decision_cost=" << hexf(config.decision_cost)
       << "|max_pending=" << config.max_pending
       << "|batch_window=" << hexf(config.batch_window)
       << "|lookahead=" << config.sim.lookahead
       << "|exec_min=" << hexf(config.sim.execution_time_factor_min)
       << "|exec_seed=" << config.sim.execution_seed
       << "|fault_seed=" << config.fault_seed << "|fault_chunk=" << hexf(config.fault_chunk)
       << "|outage=" << hexf(config.faults.outage_rate)
       << "|outage_mean=" << hexf(config.faults.outage_duration_mean)
       << "|throttle=" << hexf(config.faults.throttle_rate)
       << "|throttle_mean=" << hexf(config.faults.throttle_duration_mean)
       << "|min_online=" << config.faults.min_online;
    if (!config.config_digest.empty()) os << '|' << config.config_digest;
    std::string digest = os.str();
    // Digest must stay one whitespace-free token for the checkpoint parser.
    for (char& c : digest)
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
    return digest;
}

/// Fault chunk k: a seeded schedule over [k*chunk, (k+1)*chunk).  Each chunk
/// derives its own child stream of the fault seed, so chunk k is computable
/// without generating its predecessors (required for O(1) restore), and
/// events overrunning the chunk end are clipped to it — every chunk is
/// self-contained and the health mask returns to nominal at each boundary.
FaultSchedule make_fault_chunk(const Platform& platform, const ServeConfig& config,
                               std::uint64_t chunk_index) {
    Rng rng = Rng(config.fault_seed).derive(chunk_index);
    const FaultSchedule base =
        generate_fault_schedule(platform, config.faults, config.fault_chunk, rng);
    const Time offset = static_cast<Time>(chunk_index) * config.fault_chunk;
    const Time chunk_end = offset + config.fault_chunk;
    std::vector<FaultEvent> shifted;
    shifted.reserve(base.size());
    for (FaultEvent event : base.events()) {
        event.start += offset;
        event.end = std::isfinite(event.end) ? std::min(event.end + offset, chunk_end)
                                             : chunk_end;
        if (event.end <= event.start) continue;
        shifted.push_back(event);
    }
    return FaultSchedule(std::move(shifted));
}

} // namespace

void install_serve_signal_handlers() {
    struct sigaction action {};
    action.sa_handler = &handle_stop_signal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
}

void serve_request_stop() noexcept { g_stop_requested.store(1, std::memory_order_relaxed); }

void serve_clear_stop() noexcept { g_stop_requested.store(0, std::memory_order_relaxed); }

ServeResult run_serve(const Platform& platform, const Catalog& catalog, ResourceManager& rm,
                      Predictor& predictor, const ReservationTable* reservations,
                      ArrivalSource& source, const ServeConfig& config) {
    RMWP_EXPECT(config.sim.fault_schedule == nullptr);
    RMWP_EXPECT(config.sim.activation_period == 0.0);
    RMWP_EXPECT(config.decision_cost >= 0.0);
    if (config.faults.any()) {
        if (config.faults.permanent_prob != 0.0)
            throw std::runtime_error(
                "serve: permanent faults are not supported (unbounded horizon)");
        RMWP_EXPECT(config.fault_chunk > 0.0);
    }
    const bool checkpointing = !config.checkpoint_path.empty() && config.checkpoint_every > 0;
    if ((checkpointing || !config.restore_path.empty()) && !source.seekable())
        throw std::runtime_error("serve: checkpoint/restore requires a seekable source "
                                 "(a trace file or the synthetic generator, not a pipe)");

    const std::string digest = make_digest(platform, catalog, rm, predictor, config);
    auto* online = dynamic_cast<OnlinePredictor*>(&predictor);

    SimEngine engine(platform, catalog, rm, predictor, reservations, config.sim);

    const bool faults_on = config.faults.any();
    std::uint64_t chunk_index = 0;
    std::optional<FaultSchedule> chunk;

    std::deque<PendingArrival> backlog;
    Time decider_free = 0.0;
    std::uint64_t consumed = 0;
    std::uint64_t shed = 0;

    // --- restore ---
    if (!config.restore_path.empty()) {
        std::ifstream is(config.restore_path);
        if (!is)
            throw std::runtime_error("serve: cannot open checkpoint: " + config.restore_path);
        std::string magic, version;
        if (!(is >> magic >> version) || magic != "RMWP-SERVE-CHECKPOINT" || version != "1")
            throw std::runtime_error("serve checkpoint: bad header");
        std::string label, stored_digest;
        if (!(is >> label >> stored_digest) || label != "digest")
            throw std::runtime_error("serve checkpoint: missing digest");
        if (stored_digest != digest)
            throw std::runtime_error(
                "serve checkpoint: configuration mismatch\n  checkpoint: " + stored_digest +
                "\n  current:    " + digest);

        consumed = get_u64(is, kCheckpointContext);
        shed = get_u64(is, kCheckpointContext);
        chunk_index = get_u64(is, kCheckpointContext);
        decider_free = get_f64(is, kCheckpointContext);
        SourceCursor cursor;
        cursor.seq = get_u64(is, kCheckpointContext);
        cursor.aux = get_f64(is, kCheckpointContext);

        const auto backlog_size = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
        for (std::size_t k = 0; k < backlog_size; ++k) {
            PendingArrival pending;
            pending.uid = get_u64(is, kCheckpointContext);
            pending.request.type =
                static_cast<TaskTypeId>(get_u64(is, kCheckpointContext));
            pending.request.arrival = get_f64(is, kCheckpointContext);
            pending.request.relative_deadline = get_f64(is, kCheckpointContext);
            pending.wake = get_f64(is, kCheckpointContext);
            if (pending.request.type >= catalog.size())
                throw std::runtime_error("serve checkpoint: backlog references unknown type");
            backlog.push_back(pending);
        }

        if (faults_on) chunk = make_fault_chunk(platform, config, chunk_index);
        engine.restore_stream(is, faults_on ? &*chunk : nullptr);

        std::string predictor_tag;
        if (!(is >> predictor_tag) || predictor_tag != "predictor")
            throw std::runtime_error("serve checkpoint: missing predictor section");
        std::string predictor_kind;
        is >> predictor_kind;
        if (predictor_kind == "online") {
            if (online == nullptr)
                throw std::runtime_error(
                    "serve checkpoint: was taken with the online predictor");
            online->restore(is);
        } else if (predictor_kind != "none") {
            throw std::runtime_error("serve checkpoint: unknown predictor kind \"" +
                                     predictor_kind + "\"");
        }

        source.seek(cursor);
    } else if (faults_on) {
        chunk = make_fault_chunk(platform, config, 0);
        engine.set_fault_schedule(&*chunk, 0.0, /*include_events_at_from=*/true);
    }

    // --- runtime monitor (serve/monitor.hpp) ---
    // The loop checks its own invariants: after a backlog flush once
    // monitor_period_seconds of wall time have passed since the last check,
    // and once more after the drain.  Checks only read state.
    std::uint64_t chaos_extra_misses = 0;
    obs::HdrHistogram latency; ///< wall-clock service latency per flush, ns ticks
    std::optional<HealthReport> violation;
    std::optional<BoardSample> last_checked;
    std::uint64_t monitor_checks = 0;

    const auto sample_now = [&](std::uint64_t rss_kb) {
        const TraceResult& r = engine.result();
        BoardSample sample;
        sample.arrivals = consumed;
        // Engine `requests` counts both flushed and shed arrivals; `decided`
        // is the flushed-only share.
        sample.decided = r.requests - shed;
        sample.shed = shed;
        sample.queued = backlog.size();
        sample.completed = r.completed;
        sample.deadline_misses = r.deadline_misses + chaos_extra_misses;
        sample.parse_errors = source.parse_errors();
        sample.audit_checks = r.audit_checks;
        sample.active = engine.active_count();
        if (config.sim.sink != nullptr) sample.ring_occupancy = config.sim.sink->occupancy();
        sample.sim_clock = engine.clock();
        sample.latency_p99_us = latency_quantile_us(latency, 0.99);
        sample.latency_count = latency.count();
        sample.rss_kb = rss_kb;
        return sample;
    };

    // --- rolling window stats ---
    std::ostream& window_out = config.window_out != nullptr ? *config.window_out : std::cerr;
    struct Cumulative {
        std::size_t accepted = 0, rejected = 0, completed = 0, misses = 0;
        std::uint64_t shed = 0;
        double energy = 0.0;
        std::size_t predictions = 0, hits = 0;
    };
    Cumulative window_base{engine.result().accepted, engine.result().rejected,
                           engine.result().completed, engine.result().deadline_misses,
                           shed, engine.result().total_energy,
                           online != nullptr ? online->type_predictions() : 0,
                           online != nullptr ? online->type_hits() : 0};
    Time next_window = config.window > 0.0
                           ? (std::floor(engine.clock() / config.window) + 1.0) * config.window
                           : std::numeric_limits<Time>::infinity();
    std::uint64_t windows_emitted = 0;

    // --- per-stage profile + live telemetry (DESIGN.md §14) ---
    // The profile block, the latency histogram and the monitor state are
    // serve-thread-owned; the telemetry thread only ever reads the
    // mutex-protected Published copy (and the process RSS, live) — the
    // admission loop never blocks on a socket and TSan sees no
    // unsynchronised sharing.
    obs::StageStats stage_stats;
    const bool profile_stages =
        config.telemetry_port >= 0 || config.stage_stats_out != nullptr;
#ifdef RMWP_OBS
    std::optional<obs::StageStatsScope> stage_scope;
    if (profile_stages) stage_scope.emplace(&stage_stats);
#endif

    struct Published {
        std::mutex mutex;
        obs::MetricsSnapshot metrics;
        obs::StageStats stages;
        bool have = false;
        BoardSample sample;
        std::uint64_t ring_dropped = 0;
        std::uint64_t predictor_predictions = 0;
        std::uint64_t predictor_hits = 0;
        obs::HdrHistogram latency;
        std::optional<HealthReport> violation;
    };
    Published published;

    std::optional<obs::TelemetryServer> telemetry;
    const auto publish_telemetry = [&] {
        if (!telemetry.has_value()) return;
        const BoardSample sample = sample_now(0); // RSS is read at scrape time
        std::lock_guard<std::mutex> lock(published.mutex);
        if (config.sim.sink != nullptr) {
            published.metrics = config.sim.sink->metrics().snapshot();
            published.ring_dropped = config.sim.sink->dropped();
        }
        published.stages = stage_stats;
        published.have = true;
        published.sample = sample;
        if (online != nullptr) {
            published.predictor_predictions = online->type_predictions();
            published.predictor_hits = online->type_hits();
        }
        published.latency = latency;
        published.violation = violation;
    };

    if (config.telemetry_port >= 0) {
        obs::TelemetryHandlers handlers;
        handlers.metrics = [&published, &rm, profile_stages] {
            const std::uint64_t rss_kb = read_rss_kb();
            obs::PrometheusText text;
            std::lock_guard<std::mutex> lock(published.mutex);
            if (published.have) {
                obs::render_metrics(text, published.metrics, "rmwp_engine_");
                if (profile_stages) obs::render_stage_stats(text, published.stages, "rmwp_");
            }
            const BoardSample& sample = published.sample;
            const auto gauge = [&text](const char* name, const char* help,
                                       std::uint64_t value) {
                text.family(name, help, "gauge");
                text.sample(name, "", value);
            };
            text.family("rmwp_serve_arrivals_total", "arrivals consumed from the source",
                        "counter");
            text.sample("rmwp_serve_arrivals_total", "", sample.arrivals);
            text.family("rmwp_serve_decided_total", "arrivals flushed through the RM",
                        "counter");
            text.sample("rmwp_serve_decided_total", "", sample.decided);
            text.family("rmwp_serve_shed_total", "arrivals dropped by overload protection",
                        "counter");
            text.sample("rmwp_serve_shed_total", "", sample.shed);
            text.family("rmwp_serve_completed_total", "tasks completed", "counter");
            text.sample("rmwp_serve_completed_total", "", sample.completed);
            text.family("rmwp_serve_deadline_misses_total", "admitted-task deadline misses",
                        "counter");
            text.sample("rmwp_serve_deadline_misses_total", "", sample.deadline_misses);
            gauge("rmwp_serve_backlog_depth", "requests waiting in the admission backlog",
                  sample.queued);
            gauge("rmwp_serve_active_tasks", "engine active set size", sample.active);
            gauge("rmwp_serve_ring_occupancy", "observability ring events retained",
                  sample.ring_occupancy);
            text.family("rmwp_serve_ring_dropped_total",
                        "observability ring events lost to wraparound", "counter");
            text.sample("rmwp_serve_ring_dropped_total", "", published.ring_dropped);
            gauge("rmwp_serve_rss_kb", "process resident set size (kB)", rss_kb);
            text.family("rmwp_serve_sim_clock_seconds", "simulation clock", "gauge");
            text.sample("rmwp_serve_sim_clock_seconds", "", sample.sim_clock);

            const std::uint64_t predictions = published.predictor_predictions;
            const std::uint64_t hits = published.predictor_hits;
            text.family("rmwp_serve_predictor_hit_ratio",
                        "online-predictor hit rate over the whole run (NaN before the "
                        "first scored prediction)",
                        "gauge");
            text.sample("rmwp_serve_predictor_hit_ratio", "",
                        predictions > 0 ? static_cast<double>(hits) /
                                              static_cast<double>(predictions)
                                        : std::numeric_limits<double>::quiet_NaN());

            // Sharded-admission configuration (DESIGN.md §15).  Immutable
            // for the lifetime of the serve run, so reading it from the
            // telemetry thread needs no synchronisation.  The matching
            // stage costs are rmwp_stage_shard_solve / _merge above.
            gauge("rmwp_serve_shards", "sharded-admission solve buckets cap (--shards)",
                  rm.shard_config().shards);

            // Service latency as a summary off the published copy of the
            // HDR (nanosecond ticks, rendered in microseconds).
            text.summary("rmwp_serve_latency_us",
                         "wall-clock service latency per backlog flush (microseconds)",
                         published.latency, kLatencyTicksPerUs);

            gauge("rmwp_serve_healthy",
                  "1 while no invariant violation has been latched",
                  published.violation.has_value() ? 0u : 1u);
            return text.take();
        };
        handlers.health = [&published] {
            std::lock_guard<std::mutex> lock(published.mutex);
            return published.violation.has_value() ? published.violation->to_string()
                                                    : std::string();
        };
        telemetry.emplace(config.telemetry_port, std::move(handlers));
        if (config.telemetry_port_out != nullptr)
            config.telemetry_port_out->store(telemetry->port(), std::memory_order_release);
        std::cerr << "[serve] telemetry listening on 127.0.0.1:" << telemetry->port() << '\n';
        publish_telemetry();
    }

    const auto emit_windows = [&] {
        while (engine.clock() >= next_window) {
            const TraceResult& r = engine.result();
            char line[256];
            std::snprintf(line, sizeof line,
                          "[serve] t=%.0f accepted=%zu rejected=%zu shed=%llu completed=%zu "
                          "misses=%zu active=%zu energy=%.1f",
                          next_window, r.accepted - window_base.accepted,
                          r.rejected - window_base.rejected,
                          static_cast<unsigned long long>(shed - window_base.shed),
                          r.completed - window_base.completed, r.deadline_misses - window_base.misses,
                          engine.active_count(), r.total_energy - window_base.energy);
            window_out << line;
            if (config.sim.sink != nullptr) {
                // Ring health: events currently retained / lost to
                // wraparound since the run began (cumulative — a growing
                // second number means the ring is undersized).
                std::snprintf(line, sizeof line, " ring=%llu/%llu",
                              static_cast<unsigned long long>(config.sim.sink->occupancy()),
                              static_cast<unsigned long long>(config.sim.sink->dropped()));
                window_out << line;
            }
            std::snprintf(line, sizeof line, " p99=%.0fus",
                          latency_quantile_us(latency, 0.99));
            window_out << line;
            const std::size_t predictions =
                online != nullptr ? online->type_predictions() : 0;
            const std::size_t hits = online != nullptr ? online->type_hits() : 0;
            if (online != nullptr) {
                // Per-window predictor hit rate; a window with no scored
                // predictions (e.g. no arrivals) reports n/a, not 0%.
                const std::size_t scored = predictions - window_base.predictions;
                if (scored > 0) {
                    std::snprintf(line, sizeof line, " phit=%.3f",
                                  static_cast<double>(hits - window_base.hits) /
                                      static_cast<double>(scored));
                    window_out << line;
                } else {
                    window_out << " phit=n/a";
                }
            }
            window_out << '\n';
            window_base = {r.accepted, r.rejected, r.completed, r.deadline_misses, shed,
                           r.total_energy, predictions, hits};
            next_window += config.window;
            ++windows_emitted;
            publish_telemetry();
        }
    };

    const auto check_now = [&] {
        const BoardSample current = sample_now(read_rss_kb());
        ++monitor_checks;
        if (!violation.has_value()) {
            violation = check_invariants(last_checked.value_or(current), current, config.limits);
            if (violation.has_value()) {
                std::cerr << "[serve] INVARIANT VIOLATION: " << violation->to_string() << '\n';
                publish_telemetry();
            }
        }
        last_checked = current;
    };

    // RMWP_LINT_ALLOW(R1): wall_seconds and monitor cadence only; never feeds sim state
    const auto wall_begin = std::chrono::steady_clock::now();
    auto last_check_at = wall_begin;
    const std::chrono::duration<double> monitor_period(config.monitor_period_seconds);

    /// One backlog flush.  Batching off (batch_window < 0): decide the
    /// front request alone, as a group of one.  Batching on: greedily
    /// extend the group with further queued requests whose wakes fall
    /// within batch_window of the front's AND satisfy `eligible` (the
    /// caller's flush limit — next arrival / fault-chunk boundary), then
    /// decide the whole group at the last member's wake in a single
    /// decide_batch activation.  Grouping is derived afresh at flush time
    /// from the backlog, so checkpoints need no extra state.
    std::vector<StreamArrival> group;
    const auto flush_front = [&](auto&& eligible) {
        // RMWP_LINT_ALLOW(R1): host-scope admission-latency metric; never feeds sim state
        const auto begun = std::chrono::steady_clock::now();
        group.clear();
        const Time window_end = backlog.front().wake + config.batch_window;
        Time wake = backlog.front().wake;
        do {
            const PendingArrival& front = backlog.front();
            wake = front.wake;
            group.push_back({front.request, front.uid});
            backlog.pop_front();
        } while (config.batch_window >= 0.0 && !backlog.empty() &&
                 backlog.front().wake <= window_end && eligible(backlog.front().wake));
        engine.stream_arrival_batch(group, wake);
        // RMWP_LINT_ALLOW(R1): host-scope latency metric and monitor cadence; never feeds sim state
        const auto ended = std::chrono::steady_clock::now();
        latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(ended - begun).count()));
        // A period <= 0 checks after every flush.
        if (config.monitor && ended - last_check_at >= monitor_period) {
            last_check_at = ended;
            check_now();
        }
        emit_windows();
    };

    const auto chunk_end = [&] {
        return static_cast<Time>(chunk_index + 1) * config.fault_chunk;
    };
    const auto switch_chunk = [&] {
        const Time boundary = chunk_end();
        engine.drain_through(boundary);
        ++chunk_index;
        chunk = make_fault_chunk(platform, config, chunk_index);
        engine.set_fault_schedule(&*chunk, boundary, /*include_events_at_from=*/true);
    };

    /// Process queued decisions and fault-chunk boundaries in time order up
    /// to (strictly before) the next arrival at `t`.
    const auto advance_to = [&](Time t) {
        while (true) {
            const Time wake =
                backlog.empty() ? std::numeric_limits<Time>::infinity() : backlog.front().wake;
            const Time boundary =
                faults_on ? chunk_end() : std::numeric_limits<Time>::infinity();
            if (wake < t && wake <= boundary) {
                flush_front([&](Time w) { return w < t && w <= boundary; });
            } else if (faults_on && boundary <= t) {
                switch_chunk();
            } else {
                break;
            }
        }
    };

    const auto write_checkpoint = [&] {
        const std::string tmp = config.checkpoint_path + ".tmp";
        {
            std::ofstream os(tmp);
            if (!os)
                throw std::runtime_error("serve: cannot write checkpoint: " + tmp);
            os << "RMWP-SERVE-CHECKPOINT 1\n";
            os << "digest " << digest << '\n';
            os << consumed << ' ' << shed << ' ' << chunk_index << '\n';
            put_f64(os, decider_free);
            const SourceCursor cursor = source.cursor();
            os << cursor.seq << ' ';
            put_f64(os, cursor.aux);
            os << backlog.size() << '\n';
            for (const PendingArrival& pending : backlog) {
                os << pending.uid << ' ' << pending.request.type << '\n';
                put_f64(os, pending.request.arrival);
                put_f64(os, pending.request.relative_deadline);
                put_f64(os, pending.wake);
            }
            engine.save_stream(os);
            os << "predictor " << (online != nullptr ? "online" : "none") << '\n';
            if (online != nullptr) online->save(os);
            os.flush();
            if (!os) throw std::runtime_error("serve: checkpoint write failed: " + tmp);
        }
        if (std::rename(tmp.c_str(), config.checkpoint_path.c_str()) != 0)
            throw std::runtime_error("serve: cannot move checkpoint into place: " +
                                     config.checkpoint_path);
    };

    // --- main loop ---
    ServeResult out;
    bool stopped_by_signal = false;

    while (true) {
        if (g_stop_requested.load(std::memory_order_relaxed) != 0) {
            stopped_by_signal = true;
            break;
        }
        if (violation.has_value()) break;
        if (config.max_arrivals != 0 && consumed >= config.max_arrivals) break;

        const std::optional<Request> request = source.next();
        if (!request.has_value()) break;
        if (config.max_sim_time > 0.0 && request->arrival > config.max_sim_time) break;

        advance_to(request->arrival);

        const TaskUid uid = consumed;
        ++consumed;
        if (config.max_pending != 0 && backlog.size() >= config.max_pending) {
            engine.stream_shed(*request, uid);
            ++shed;
        } else {
            // Deterministic admission decider in simulation time: one
            // request at a time, `decision_cost` each.  cost = 0 degrades
            // to wake == arrival, i.e. exactly the batch protocol.
            const Time wake = std::max(decider_free, request->arrival) + config.decision_cost;
            decider_free = wake;
            backlog.push_back({*request, uid, wake});
        }
        // Refresh the telemetry snapshot every 256 consumed arrivals: a
        // registry snapshot copies every counter, too dear per arrival and
        // plenty fresh for a scrape endpoint (windows also refresh it).
        if (telemetry.has_value() && consumed % 256 == 0) publish_telemetry();

        if (config.chaos_fake_miss_at != 0 && consumed == config.chaos_fake_miss_at)
            chaos_extra_misses = 1;

        if (checkpointing && consumed % config.checkpoint_every == 0) {
            write_checkpoint();
            ++out.checkpoints_written;
        }
    }

    // --- graceful drain: decide everything still queued, run to quiescence ---
    while (!backlog.empty()) {
        if (faults_on && chunk_end() <= backlog.front().wake) {
            switch_chunk();
        } else {
            flush_front([&](Time w) { return !faults_on || w < chunk_end(); });
        }
    }
    out.result = engine.finish_stream();
    if (config.monitor) check_now();
    publish_telemetry();
    emit_windows();

    out.arrivals = consumed;
    out.shed = shed;
    out.parse_errors = source.parse_errors();
    out.monitor_checks = monitor_checks;
    out.windows_emitted = windows_emitted;
    out.stopped_by_signal = stopped_by_signal;
    // RMWP_LINT_ALLOW(R1): wall_seconds reporting only, excluded from determinism checks
    out.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                     wall_begin)
                           .count();
    out.latency_p50_us = latency_quantile_us(latency, 0.50);
    out.latency_p90_us = latency_quantile_us(latency, 0.90);
    out.latency_p99_us = latency_quantile_us(latency, 0.99);
    out.latency_p999_us = latency_quantile_us(latency, 0.999);
    if (config.sim.sink != nullptr) {
        out.ring_occupancy = config.sim.sink->occupancy();
        out.ring_dropped = config.sim.sink->dropped();
    }
    if (online != nullptr) {
        out.predictor_predictions = online->type_predictions();
        out.predictor_hits = online->type_hits();
    }
    if (config.stage_stats_out != nullptr) *config.stage_stats_out = stage_stats;
    if (telemetry.has_value()) {
        // Leave the endpoint answering through the drain (a scrape during
        // SIGTERM shutdown must still see well-formed metrics); stop only
        // once the final state is published.
        out.telemetry_requests = telemetry->requests_served();
        telemetry->stop();
    }
    if (violation.has_value()) {
        out.exit_code = 3;
        out.violation = violation->to_string();
    }
    return out;
}

obs::JsonValue serve_stats_json(const ServeResult& serve, const obs::StageStats* stages) {
    const TraceResult& result = serve.result;
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("arrivals", serve.arrivals)
        .set("accepted", result.accepted)
        .set("rejected", result.rejected)
        .set("shed", serve.shed)
        .set("completed", result.completed)
        .set("deadline_misses", result.deadline_misses)
        .set("parse_errors", serve.parse_errors)
        .set("total_energy", result.total_energy)
        .set("wall_seconds", serve.wall_seconds)
        .set("decisions_per_second",
             serve.wall_seconds > 0.0
                 ? static_cast<double>(result.requests) / serve.wall_seconds
                 : 0.0)
        .set("latency_p50_us", serve.latency_p50_us)
        .set("latency_p90_us", serve.latency_p90_us)
        .set("latency_p99_us", serve.latency_p99_us)
        .set("latency_p999_us", serve.latency_p999_us)
        .set("ring_occupancy", serve.ring_occupancy)
        .set("ring_dropped", serve.ring_dropped)
        .set("telemetry_requests", serve.telemetry_requests)
        .set("predictor_predictions", serve.predictor_predictions)
        .set("predictor_hits", serve.predictor_hits)
        .set("monitor_checks", serve.monitor_checks)
        .set("checkpoints_written", serve.checkpoints_written)
        .set("stopped_by_signal", serve.stopped_by_signal);
    if (stages != nullptr) {
        // Same verdict names as /metrics' stage_prefilter_verdicts_total.
        doc.set("prefilter_feasible", stages->prefilter_feasible)
            .set("prefilter_infeasible", stages->prefilter_infeasible)
            .set("prefilter_unknown", stages->prefilter_unknown)
            .set("edf_simulate_calls", stages->cell(obs::Stage::edf_simulate).calls);
    }
    doc.set("exit_code", serve.exit_code);
    return doc;
}

} // namespace rmwp
