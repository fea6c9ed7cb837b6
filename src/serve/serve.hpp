// Long-running serve mode (DESIGN.md §11): an online admission service
// built on the shared SimEngine.
//
// Where simulate_trace() is a batch oracle — whole trace in memory, run to
// completion — run_serve() consumes arrivals one at a time from an
// ArrivalSource and keeps every data structure O(active set):
//
//   * overload protection: arrivals pass through a bounded admission
//     backlog modelled in *simulation time* (a deterministic decider that
//     spends `decision_cost` per request); when the backlog is full the
//     request is shed with RejectReason::overload instead of growing the
//     queue.  With decision_cost = 0 and an unbounded backlog the serve
//     outcome is identical to simulate_trace on the same arrivals, with or
//     without execution-time variation — the differential test in
//     tests/test_serve.cpp pins this down;
//   * injected faults are generated in bounded chunks (one seeded schedule
//     per `fault_chunk` of simulation time) so an endless run never
//     materialises an unbounded schedule;
//   * the loop re-checks liveness and soundness invariants itself
//     (serve/monitor.hpp) after backlog flushes; a violation drains the
//     service and returns exit status 3;
//   * crash safety: every `checkpoint_every` consumed arrivals the full
//     service state — engine, admission backlog, online-predictor model,
//     source cursor — is written atomically (tmp + rename) as a versioned
//     text snapshot; --restore resumes from it and the continuation is
//     bit-identical (modulo host-time fields) to the uninterrupted run;
//   * SIGTERM/SIGINT request a graceful drain: the backlog is flushed, the
//     engine runs to quiescence, and the final result is reported with
//     exit status 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/manager.hpp"
#include "core/reservation.hpp"
#include "fault/fault.hpp"
#include "metrics/trace_result.hpp"
#include "obs/json.hpp"
#include "obs/stage_timer.hpp"
#include "predict/predictor.hpp"
#include "serve/arrival_source.hpp"
#include "serve/monitor.hpp"
#include "sim/simulator.hpp"

namespace rmwp {

struct ServeConfig {
    /// Engine knobs.  fault_schedule must stay null (serve manages fault
    /// chunks itself) and activation_period must be 0 (batching is a
    /// batch-mode feature).
    SimOptions sim;

    // --- overload protection ---
    /// Simulation-time cost the admission decider spends per request; the
    /// k-th queued request wakes at max(decider_free, arrival) + cost.
    double decision_cost = 0.0;
    /// Backlog bound; an arrival finding this many queued is shed.  0 =
    /// unbounded (never sheds).
    std::size_t max_pending = 0;
    /// Batched admission (DESIGN.md §13): when >= 0, each backlog flush
    /// coalesces the maximal run of queued requests whose wakes fall within
    /// `batch_window` of the first one (and before the flush limit and the
    /// current fault chunk's end) into a single decide_batch activation at
    /// the last member's wake.  0 coalesces only identical wakes — with
    /// decision_cost = 0 that is bit-identical to the unbatched loop
    /// (decide_batch's contract); > 0 trades per-request decision latency
    /// for amortised activation cost.  Negative (default) = off: requests
    /// are decided one at a time exactly as before.
    Time batch_window = -1.0;

    // --- run bounds ---
    std::uint64_t max_arrivals = 0; ///< stop after this many consumed; 0 = source-driven
    Time max_sim_time = 0.0;        ///< stop at the first arrival past this; 0 = unbounded

    // --- injected faults (chunked) ---
    FaultParams faults;         ///< all-zero = fault-free; permanent_prob must be 0
    std::uint64_t fault_seed = 0;
    Time fault_chunk = 10000.0; ///< chunk length in simulation time

    // --- checkpointing ---
    std::string checkpoint_path;        ///< empty = disabled
    std::uint64_t checkpoint_every = 0; ///< consumed arrivals between snapshots; 0 = disabled
    std::string restore_path;           ///< resume from this snapshot first

    // --- monitor ---
    /// Re-check the invariants of serve/monitor.hpp on the serve thread:
    /// after a backlog flush once `monitor_period_seconds` of wall time have
    /// passed since the last check (a period <= 0 checks after every
    /// flush), and once more after the drain.
    bool monitor = true;
    double monitor_period_seconds = 0.5;
    MonitorLimits limits;

    // --- rolling window stats ---
    Time window = 0.0;    ///< emit one stats line per window of sim time; 0 = off
    std::ostream* window_out = nullptr; ///< default std::cerr

    // --- live telemetry (DESIGN.md §14) ---
    /// HTTP telemetry endpoint (GET /metrics, GET /healthz) bound to
    /// 127.0.0.1:<port>.  0 picks an ephemeral port; -1 (default) disables
    /// the server.  Enabling telemetry also enables per-stage profiling.
    int telemetry_port = -1;
    /// When non-null, receives the bound port once the server is listening
    /// (tests use port 0 and read the real port from here).
    std::atomic<int>* telemetry_port_out = nullptr;
    /// When non-null, receives the run's final per-stage profile and
    /// enables stage profiling even with the telemetry server disabled
    /// (bit-identity tests compare decisions with this on vs off).
    obs::StageStats* stage_stats_out = nullptr;

    /// Test hook (chaos): after this many consumed arrivals, fake a
    /// deadline-miss in the monitor's samples (the engine result is
    /// untouched) to prove the monitor catches violations end to end.
    /// 0 = off.
    std::uint64_t chaos_fake_miss_at = 0;

    /// Extra caller context folded into the checkpoint's config digest
    /// (e.g. the CLI's rm/predictor/seed flags), so a restore with a
    /// different setup is rejected instead of silently diverging.
    std::string config_digest;
};

struct ServeResult {
    TraceResult result;  ///< the engine's final accumulators
    std::uint64_t arrivals = 0;     ///< consumed from the source (incl. shed)
    std::uint64_t shed = 0;         ///< dropped by overload protection
    std::uint64_t parse_errors = 0; ///< malformed source lines skipped
    std::uint64_t checkpoints_written = 0;
    std::uint64_t monitor_checks = 0;
    std::uint64_t windows_emitted = 0;
    bool stopped_by_signal = false;
    /// 0 = clean (including signal-drain), 3 = invariant violation.
    int exit_code = 0;
    std::string violation; ///< HealthReport::to_string() when exit_code == 3
    double wall_seconds = 0.0;
    /// Wall-clock service latency per backlog flush (per arrival when
    /// batching is off; per coalesced group under batch_window >= 0).
    /// HDR-backed: quantiles are exact to ~3 % bucket resolution.
    double latency_p50_us = 0.0;
    double latency_p90_us = 0.0;
    double latency_p99_us = 0.0;
    double latency_p999_us = 0.0;
    /// Observability-ring state at exit (both 0 without a sink): events
    /// retained, and events lost to ring wraparound over the whole run.
    std::uint64_t ring_occupancy = 0;
    std::uint64_t ring_dropped = 0;
    /// HTTP requests the telemetry endpoint answered (0 when disabled).
    std::uint64_t telemetry_requests = 0;
    /// Online-predictor self-scoring (both 0 when the predictor is not the
    /// online one): identity predictions issued, and the subset the next
    /// arrival proved correct.  The rolling-window stats line reports the
    /// per-window hit rate as `phit`.
    std::uint64_t predictor_predictions = 0;
    std::uint64_t predictor_hits = 0;
};

/// Install SIGTERM/SIGINT handlers that request a graceful drain of the
/// running serve loop (safe to call once per process; the handlers only set
/// a flag).  run_serve() also honours serve_request_stop() without any
/// handler installed — tests drive the drain path in-process with it.
void install_serve_signal_handlers();
void serve_request_stop() noexcept;
/// Clear a pending stop request (between consecutive runs in one process).
void serve_clear_stop() noexcept;

/// The `--stats-json` document: the run's counts, energy, wall time and
/// latency quantiles at full double precision, plus — when `stages` is
/// non-null — the prefilter verdict counts and EDF simulation calls of the
/// run's stage profile.
[[nodiscard]] obs::JsonValue serve_stats_json(const ServeResult& serve,
                                              const obs::StageStats* stages);

/// Run the service until the source is exhausted, a bound is hit, a stop is
/// requested, or the monitor trips.  Throws std::runtime_error for
/// configuration errors (bad restore file, checkpointing a non-seekable
/// source, permanent faults).
[[nodiscard]] ServeResult run_serve(const Platform& platform, const Catalog& catalog,
                                    ResourceManager& rm, Predictor& predictor,
                                    const ReservationTable* reservations, ArrivalSource& source,
                                    const ServeConfig& config);

} // namespace rmwp
