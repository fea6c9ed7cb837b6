// Runtime invariant monitor for the long-running serve mode (DESIGN.md §11).
//
// The serve loop publishes its health to a lock-free HealthBoard (plain
// atomics — the hot path never takes a lock); a RuntimeMonitor thread
// periodically samples the board plus the process RSS and re-checks a set
// of liveness/soundness invariants:
//
//   * counters only move forward (a regression means memory corruption or
//     a torn update);
//   * accounting closes: decided + queued requests never exceed arrivals;
//   * no admitted task misses its deadline while faults are disabled (the
//     simulator's core guarantee, re-checked end to end);
//   * memory stays bounded: RSS under budget, active set under budget, the
//     observability ring within its capacity;
//   * decision latency p99 stays under budget.
//
// A violation produces a structured HealthReport; the serve loop drains
// gracefully and exits with a distinct status (3) so soak harnesses can
// tell "invariant broken" from "crashed" from "clean".
//
// check_invariants() is a pure function of two board samples and the
// limits, so every invariant is unit-testable without threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/hdr.hpp"

namespace rmwp {

/// HealthBoard::latency ticks (nanoseconds) per reported microsecond.
inline constexpr double kLatencyTicksPerUs = 1000.0;

/// Quantile `q` of a nanosecond-tick latency histogram, in microseconds:
/// the upper bound of the HDR bucket holding it (~3 % relative error), 0
/// when empty.  The one reading of HealthBoard::latency for ServeResult,
/// the window line and sample_board; `/metrics` renders the same ticks
/// with kLatencyTicksPerUs.
[[nodiscard]] double latency_quantile_us(const obs::AtomicHdrHistogram& latency,
                                         double q) noexcept;

/// Shared between the serve loop (writer) and the monitor thread (reader).
struct HealthBoard {
    std::atomic<std::uint64_t> arrivals{0};   ///< consumed from the source
    std::atomic<std::uint64_t> decided{0};    ///< went through the RM
    std::atomic<std::uint64_t> shed{0};       ///< dropped by overload protection
    std::atomic<std::uint64_t> queued{0};     ///< waiting in the admission backlog
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> deadline_misses{0};
    std::atomic<std::uint64_t> parse_errors{0};
    std::atomic<std::uint64_t> audit_checks{0};
    std::atomic<std::uint64_t> active{0};          ///< engine active set size
    std::atomic<std::uint64_t> ring_occupancy{0};  ///< observability ring
    std::atomic<std::uint64_t> ring_dropped{0};    ///< events lost to ring overflow
    std::atomic<std::uint64_t> predictor_predictions{0}; ///< resolved predictions
    std::atomic<std::uint64_t> predictor_hits{0};        ///< ... that were correct
    std::atomic<double> sim_clock{0.0};
    /// Wall-clock service latency per backlog flush, in nanosecond ticks.
    obs::AtomicHdrHistogram latency;
};

/// One consistent-enough read of the board (fields are sampled
/// independently; the invariants are chosen to tolerate the skew).
struct BoardSample {
    std::uint64_t arrivals = 0;
    std::uint64_t decided = 0;
    std::uint64_t shed = 0;
    std::uint64_t queued = 0;
    std::uint64_t completed = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t audit_checks = 0;
    std::uint64_t active = 0;
    std::uint64_t ring_occupancy = 0;
    double sim_clock = 0.0;
    double latency_p99_us = 0.0;
    std::uint64_t latency_count = 0;
    std::uint64_t rss_kb = 0; ///< 0 when /proc is unavailable
};

/// All limits are "0 disables the check".
struct MonitorLimits {
    std::uint64_t rss_budget_kb = 0;
    std::uint64_t active_budget = 0;
    std::uint64_t ring_capacity = 0;
    double latency_p99_budget_us = 0.0;
    /// Faults disabled: any admitted-task deadline miss is an invariant
    /// violation (the simulator's firm-guarantee contract).
    bool expect_no_misses = false;
};

struct HealthReport {
    std::string invariant; ///< short machine-readable name, e.g. "rss_budget"
    std::string detail;    ///< human-readable explanation with the numbers
    BoardSample sample;    ///< the board state that tripped the check

    [[nodiscard]] std::string to_string() const;
};

/// Read the board (and /proc/self/status VmRSS) into one sample.
[[nodiscard]] BoardSample sample_board(const HealthBoard& board);

/// Current VmRSS in kB; 0 when unavailable (non-Linux).
[[nodiscard]] std::uint64_t read_rss_kb();

/// Re-check every invariant between two consecutive samples; nullopt when
/// all hold.  Pure — no clocks, no globals.
[[nodiscard]] std::optional<HealthReport> check_invariants(const BoardSample& previous,
                                                           const BoardSample& current,
                                                           const MonitorLimits& limits);

/// Background thread sampling the board every `period_seconds`.  The first
/// violation is latched (later ones are ignored) and reported through the
/// callback exactly once; the serve loop polls violation() and drains.
class RuntimeMonitor {
public:
    using Callback = std::function<void(const HealthReport&)>;

    RuntimeMonitor(const HealthBoard& board, const MonitorLimits& limits, double period_seconds,
                   Callback on_violation = {});
    ~RuntimeMonitor();

    RuntimeMonitor(const RuntimeMonitor&) = delete;
    RuntimeMonitor& operator=(const RuntimeMonitor&) = delete;

    void start();
    void stop();

    /// Run one check synchronously (also used for the final check after the
    /// stream drains, so a violation near the end is never missed).
    void check_now();

    [[nodiscard]] std::optional<HealthReport> violation() const;
    [[nodiscard]] std::uint64_t checks() const noexcept { return checks_.load(std::memory_order_relaxed); }

private:
    void run();
    void check_locked();

    const HealthBoard& board_;
    MonitorLimits limits_;
    double period_seconds_;
    Callback on_violation_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_requested_ = false;
    bool started_ = false;
    std::thread thread_;
    BoardSample previous_{};
    bool have_previous_ = false;
    std::optional<HealthReport> violation_;
    std::atomic<std::uint64_t> checks_{0};
};

} // namespace rmwp
