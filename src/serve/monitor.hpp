// Runtime invariant monitor for the long-running serve mode (DESIGN.md §11).
//
// The serve loop checks its own health: after a backlog flush, once every
// `monitor_period_seconds` of wall time (after every flush at a period
// <= 0), it builds a BoardSample from the engine and its own counters plus
// the process RSS and re-checks a set of liveness/soundness invariants:
//
//   * counters only move forward (a regression means memory corruption);
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
// check_invariants() is a pure function of two samples and the limits, so
// every invariant is unit-testable on its own; this file reads no clock.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/hdr.hpp"

namespace rmwp {

/// Serve latency ticks (nanoseconds) per reported microsecond.
inline constexpr double kLatencyTicksPerUs = 1000.0;

/// Quantile `q` of a nanosecond-tick latency histogram, in microseconds:
/// the upper bound of the HDR bucket holding it (~3 % relative error),
/// clamped to the recorded maximum, 0 when empty.  The one reading of
/// serve's latency histogram for ServeResult, the window line and the
/// monitor; `/metrics` renders the same ticks with kLatencyTicksPerUs.
[[nodiscard]] double latency_quantile_us(const obs::HdrHistogram& latency, double q) noexcept;

/// The serve loop's health at one instant.
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
    BoardSample sample;    ///< the sample that tripped the check

    [[nodiscard]] std::string to_string() const;
};

/// Current VmRSS in kB; 0 when unavailable (non-Linux).
[[nodiscard]] std::uint64_t read_rss_kb();

/// Re-check every invariant between two consecutive samples; nullopt when
/// all hold.  Pure — no clocks, no globals.
[[nodiscard]] std::optional<HealthReport> check_invariants(const BoardSample& previous,
                                                           const BoardSample& current,
                                                           const MonitorLimits& limits);

} // namespace rmwp
