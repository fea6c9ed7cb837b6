// TraceSink — the per-run event recorder (DESIGN.md §10).
//
// One sink belongs to exactly one simulation run, and a run executes on
// exactly one thread, so recording is lock-free by construction: emit() is
// a bounds-free store into a pre-sized ring plus one host-clock read.  The
// parallel experiment engine creates one sink per trace cell; sinks are
// never shared across threads (the same per-thread discipline as
// PlanScratch::local()).
//
// The ring keeps the most recent `capacity` events; older events are
// overwritten and counted in dropped().  Overwriting (rather than
// stopping) keeps emit() O(1) and branch-predictable on the admission hot
// path, and the tail of a run — completions, rescues, final rebuilds — is
// exactly what post-mortem debugging needs.
//
// The engine's recording hook (RMWP_RECORD, src/sim/engine.cpp) compiles
// to nothing when the build disables the observability layer
// (-DRMWP_OBS=OFF), so no tracer symbol is referenced from the simulator.
// When compiled in but no sink is attached (the default), each hook costs
// one null-pointer branch.
#pragma once

#include <chrono>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"

namespace rmwp::obs {

class TraceStreamWriter;

class TraceSink {
public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

    explicit TraceSink(std::size_t capacity = kDefaultCapacity);

    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /// Record one event.  `t_host` is stamped here (host seconds since the
    /// sink was created); every other field is caller-provided simulated
    /// state, so the deterministic payload never depends on the host.
    void emit(double t_sim, EventKind kind, std::uint64_t task = kNoTask,
              std::int64_t resource = kNoResource, double detail = 0.0,
              std::uint32_t aux = 0) noexcept;

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    /// Events ever emitted (including overwritten ones).
    [[nodiscard]] std::uint64_t total_emitted() const noexcept { return emitted_; }
    /// Events lost to ring wraparound.
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return emitted_ > capacity_ ? emitted_ - capacity_ : 0;
    }
    /// Events currently retained in the ring (== capacity once wrapped).
    [[nodiscard]] std::uint64_t occupancy() const noexcept {
        return emitted_ < capacity_ ? emitted_ : capacity_;
    }

    /// The retained events, oldest first.
    [[nodiscard]] std::vector<TraceEvent> events() const;

    [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
    [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }

    /// Forward every emitted event to a durable rotating shard stream (in
    /// addition to the ring).  The writer must outlive the sink or be
    /// detached with nullptr first; emit() stays noexcept by treating
    /// stream I/O failures as fatal (a durable trace that silently loses
    /// events would be worse than a crash).
    void set_stream(TraceStreamWriter* stream) noexcept { stream_ = stream; }
    [[nodiscard]] TraceStreamWriter* stream() const noexcept { return stream_; }

private:
    std::vector<TraceEvent> ring_;
    std::size_t capacity_;
    std::uint64_t emitted_ = 0;
    std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
    MetricsRegistry metrics_;
    TraceStreamWriter* stream_ = nullptr;
};

} // namespace rmwp::obs
