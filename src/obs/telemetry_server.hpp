// Live telemetry endpoint for long-running serve mode (DESIGN.md §14).
//
// TelemetryServer is a deliberately minimal HTTP/1.1 server: one service
// thread, poll(2)-driven, loopback-only, no dependencies.  It answers
//   GET /metrics  — Prometheus text exposition (version 0.0.4)
//   GET /healthz  — "ok" (200) or the monitor's violation (503)
// and closes every connection after one response.  Request handling never
// touches serve's hot path: the handlers passed in at construction read
// only published snapshots and atomics, so the admission loop never blocks
// on a socket.
//
// PrometheusText is the exposition builder the /metrics handler (and the
// strict parse-back test) use: every metric family gets exactly one
// HELP/TYPE header before its samples, names are sanitised to the
// Prometheus grammar, doubles are emitted round-trippably, and every HDR
// histogram renders through the one summary() helper.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"

namespace rmwp::obs {

/// Map an internal metric name to the Prometheus grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]*: every other character becomes '_'
/// ("reject.no_candidate_plan" -> "reject_no_candidate_plan").
[[nodiscard]] std::string prometheus_name(std::string_view raw);

/// Append-only exposition-text builder (see file comment).
class PrometheusText {
public:
    /// Start a metric family: emits "# HELP" and "# TYPE" lines.  `type`
    /// is one of counter/gauge/summary/untyped.
    void family(std::string_view name, std::string_view help, std::string_view type);
    /// One sample line; `labels` is the rendered label body without braces
    /// (e.g. `stage="prefilter"`), empty for none, and `suffix` extends the
    /// family name (e.g. "_bucket").
    void sample(std::string_view name, std::string_view labels, double value,
                std::string_view suffix = "");
    void sample(std::string_view name, std::string_view labels, std::uint64_t value,
                std::string_view suffix = "");
    /// A whole summary family from an HDR histogram: quantiles 0.5, 0.9,
    /// 0.99 and 0.999, then _sum and _count.  Tick values (quantiles and
    /// the sum) are divided by `ticks_per_unit` — 1000 renders nanosecond
    /// ticks as microseconds; at 1 they print as exact integers.
    void summary(std::string_view name, std::string_view help, const HdrHistogram& hdr,
                 double ticks_per_unit = 1.0);

    [[nodiscard]] const std::string& text() const noexcept { return text_; }
    [[nodiscard]] std::string take() noexcept { return std::move(text_); }

private:
    std::string text_;
};

/// Render a MetricsSnapshot (counters/gauges/HDR histograms) under
/// `prefix` ("rmwp_").  Counters get a "_total" suffix; HDR histograms
/// become summaries (PrometheusText::summary).
void render_metrics(PrometheusText& out, const MetricsSnapshot& snapshot,
                    std::string_view prefix);

/// The same snapshot as JSON (the BENCH artefacts' "obs" block):
/// {"counters": {name: n}, "gauges": {name: x}, "histograms": {name:
/// {count, sum, min, max, p50, p90, p99, p999}}} — the quantile set
/// render_metrics uses.  Host-scoped entries are included.
[[nodiscard]] JsonValue metrics_json(const MetricsSnapshot& snapshot);

/// Render a stage profile: rmwp_stage_calls_total / rmwp_stage_time_ns_total
/// (estimated; see StageStats::estimated_ns) labelled by stage, the
/// prefilter verdict counters labelled by verdict, and the plan-arena
/// high-water gauge.
void render_stage_stats(PrometheusText& out, const StageStats& stages,
                        std::string_view prefix);

struct TelemetryHandlers {
    /// Body for GET /metrics (content type text/plain; version=0.0.4).
    std::function<std::string()> metrics;
    /// Empty string = healthy (200 "ok"); non-empty = the violation
    /// description, served with status 503.
    std::function<std::string()> health;
};

class TelemetryServer {
public:
    /// Bind 127.0.0.1:`port` (0 picks an ephemeral port, see port()) and
    /// start the service thread.  Throws std::runtime_error when the
    /// socket cannot be bound.
    TelemetryServer(int port, TelemetryHandlers handlers);
    ~TelemetryServer();
    TelemetryServer(const TelemetryServer&) = delete;
    TelemetryServer& operator=(const TelemetryServer&) = delete;

    /// The bound port (useful with port 0).
    [[nodiscard]] int port() const noexcept { return port_; }
    /// Requests answered so far (any endpoint, including 404s).
    [[nodiscard]] std::uint64_t requests_served() const noexcept {
        return requests_.load(std::memory_order_relaxed);
    }

    /// Stop accepting, drain in-flight responses, and join the thread.
    /// Idempotent; the destructor calls it.
    void stop();

private:
    void run();

    TelemetryHandlers handlers_;
    int listen_fd_ = -1;
    int wake_fd_[2] = {-1, -1}; ///< self-pipe: stop() pokes the poll loop
    int port_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::thread thread_;
};

} // namespace rmwp::obs
