#include "obs/telemetry_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace rmwp::obs {

std::string prometheus_name(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const char c = raw[i];
        const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
                           c == ':';
        const bool digit = c >= '0' && c <= '9';
        out.push_back(alpha || (digit && i > 0) ? c : '_');
    }
    if (out.empty()) out = "_";
    return out;
}

namespace {

/// Prometheus spells the non-finite values NaN, +Inf and -Inf.
void append_double(std::string& out, double d) {
    if (std::isnan(d)) out += "NaN";
    else if (std::isinf(d)) out += d > 0.0 ? "+Inf" : "-Inf";
    else append_json_number(out, d);
}

/// The quantiles every HDR summary reports, in /metrics and in JSON.
struct SummaryQuantile {
    double q;
    const char* label;
    const char* key;
};
constexpr SummaryQuantile kSummaryQuantiles[] = {
    {0.5, "quantile=\"0.5\"", "p50"},
    {0.9, "quantile=\"0.9\"", "p90"},
    {0.99, "quantile=\"0.99\"", "p99"},
    {0.999, "quantile=\"0.999\"", "p999"},
};

} // namespace

void PrometheusText::family(std::string_view name, std::string_view help,
                            std::string_view type) {
    text_ += "# HELP ";
    text_ += name;
    text_ += ' ';
    text_ += help;
    text_ += "\n# TYPE ";
    text_ += name;
    text_ += ' ';
    text_ += type;
    text_ += '\n';
}

void PrometheusText::sample(std::string_view name, std::string_view labels, double value,
                            std::string_view suffix) {
    text_ += name;
    text_ += suffix;
    if (!labels.empty()) {
        text_ += '{';
        text_ += labels;
        text_ += '}';
    }
    text_ += ' ';
    append_double(text_, value);
    text_ += '\n';
}

void PrometheusText::sample(std::string_view name, std::string_view labels,
                            std::uint64_t value, std::string_view suffix) {
    text_ += name;
    text_ += suffix;
    if (!labels.empty()) {
        text_ += '{';
        text_ += labels;
        text_ += '}';
    }
    text_ += ' ';
    text_ += std::to_string(value);
    text_ += '\n';
}

void PrometheusText::summary(std::string_view name, std::string_view help,
                             const HdrHistogram& hdr, double ticks_per_unit) {
    family(name, help, "summary");
    const auto ticks = [&](std::string_view labels, std::uint64_t value,
                           std::string_view suffix) {
        if (ticks_per_unit == 1.0) sample(name, labels, value, suffix);
        else sample(name, labels, static_cast<double>(value) / ticks_per_unit, suffix);
    };
    for (const SummaryQuantile& q : kSummaryQuantiles) ticks(q.label, hdr.quantile(q.q), "");
    ticks("", hdr.sum(), "_sum");
    sample(name, "", hdr.count(), "_count");
}

void render_metrics(PrometheusText& out, const MetricsSnapshot& snapshot,
                    std::string_view prefix) {
    const auto full = [&](std::string_view raw) {
        return std::string(prefix) + prometheus_name(raw);
    };
    for (const auto& counter : snapshot.counters) {
        const std::string name = full(counter.name) + "_total";
        out.family(name, "engine counter " + counter.name, "counter");
        out.sample(name, "", counter.value);
    }
    for (const auto& gauge : snapshot.gauges) {
        const std::string name = full(gauge.name);
        out.family(name, "engine gauge " + gauge.name, "gauge");
        out.sample(name, "", gauge.value);
    }
    for (const auto& hdr : snapshot.hdrs)
        out.summary(full(hdr.name), "HDR histogram " + hdr.name, hdr.dense());
}

JsonValue metrics_json(const MetricsSnapshot& snapshot) {
    JsonValue counters = JsonValue::object();
    for (const auto& counter : snapshot.counters) counters.set(counter.name, counter.value);
    JsonValue gauges = JsonValue::object();
    for (const auto& gauge : snapshot.gauges) gauges.set(gauge.name, gauge.value);
    JsonValue histograms = JsonValue::object();
    for (const auto& hdr : snapshot.hdrs) {
        const HdrHistogram dense = hdr.dense();
        JsonValue h = JsonValue::object();
        h.set("count", dense.count()).set("sum", dense.sum());
        h.set("min", dense.min()).set("max", dense.max());
        for (const SummaryQuantile& q : kSummaryQuantiles) h.set(q.key, dense.quantile(q.q));
        histograms.set(hdr.name, std::move(h));
    }
    return JsonValue::object()
        .set("counters", std::move(counters))
        .set("gauges", std::move(gauges))
        .set("histograms", std::move(histograms));
}

void render_stage_stats(PrometheusText& out, const StageStats& stages,
                        std::string_view prefix) {
    const std::string calls = std::string(prefix) + "stage_calls_total";
    const std::string time_ns = std::string(prefix) + "stage_time_ns_total";
    out.family(calls, "admission pipeline stage invocations", "counter");
    for (std::size_t s = 0; s < kStageCount; ++s) {
        const std::string label =
            std::string("stage=\"") + to_string(static_cast<Stage>(s)) + "\"";
        out.sample(calls, label, stages.stage[s].calls);
    }
    out.family(time_ns, "estimated host time per stage (sampled; see DESIGN.md §14)",
               "counter");
    for (std::size_t s = 0; s < kStageCount; ++s) {
        const std::string label =
            std::string("stage=\"") + to_string(static_cast<Stage>(s)) + "\"";
        out.sample(time_ns, label, stages.estimated_ns(static_cast<Stage>(s)));
    }

    const std::string verdicts = std::string(prefix) + "stage_prefilter_verdicts_total";
    out.family(verdicts, "analytic EDF prefilter outcomes", "counter");
    out.sample(verdicts, "verdict=\"infeasible\"", stages.prefilter_infeasible);
    out.sample(verdicts, "verdict=\"feasible\"", stages.prefilter_feasible);
    out.sample(verdicts, "verdict=\"unknown\"", stages.prefilter_unknown);

    const std::string arena = std::string(prefix) + "plan_arena_high_water_bytes";
    out.family(arena, "plan-scratch arena footprint high-water mark", "gauge");
    out.sample(arena, "", stages.arena_high_water_bytes);
}

namespace {

/// One client connection mid-request or mid-response.
struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    std::size_t out_off = 0;
    bool responding = false;
};

constexpr std::size_t kMaxRequestBytes = 8192;

[[nodiscard]] std::string http_response(int status, std::string_view reason,
                                        std::string_view content_type,
                                        std::string_view body) {
    std::string out = "HTTP/1.1 " + std::to_string(status) + " " + std::string(reason) +
                      "\r\nContent-Type: " + std::string(content_type) +
                      "\r\nContent-Length: " + std::to_string(body.size()) +
                      "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

/// Extract the request target from "GET /path HTTP/1.1"; empty on anything
/// that is not a well-formed GET request line.
[[nodiscard]] std::string_view parse_get_target(std::string_view head) {
    const std::size_t line_end = head.find("\r\n");
    std::string_view line = line_end == std::string_view::npos ? head : head.substr(0, line_end);
    if (!line.starts_with("GET ")) return {};
    line.remove_prefix(4);
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) return {};
    return line.substr(0, space);
}

void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
}

} // namespace

TelemetryServer::TelemetryServer(int port, TelemetryHandlers handlers)
    : handlers_(std::move(handlers)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw std::runtime_error("telemetry: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
        const int saved = errno;
        close_fd(listen_fd_);
        throw std::runtime_error("telemetry: cannot listen on 127.0.0.1:" +
                                 std::to_string(port) + ": " + std::strerror(saved));
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    if (::pipe(wake_fd_) != 0) {
        close_fd(listen_fd_);
        throw std::runtime_error("telemetry: pipe() failed");
    }
    thread_ = std::thread([this] { run(); });
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    const char poke = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_[1], &poke, 1);
    thread_.join();
    close_fd(listen_fd_);
    close_fd(wake_fd_[0]);
    close_fd(wake_fd_[1]);
}

void TelemetryServer::run() {
    std::vector<Conn> conns;
    std::vector<pollfd> fds;
    while (!stop_.load(std::memory_order_relaxed)) {
        fds.clear();
        fds.push_back({wake_fd_[0], POLLIN, 0});
        fds.push_back({listen_fd_, POLLIN, 0});
        for (const Conn& conn : conns)
            fds.push_back({conn.fd, static_cast<short>(conn.responding ? POLLOUT : POLLIN), 0});
        if (::poll(fds.data(), fds.size(), 250) < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if ((fds[0].revents & POLLIN) != 0) break; // stop() poked the pipe

        // Connections accepted below have no pollfd this round: only the
        // first `polled` entries of conns may be swept against fds.
        const std::size_t polled = fds.size() - 2;
        if ((fds[1].revents & POLLIN) != 0) {
            for (;;) {
                const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                             SOCK_NONBLOCK | SOCK_CLOEXEC);
                if (client < 0) break;
                conns.push_back({client, {}, {}, 0, false});
            }
        }

        for (std::size_t k = polled; k-- > 0;) {
            Conn& conn = conns[k];
            const pollfd& pfd = fds[2 + k];
            bool done = false;
            if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 && !conn.responding) {
                done = true;
            } else if (!conn.responding && (pfd.revents & POLLIN) != 0) {
                char buffer[4096];
                const ssize_t n = ::read(conn.fd, buffer, sizeof buffer);
                // n == 0 is orderly EOF: always done.  errno is only
                // meaningful for n < 0 (read() leaves it untouched on
                // success, and the accept4 drain above ends with EAGAIN).
                if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
                    done = true;
                } else if (n > 0) {
                    conn.in.append(buffer, static_cast<std::size_t>(n));
                    if (conn.in.size() > kMaxRequestBytes) {
                        conn.out = http_response(431, "Request Header Fields Too Large",
                                                 "text/plain", "request too large\n");
                        conn.responding = true;
                    } else if (conn.in.find("\r\n\r\n") != std::string::npos) {
                        const std::string_view target = parse_get_target(conn.in);
                        requests_.fetch_add(1, std::memory_order_relaxed);
                        if (target == "/metrics" && handlers_.metrics) {
                            conn.out = http_response(
                                200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                                handlers_.metrics());
                        } else if (target == "/healthz") {
                            const std::string violation =
                                handlers_.health ? handlers_.health() : std::string();
                            conn.out = violation.empty()
                                           ? http_response(200, "OK", "text/plain", "ok\n")
                                           : http_response(503, "Service Unavailable",
                                                           "text/plain", violation + "\n");
                        } else if (target.empty()) {
                            conn.out = http_response(405, "Method Not Allowed", "text/plain",
                                                     "only GET is supported\n");
                        } else {
                            conn.out = http_response(404, "Not Found", "text/plain",
                                                     "try /metrics or /healthz\n");
                        }
                        conn.responding = true;
                    }
                }
            } else if (conn.responding && (pfd.revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
                // MSG_NOSIGNAL: a scraper that disconnects mid-response must
                // yield EPIPE here, not a process-killing SIGPIPE.
                const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                                         conn.out.size() - conn.out_off, MSG_NOSIGNAL);
                if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
                    done = true;
                } else if (n > 0) {
                    conn.out_off += static_cast<std::size_t>(n);
                    done = conn.out_off == conn.out.size();
                }
            }
            if (done) {
                close_fd(conn.fd);
                conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(k));
            }
        }
    }
    for (Conn& conn : conns) close_fd(conn.fd);
}

} // namespace rmwp::obs
