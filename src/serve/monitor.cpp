#include "serve/monitor.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace rmwp {

double latency_quantile_us(const obs::HdrHistogram& latency, double q) noexcept {
    return static_cast<double>(latency.quantile(q)) / kLatencyTicksPerUs;
}

std::uint64_t read_rss_kb() {
    std::ifstream status("/proc/self/status");
    if (!status) return 0;
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) != 0) continue;
        std::istringstream fields(line.substr(6));
        std::uint64_t kb = 0;
        fields >> kb;
        return kb;
    }
    return 0;
}

namespace {

std::string with_numbers(const char* what, std::uint64_t lhs, std::uint64_t rhs) {
    char buffer[160];
    std::snprintf(buffer, sizeof buffer, "%s (%llu vs %llu)", what,
                  static_cast<unsigned long long>(lhs), static_cast<unsigned long long>(rhs));
    return buffer;
}

} // namespace

std::optional<HealthReport> check_invariants(const BoardSample& previous,
                                             const BoardSample& current,
                                             const MonitorLimits& limits) {
    const auto violation = [&current](std::string invariant,
                                      std::string detail) -> HealthReport {
        return HealthReport{std::move(invariant), std::move(detail), current};
    };

    // Monotone counters.  Both samples come from the serve thread, so any
    // regression means corruption, not reordering.
    struct Pair {
        const char* name;
        std::uint64_t prev, cur;
    };
    const Pair counters[] = {
        {"arrivals", previous.arrivals, current.arrivals},
        {"decided", previous.decided, current.decided},
        {"shed", previous.shed, current.shed},
        {"completed", previous.completed, current.completed},
        {"deadline_misses", previous.deadline_misses, current.deadline_misses},
        {"parse_errors", previous.parse_errors, current.parse_errors},
        {"audit_checks", previous.audit_checks, current.audit_checks},
    };
    for (const Pair& counter : counters) {
        if (counter.cur < counter.prev)
            return violation("monotone_counter",
                             with_numbers((std::string(counter.name) + " moved backwards").c_str(),
                                          counter.cur, counter.prev));
    }
    if (current.sim_clock < previous.sim_clock)
        return violation("monotone_clock", "simulation clock moved backwards");

    // Accounting closes: every consumed arrival is decided, shed, or still
    // queued.
    if (current.decided + current.shed > current.arrivals + current.queued)
        return violation("accounting",
                         with_numbers("decided+shed exceeds arrivals+queued",
                                      current.decided + current.shed,
                                      current.arrivals + current.queued));
    if (current.completed > current.decided)
        return violation("accounting",
                         with_numbers("completed exceeds decided", current.completed,
                                      current.decided));

    if (limits.expect_no_misses && current.deadline_misses > 0)
        return violation("deadline_guarantee",
                         with_numbers("admitted-task deadline misses with faults disabled",
                                      current.deadline_misses, 0));

    if (limits.rss_budget_kb != 0 && current.rss_kb > limits.rss_budget_kb)
        return violation("rss_budget", with_numbers("RSS (kB) over budget", current.rss_kb,
                                                    limits.rss_budget_kb));
    if (limits.active_budget != 0 && current.active > limits.active_budget)
        return violation("active_budget", with_numbers("active set over budget", current.active,
                                                       limits.active_budget));
    if (limits.ring_capacity != 0 && current.ring_occupancy > limits.ring_capacity)
        return violation("ring_capacity",
                         with_numbers("observability ring over capacity",
                                      current.ring_occupancy, limits.ring_capacity));
    if (limits.latency_p99_budget_us > 0.0 && current.latency_count > 0 &&
        current.latency_p99_us > limits.latency_p99_budget_us) {
        char buffer[160];
        std::snprintf(buffer, sizeof buffer,
                      "decision latency p99 over budget (%.0fus vs %.0fus)",
                      current.latency_p99_us, limits.latency_p99_budget_us);
        return violation("latency_budget", buffer);
    }

    return std::nullopt;
}

std::string HealthReport::to_string() const {
    char buffer[512];
    std::snprintf(buffer, sizeof buffer,
                  "invariant=%s detail=\"%s\" arrivals=%llu decided=%llu shed=%llu "
                  "completed=%llu misses=%llu active=%llu rss_kb=%llu p99_us=%.0f "
                  "sim_clock=%.3f",
                  invariant.c_str(), detail.c_str(),
                  static_cast<unsigned long long>(sample.arrivals),
                  static_cast<unsigned long long>(sample.decided),
                  static_cast<unsigned long long>(sample.shed),
                  static_cast<unsigned long long>(sample.completed),
                  static_cast<unsigned long long>(sample.deadline_misses),
                  static_cast<unsigned long long>(sample.active),
                  static_cast<unsigned long long>(sample.rss_kb), sample.latency_p99_us,
                  sample.sim_clock);
    return buffer;
}

} // namespace rmwp
