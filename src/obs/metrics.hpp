// Metrics registry (DESIGN.md §10): named counters, gauges, and HDR
// histograms owned by one TraceSink (and therefore by one
// simulation run — single-threaded by construction, no locks anywhere).
//
// Metrics come in two scopes.  `sim` metrics derive exclusively from
// simulated state (rejection reasons, per-resource busy time, plan sizes)
// and are bit-identical across jobs counts and tracing configurations;
// `host` metrics measure the machine the run happens to execute on
// (admission latency) and are excluded from every determinism comparison,
// exactly like TraceResult's wall-clock fields.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/hdr.hpp"

namespace rmwp::obs {

enum class MetricScope : std::uint8_t {
    sim,  ///< derived from simulated state only — deterministic
    host, ///< measures the host — excluded from determinism comparisons
};

/// Monotone event count.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept { value_ += n; }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

private:
    std::uint64_t value_ = 0;
};

/// Accumulating scalar (e.g. per-resource busy time).  Merging snapshots
/// across traces sums gauges, so register only sum-mergeable quantities.
class Gauge {
public:
    void add(double v) noexcept { value_ += v; }
    [[nodiscard]] double value() const noexcept { return value_; }

private:
    double value_ = 0.0;
};

/// Immutable copy of a registry's state, safe to move across threads and
/// embed in TraceResult.  Entries keep registration order so artefacts
/// diff cleanly between runs.
struct MetricsSnapshot {
    struct CounterValue {
        std::string name;
        MetricScope scope = MetricScope::sim;
        std::uint64_t value = 0;
    };
    struct GaugeValue {
        std::string name;
        MetricScope scope = MetricScope::sim;
        double value = 0.0;
    };
    /// Sparse HDR histogram state (bucket geometry is global, so cells +
    /// exact extrema reconstruct the full histogram; see obs/hdr.hpp).
    struct HdrValue {
        std::string name;
        MetricScope scope = MetricScope::sim;
        std::vector<HdrCell> cells;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;

        /// Dense form, for quantiles and rendering.
        [[nodiscard]] HdrHistogram dense() const;
    };

    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HdrValue> hdrs;

    [[nodiscard]] bool empty() const noexcept {
        return counters.empty() && gauges.empty() && hdrs.empty();
    }

    /// Sum `other` into this snapshot, matching entries by name (counters
    /// and gauges add; HDR histograms add bucket-wise).  Entries missing on either side are kept/appended, so
    /// merging per-trace snapshots yields the whole-experiment totals.
    void merge(const MetricsSnapshot& other);

    [[nodiscard]] const CounterValue* find_counter(std::string_view name) const noexcept;
    [[nodiscard]] const GaugeValue* find_gauge(std::string_view name) const noexcept;
    [[nodiscard]] const HdrValue* find_hdr(std::string_view name) const noexcept;

    [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept {
        const CounterValue* c = find_counter(name);
        return c == nullptr ? 0 : c->value;
    }
};

/// True when every `sim`-scoped metric matches exactly (names, order, and
/// values); `host`-scoped entries are ignored.  The metrics arm of the §9
/// determinism contract.
[[nodiscard]] bool deterministic_equal(const MetricsSnapshot& a, const MetricsSnapshot& b);

/// Name-addressed registry.  Lookup is a linear probe over registration
/// order (registries hold tens of metrics; hot-path call sites cache the
/// returned references instead of re-looking-up).
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Find-or-create.  Re-registering an existing name with the same kind
    /// returns the original instrument.  Registering a name already held by
    /// a *different* kind throws std::invalid_argument: two instruments
    /// sharing one name would silently shadow each other in snapshots and
    /// `/metrics` output.  `hdr` is the registry's only histogram.
    [[nodiscard]] Counter& counter(std::string_view name, MetricScope scope = MetricScope::sim);
    [[nodiscard]] Gauge& gauge(std::string_view name, MetricScope scope = MetricScope::sim);
    [[nodiscard]] HdrHistogram& hdr(std::string_view name,
                                    MetricScope scope = MetricScope::sim);

    [[nodiscard]] MetricsSnapshot snapshot() const;

private:
    template <typename T>
    struct Entry {
        std::string name;
        MetricScope scope;
        std::unique_ptr<T> instrument;
    };

    /// Throws std::invalid_argument when `name` is already registered
    /// under a kind other than `kind` (the anti-shadowing rule above).
    void reject_cross_kind(std::string_view name, std::string_view kind) const;

    std::vector<Entry<Counter>> counters_;
    std::vector<Entry<Gauge>> gauges_;
    std::vector<Entry<HdrHistogram>> hdrs_;
};

} // namespace rmwp::obs
