#include "obs/metrics.hpp"

#include <stdexcept>

namespace rmwp::obs {

namespace {

template <typename Entries>
[[nodiscard]] auto* find_by_name(Entries& entries, std::string_view name) noexcept {
    for (auto& entry : entries)
        if (entry.name == name) return &entry;
    return static_cast<decltype(&entries.front())>(nullptr);
}

} // namespace

void MetricsRegistry::reject_cross_kind(std::string_view name, std::string_view kind) const {
    const auto held_as = [&](std::string_view other_kind) {
        throw std::invalid_argument("obs: metric '" + std::string(name) +
                                    "' is already registered as a " + std::string(other_kind) +
                                    "; re-registering it as a " + std::string(kind) +
                                    " would shadow it");
    };
    if (kind != "counter" && find_by_name(counters_, name) != nullptr) held_as("counter");
    if (kind != "gauge" && find_by_name(gauges_, name) != nullptr) held_as("gauge");
    if (kind != "hdr histogram" && find_by_name(hdrs_, name) != nullptr)
        held_as("hdr histogram");
}

Counter& MetricsRegistry::counter(std::string_view name, MetricScope scope) {
    if (auto* entry = find_by_name(counters_, name)) return *entry->instrument;
    reject_cross_kind(name, "counter");
    counters_.push_back({std::string(name), scope, std::make_unique<Counter>()});
    return *counters_.back().instrument;
}

Gauge& MetricsRegistry::gauge(std::string_view name, MetricScope scope) {
    if (auto* entry = find_by_name(gauges_, name)) return *entry->instrument;
    reject_cross_kind(name, "gauge");
    gauges_.push_back({std::string(name), scope, std::make_unique<Gauge>()});
    return *gauges_.back().instrument;
}

HdrHistogram& MetricsRegistry::hdr(std::string_view name, MetricScope scope) {
    if (auto* entry = find_by_name(hdrs_, name)) return *entry->instrument;
    reject_cross_kind(name, "hdr histogram");
    hdrs_.push_back({std::string(name), scope, std::make_unique<HdrHistogram>()});
    return *hdrs_.back().instrument;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& entry : counters_)
        snap.counters.push_back({entry.name, entry.scope, entry.instrument->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto& entry : gauges_)
        snap.gauges.push_back({entry.name, entry.scope, entry.instrument->value()});
    snap.hdrs.reserve(hdrs_.size());
    for (const auto& entry : hdrs_)
        snap.hdrs.push_back({entry.name, entry.scope, entry.instrument->cells(),
                             entry.instrument->count(), entry.instrument->sum(),
                             entry.instrument->min(), entry.instrument->max()});
    return snap;
}

HdrHistogram MetricsSnapshot::HdrValue::dense() const {
    HdrHistogram out;
    out.load(cells, sum, min, max);
    return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
    for (const CounterValue& theirs : other.counters) {
        if (auto* mine = find_by_name(counters, theirs.name)) mine->value += theirs.value;
        else counters.push_back(theirs);
    }
    for (const GaugeValue& theirs : other.gauges) {
        if (auto* mine = find_by_name(gauges, theirs.name)) mine->value += theirs.value;
        else gauges.push_back(theirs);
    }
    for (const HdrValue& theirs : other.hdrs) {
        auto* mine = find_by_name(hdrs, theirs.name);
        if (mine == nullptr) {
            hdrs.push_back(theirs);
            continue;
        }
        // The shared fixed geometry makes the merge a sparse bucket-wise
        // sum; route it through the dense form to keep cells ordered.
        HdrHistogram merged = mine->dense();
        merged.merge(theirs.dense());
        mine->cells = merged.cells();
        mine->count = merged.count();
        mine->sum = merged.sum();
        mine->min = merged.min();
        mine->max = merged.max();
    }
}

const MetricsSnapshot::CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const noexcept {
    return find_by_name(counters, name);
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::find_gauge(
    std::string_view name) const noexcept {
    return find_by_name(gauges, name);
}

const MetricsSnapshot::HdrValue* MetricsSnapshot::find_hdr(
    std::string_view name) const noexcept {
    return find_by_name(hdrs, name);
}

bool deterministic_equal(const MetricsSnapshot& a, const MetricsSnapshot& b) {
    // Sim-scoped entries must match in order, name, and exact value: the
    // registration sequence itself is part of the deterministic behaviour.
    const auto sim_counters = [](const MetricsSnapshot& s) {
        std::vector<const MetricsSnapshot::CounterValue*> out;
        for (const auto& c : s.counters)
            if (c.scope == MetricScope::sim) out.push_back(&c);
        return out;
    };
    const auto ca = sim_counters(a);
    const auto cb = sim_counters(b);
    if (ca.size() != cb.size()) return false;
    for (std::size_t i = 0; i < ca.size(); ++i)
        if (ca[i]->name != cb[i]->name || ca[i]->value != cb[i]->value) return false;

    const auto sim_gauges = [](const MetricsSnapshot& s) {
        std::vector<const MetricsSnapshot::GaugeValue*> out;
        for (const auto& g : s.gauges)
            if (g.scope == MetricScope::sim) out.push_back(&g);
        return out;
    };
    const auto ga = sim_gauges(a);
    const auto gb = sim_gauges(b);
    if (ga.size() != gb.size()) return false;
    for (std::size_t i = 0; i < ga.size(); ++i)
        if (ga[i]->name != gb[i]->name || ga[i]->value != gb[i]->value) return false;

    const auto sim_hdrs = [](const MetricsSnapshot& s) {
        std::vector<const MetricsSnapshot::HdrValue*> out;
        for (const auto& h : s.hdrs)
            if (h.scope == MetricScope::sim) out.push_back(&h);
        return out;
    };
    const auto da = sim_hdrs(a);
    const auto db = sim_hdrs(b);
    if (da.size() != db.size()) return false;
    for (std::size_t i = 0; i < da.size(); ++i) {
        if (da[i]->name != db[i]->name || da[i]->cells != db[i]->cells ||
            da[i]->count != db[i]->count || da[i]->sum != db[i]->sum ||
            da[i]->min != db[i]->min || da[i]->max != db[i]->max)
            return false;
    }
    return true;
}

} // namespace rmwp::obs
