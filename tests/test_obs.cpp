// Tests for the observability layer (DESIGN.md §10): the TraceSink ring,
// the metrics registry, the Chrome/JSONL exporters (including parse-back
// round trips and fuzz-ish negative inputs), a golden pinned event sequence
// for the motivational scenario, and the layer's determinism contracts —
// tracing on/off never changes the simulated outcome, and per-trace
// artefacts are byte-identical for every jobs value.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/heuristic_rm.hpp"
#include "core/reservation.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace_sink.hpp"
#include "predict/predictor.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"
#include "workload/trace_io.hpp"

namespace rmwp {
namespace {

// ---- TraceSink ring buffer ----

TEST(TraceSink, RecordsEverythingBelowCapacity) {
    obs::TraceSink sink(16);
    sink.emit(1.0, obs::EventKind::arrival, 7, 2, 42.0, 3);
    ASSERT_EQ(sink.events().size(), 1u);
    const obs::TraceEvent event = sink.events().front();
    EXPECT_EQ(event.t_sim, 1.0);
    EXPECT_EQ(event.kind, obs::EventKind::arrival);
    EXPECT_EQ(event.task, 7u);
    EXPECT_EQ(event.resource, 2);
    EXPECT_EQ(event.detail, 42.0);
    EXPECT_EQ(event.aux, 3u);
    EXPECT_GE(event.t_host, 0.0); // stamped by the sink
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingWraparoundKeepsNewestOldestFirst) {
    obs::TraceSink sink(8);
    EXPECT_EQ(sink.capacity(), 8u);
    for (int i = 0; i < 20; ++i)
        sink.emit(static_cast<double>(i), obs::EventKind::exec, static_cast<std::uint64_t>(i));
    EXPECT_EQ(sink.total_emitted(), 20u);
    EXPECT_EQ(sink.dropped(), 12u);
    const std::vector<obs::TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 8u);
    // The retained window is the 8 newest events, oldest first: 12..19.
    for (std::size_t k = 0; k < events.size(); ++k) {
        EXPECT_EQ(events[k].t_sim, static_cast<double>(12 + k));
        EXPECT_EQ(events[k].task, static_cast<std::uint64_t>(12 + k));
    }
}

// ---- metrics registry ----

TEST(Metrics, HistogramBucketsAreRightClosed) {
    // The registry's histogram is the HDR: unit-width buckets below 64,
    // then 32 per power of two, each right-closed at its upper bound —
    // bucket 64 holds 63 < v <= 65, bucket 65 holds 65 < v <= 67.
    obs::MetricsRegistry registry;
    obs::HdrHistogram& h = registry.hdr("h");
    h.record(1);
    h.record(1); // unit bucket: counted exactly
    h.record(63);
    h.record(64); // bucket 64
    h.record(65); // bucket 64: right-closed at its upper bound
    h.record(66); // bucket 65
    const std::vector<obs::HdrCell> cells = h.cells();
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0], (obs::HdrCell{1, 2}));
    EXPECT_EQ(cells[1], (obs::HdrCell{63, 1}));
    EXPECT_EQ(cells[2], (obs::HdrCell{64, 2}));
    EXPECT_EQ(cells[3], (obs::HdrCell{65, 1}));
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 1u + 1u + 63u + 64u + 65u + 66u);
    EXPECT_EQ(h.quantile(0.5), 63u);  // rank 3: exact in the unit range
    EXPECT_EQ(h.quantile(0.8), 65u);  // rank 5: bucket 64's upper bound
    EXPECT_EQ(h.quantile(1.0), 66u);  // clamped to the exact maximum
}

TEST(Metrics, RegistryFindsOrCreatesAndSnapshotsInRegistrationOrder) {
    obs::MetricsRegistry registry;
    obs::Counter& a = registry.counter("a");
    obs::Gauge& g = registry.gauge("g");
    obs::Counter& b = registry.counter("b");
    a.add(2);
    b.add(5);
    g.add(1.5);
    // Re-registration returns the same instrument, not a fresh one.
    EXPECT_EQ(&registry.counter("a"), &a);
    EXPECT_EQ(&registry.gauge("g"), &g);
    registry.counter("a").add();

    const obs::MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].name, "a");
    EXPECT_EQ(snap.counters[0].value, 3u);
    EXPECT_EQ(snap.counters[1].name, "b");
    EXPECT_EQ(snap.counters[1].value, 5u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
    EXPECT_EQ(snap.counter_value("a"), 3u);
    EXPECT_EQ(snap.counter_value("missing"), 0u);
    EXPECT_FALSE(snap.empty());
}

TEST(Metrics, MergeSumsByNameAndAppendsMissing) {
    obs::MetricsRegistry ra;
    ra.counter("x").add(2);
    ra.gauge("busy").add(1.25);
    ra.hdr("h").record(1);
    obs::MetricsRegistry rb;
    rb.counter("x").add(3);
    rb.counter("y").add(1);
    rb.gauge("busy").add(0.75);
    rb.hdr("h").record(2);

    obs::MetricsSnapshot merged = ra.snapshot();
    merged.merge(rb.snapshot());
    EXPECT_EQ(merged.counter_value("x"), 5u);
    EXPECT_EQ(merged.counter_value("y"), 1u);
    const obs::MetricsSnapshot::GaugeValue* busy = merged.find_gauge("busy");
    ASSERT_NE(busy, nullptr);
    EXPECT_DOUBLE_EQ(busy->value, 2.0);
    const obs::MetricsSnapshot::HdrValue* h = merged.find_hdr("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2u);
    EXPECT_EQ(h->cells, (std::vector<obs::HdrCell>{{1, 1}, {2, 1}}));
    EXPECT_EQ(h->sum, 3u);
    EXPECT_EQ(h->min, 1u);
    EXPECT_EQ(h->max, 2u);
}

TEST(Metrics, DeterministicEqualIgnoresHostScope) {
    obs::MetricsRegistry ra;
    ra.counter("sim_events").add(4);
    ra.hdr("latency_ns", obs::MetricScope::host).record(3);
    obs::MetricsRegistry rb;
    rb.counter("sim_events").add(4);
    rb.hdr("latency_ns", obs::MetricScope::host).record(9999);

    EXPECT_TRUE(obs::deterministic_equal(ra.snapshot(), rb.snapshot()));
    rb.counter("sim_events").add(); // sim-scoped divergence must be caught
    EXPECT_FALSE(obs::deterministic_equal(ra.snapshot(), rb.snapshot()));
}

TEST(Metrics, JsonExportSummarisesEveryHdr) {
    obs::MetricsRegistry registry;
    registry.counter("admit").add(7);
    registry.gauge("busy_time.0").add(2.5);
    obs::HdrHistogram& plan = registry.hdr("plan_size");
    for (std::uint64_t v = 1; v <= 10; ++v) plan.record(v);
    obs::HdrHistogram& latency = registry.hdr("admission_latency_ns", obs::MetricScope::host);
    latency.record(1000);
    latency.record(250000);
    const obs::MetricsSnapshot snapshot = registry.snapshot();

    const obs::JsonValue doc = obs::json_parse(obs::metrics_json(snapshot).dump(2));
    EXPECT_EQ(doc.find("counters")->find("admit")->as_uint64(), 7u);
    EXPECT_EQ(doc.find("gauges")->find("busy_time.0")->as_number(), 2.5);
    const obs::JsonValue* histograms = doc.find("histograms");
    ASSERT_NE(histograms, nullptr);
    ASSERT_EQ(histograms->as_object().size(), 2u);
    // Every HDR carries the quantile set /metrics renders, in this order.
    const std::vector<std::string> keys = {"count", "sum", "min", "max",
                                           "p50",   "p90", "p99", "p999"};
    for (const auto& [name, h] : histograms->as_object()) {
        SCOPED_TRACE(name);
        const obs::HdrHistogram dense = snapshot.find_hdr(name)->dense();
        std::vector<std::string> names;
        for (const auto& member : h.as_object()) names.push_back(member.first);
        EXPECT_EQ(names, keys);
        EXPECT_EQ(h.find("count")->as_uint64(), dense.count());
        EXPECT_EQ(h.find("sum")->as_uint64(), dense.sum());
        EXPECT_EQ(h.find("p99")->as_uint64(), dense.quantile(0.99));
        EXPECT_EQ(h.find("p999")->as_uint64(), dense.quantile(0.999));
    }
    // Unit buckets make the plan-size summary exact.
    const obs::JsonValue* p = histograms->find("plan_size");
    EXPECT_EQ(p->find("sum")->as_uint64(), 55u);
    EXPECT_EQ(p->find("min")->as_uint64(), 1u);
    EXPECT_EQ(p->find("max")->as_uint64(), 10u);
    EXPECT_EQ(p->find("p50")->as_uint64(), 5u);
    EXPECT_EQ(p->find("p90")->as_uint64(), 9u);
    EXPECT_EQ(p->find("p99")->as_uint64(), 10u);
}

// ---- the JSON writer ----

TEST(JsonWriter, CompactAndIndentedOutputParseBackIdentical) {
    obs::JsonValue items = obs::JsonValue::array();
    items.push(1).push(-2).push(0.25).push("x");
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("null", nullptr)
        .set("flag", false)
        .set("u64_max", std::numeric_limits<std::uint64_t>::max())
        .set("i64_min", std::numeric_limits<std::int64_t>::min())
        .set("third", 1.0 / 3.0)
        .set("huge", 1.7976931348623157e308)
        .set("tiny", std::numeric_limits<double>::denorm_min())
        .set("control", "quote\" backslash\\ nl\n tab\t bell\x07 unit\x1f")
        .set("empty_array", obs::JsonValue::array())
        .set("empty_object", obs::JsonValue::object())
        .set("items", std::move(items));

    const std::string compact = doc.dump();
    EXPECT_EQ(compact,
              R"({"null":null,"flag":false,"u64_max":18446744073709551615,)"
              R"("i64_min":-9223372036854775808,"third":0.33333333333333331,)"
              R"("huge":1.7976931348623157e+308,"tiny":4.9406564584124654e-324,)"
              R"("control":"quote\" backslash\\ nl\n tab\t bell\u0007 unit\u001f",)"
              R"("empty_array":[],"empty_object":{},"items":[1,-2,0.25,"x"]})");
    const std::string indented = doc.dump(2);
    EXPECT_NE(indented.find("{\n  \"null\": null,\n  \"flag\": false,"), std::string::npos)
        << indented;
    EXPECT_NE(indented.find("\"items\": [\n    1,\n    -2,"), std::string::npos) << indented;
    // Integers, doubles and strings all come back exactly: re-writing the
    // parsed document reproduces the same bytes.
    EXPECT_EQ(obs::json_parse(compact).dump(), compact);
    EXPECT_EQ(obs::json_parse(indented).dump(), compact);
    EXPECT_EQ(obs::json_parse(indented).dump(2), indented);
}

TEST(JsonWriter, NonFiniteNumbersAreWrittenAsNull) {
    obs::JsonValue doc = obs::JsonValue::array();
    doc.push(std::numeric_limits<double>::quiet_NaN())
        .push(std::numeric_limits<double>::infinity())
        .push(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(doc.dump(), "[null,null,null]");
}

// ---- the motivational scenario, fully instrumented ----

struct MiniWorld {
    Platform platform = make_motivational_platform();
    Catalog catalog = make_motivational_catalog(1.0, 0.5);
};

/// Run scenario (a) of Fig 1 (tau_2 must be rejected) with a sink attached.
std::vector<obs::TraceEvent> motivational_events(obs::TraceSink& sink, TraceResult* result_out) {
    const MiniWorld world;
    const Trace trace({Request{0.0, 0, 8.0}, Request{1.0, 1, 5.0}});
    HeuristicRM rm;
    NullPredictor off;
    SimOptions options;
    options.sink = &sink;
    const TraceResult result =
        simulate_trace(world.platform, world.catalog, trace, rm, off, options);
    if (result_out != nullptr) *result_out = result;
    return sink.events();
}

[[maybe_unused]] std::string dump(const std::vector<obs::TraceEvent>& events) {
    std::ostringstream out;
    for (const obs::TraceEvent& event : events) {
        out << to_string(event.kind) << " t=" << event.t_sim << " task=";
        if (event.task == obs::kNoTask) out << "-";
        else out << event.task;
        out << " resource=" << event.resource << " detail=" << event.detail
            << " aux=" << event.aux << "\n";
    }
    return out.str();
}

// The next tests need the engine's recording hooks, which -DRMWP_OBS=OFF
// compiles out entirely (the zero-cost contract): no events can be emitted,
// so the golden sequences are meaningful only in observability builds.
#ifdef RMWP_OBS
TEST(GoldenEvents, MotivationalScenarioPinnedSequence) {
    obs::TraceSink sink;
    TraceResult result;
    const std::vector<obs::TraceEvent> actual = motivational_events(sink, &result);
    ASSERT_EQ(result.accepted, 1u);
    ASSERT_EQ(result.rejected, 1u);
    EXPECT_EQ(sink.dropped(), 0u);

    // The exact deterministic event sequence of the motivational scenario.
    // A change here is a change to the simulator's observable behaviour and
    // must be deliberate.
    struct Expected {
        obs::EventKind kind;
        double t_sim;
        std::uint64_t task;
        std::int64_t resource;
        double detail;
        std::uint32_t aux;
    };
    const std::vector<Expected> expected = {
        // t=0: tau_1 arrives (deadline 8), admitted onto the GPU (resource
        // 2, the energy-greedy pick), schedule built for 1 task.
        {obs::EventKind::arrival, 0.0, 0, obs::kNoResource, 8.0, 0},
        {obs::EventKind::admit, 0.0, 0, 2, 0.0, 0},
        {obs::EventKind::plan_rebuild, 0.0, obs::kNoTask, obs::kNoResource, 1.0, 0},
        // t=1: tau_2 arrives (deadline 6); execution first advances 0->1
        // (one executed slice of tau_1 on the GPU), then the RM exhausts
        // its placements (reason code heuristic_exhausted = 2).
        {obs::EventKind::arrival, 1.0, 1, obs::kNoResource, 6.0, 0},
        {obs::EventKind::exec, 0.0, 0, 2, 1.0, 0},
        {obs::EventKind::reject, 1.0, 1, obs::kNoResource, 0.0,
         static_cast<std::uint32_t>(RejectReason::heuristic_exhausted)},
        {obs::EventKind::plan_rebuild, 1.0, obs::kNoTask, obs::kNoResource, 1.0, 0},
        // t=5: tau_1's remaining slice 1->5 executes and it completes.
        {obs::EventKind::exec, 1.0, 0, 2, 4.0, 0},
        {obs::EventKind::complete, 5.0, 0, 2, 0.0, 0},
    };

    ASSERT_EQ(actual.size(), expected.size()) << "actual sequence:\n" << dump(actual);
    for (std::size_t k = 0; k < expected.size(); ++k) {
        const obs::TraceEvent& a = actual[k];
        const Expected& e = expected[k];
        EXPECT_EQ(a.kind, e.kind) << "event " << k << "\n" << dump(actual);
        EXPECT_EQ(a.t_sim, e.t_sim) << "event " << k << "\n" << dump(actual);
        EXPECT_EQ(a.task, e.task) << "event " << k << "\n" << dump(actual);
        EXPECT_EQ(a.resource, e.resource) << "event " << k << "\n" << dump(actual);
        EXPECT_EQ(a.detail, e.detail) << "event " << k << "\n" << dump(actual);
        EXPECT_EQ(a.aux, e.aux) << "event " << k << "\n" << dump(actual);
    }

    // The snapshot embedded in the TraceResult mirrors the stream.
    EXPECT_EQ(result.obs_metrics.counter_value("admit"), 1u);
    EXPECT_EQ(result.obs_metrics.counter_value("reject.heuristic_exhausted"), 1u);
    EXPECT_EQ(result.obs_metrics.counter_value("complete"), 1u);
    EXPECT_EQ(result.obs_metrics.counter_value("plan_rebuild"), 2u);
    const obs::MetricsSnapshot::GaugeValue* busy = result.obs_metrics.find_gauge("busy_time.2");
    ASSERT_NE(busy, nullptr);
    EXPECT_DOUBLE_EQ(busy->value, 5.0);
    const obs::MetricsSnapshot::HdrValue* plan = result.obs_metrics.find_hdr("plan_size");
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->count, 2u); // one per RM decision
}

TEST(GoldenEvents, ReservationWindowEmitsPreemptEvent) {
    // A critical reservation in the middle of the only executable resource's
    // timeline splits the adaptive task's execution — the planned preemption
    // must surface as a preempt event between two adjacent exec slices.
    const MiniWorld world;
    const std::size_t n = 3;
    std::vector<std::vector<double>> cm(n, std::vector<double>(n, 1.0));
    std::vector<std::vector<double>> em(n, std::vector<double>(n, 0.5));
    for (std::size_t i = 0; i < n; ++i) cm[i][i] = em[i][i] = 0.0;
    std::vector<TaskType> types;
    types.emplace_back(0, std::vector<double>{8.0, kNotExecutable, kNotExecutable},
                       std::vector<double>{7.3, kNotExecutable, kNotExecutable}, cm, em);
    const Catalog catalog(std::move(types));

    const Trace trace({Request{0.0, 0, 30.0}});
    const ReservationTable reservations(
        {CriticalTask{"ctrl", 0, /*period=*/100.0, /*offset=*/2.0, /*duration=*/3.0, 1.0}});
    HeuristicRM rm;
    NullPredictor off;
    obs::TraceSink sink;
    SimOptions options;
    options.sink = &sink;
    const TraceResult result =
        simulate_trace(world.platform, catalog, trace, rm, off, reservations, options);
    ASSERT_EQ(result.completed, 1u);

    // Execution: [0,2) task, [2,5) reserved, [5,11) task — one preemption.
    std::vector<obs::TraceEvent> exec_slices;
    std::size_t preempts = 0;
    for (const obs::TraceEvent& event : sink.events()) {
        if (event.kind == obs::EventKind::exec) exec_slices.push_back(event);
        if (event.kind == obs::EventKind::preempt) {
            ++preempts;
            EXPECT_EQ(event.t_sim, 2.0);
            EXPECT_EQ(event.task, 0u);
            EXPECT_EQ(event.resource, 0);
        }
    }
    EXPECT_EQ(preempts, 1u);
    ASSERT_EQ(exec_slices.size(), 2u);
    EXPECT_EQ(exec_slices[0].t_sim, 0.0);
    EXPECT_EQ(exec_slices[0].detail, 2.0);
    EXPECT_EQ(exec_slices[1].t_sim, 5.0);
    EXPECT_EQ(exec_slices[1].detail, 6.0);
    EXPECT_EQ(result.obs_metrics.counter_value("preempt"), 1u);
}

// ---- exporters: well-formedness and round trips ----

TEST(Exporters, ChromeTraceParsesBackAsValidTraceEventJson) {
    obs::TraceSink sink;
    const std::vector<obs::TraceEvent> events = motivational_events(sink, nullptr);

    obs::ExportOptions options;
    options.resource_names = {"CPU", "FPGA", "GPU"};
    std::ostringstream out;
    obs::write_chrome_trace(out, events, options);

    const obs::JsonValue document = obs::json_parse(out.str());
    ASSERT_TRUE(document.is_object());
    const obs::JsonValue* trace_events = document.find("traceEvents");
    ASSERT_NE(trace_events, nullptr);
    ASSERT_TRUE(trace_events->is_array());
    EXPECT_FALSE(trace_events->as_array().empty());

    std::size_t complete_spans = 0;
    std::size_t instants = 0;
    std::size_t metadata = 0;
    for (const obs::JsonValue& record : trace_events->as_array()) {
        ASSERT_TRUE(record.is_object());
        const obs::JsonValue* ph = record.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_TRUE(ph->is_string());
        const std::string& kind = ph->as_string();
        if (kind == "X") {
            ++complete_spans;
            EXPECT_NE(record.find("dur"), nullptr);
        } else if (kind == "i") {
            ++instants;
        } else if (kind == "M") {
            ++metadata;
        } else {
            FAIL() << "unexpected phase " << kind;
        }
        EXPECT_NE(record.find("tid"), nullptr);
    }
    EXPECT_EQ(complete_spans, 2u); // the two executed slices of tau_1
    EXPECT_GE(instants, 4u);       // arrivals, admit, reject, rebuilds, complete
    EXPECT_EQ(metadata, 4u);       // RM lane + three named resource lanes
}
#endif // RMWP_OBS

TEST(Exporters, ChromeTraceDrawsFaultSpans) {
    // Synthetic stream: an outage with recovery and a permanent failure
    // without one (the span must run to the stream horizon).
    std::vector<obs::TraceEvent> events(4);
    events[0] = {2.0, 0.0, obs::kNoTask, 0, 1.0, 0, obs::EventKind::fault_onset};
    events[1] = {4.0, 0.0, obs::kNoTask, 0, 1.0, 0, obs::EventKind::fault_recovery};
    events[2] = {5.0, 0.0, obs::kNoTask, 1, 1.0, 1, obs::EventKind::fault_onset};
    events[3] = {9.0, 0.0, 3, 0, 1.5, 0, obs::EventKind::exec};

    std::ostringstream out;
    obs::write_chrome_trace(out, events, obs::ExportOptions{});
    const obs::JsonValue document = obs::json_parse(out.str());
    const obs::JsonValue* trace_events = document.find("traceEvents");
    ASSERT_NE(trace_events, nullptr);

    bool outage_seen = false;
    bool permanent_seen = false;
    for (const obs::JsonValue& record : trace_events->as_array()) {
        const obs::JsonValue* name = record.find("name");
        if (name == nullptr || !name->is_string()) continue;
        if (name->as_string() == "OUTAGE") {
            outage_seen = true;
            EXPECT_DOUBLE_EQ(record.find("ts")->as_number(), 2000.0);
            EXPECT_DOUBLE_EQ(record.find("dur")->as_number(), 2000.0);
        }
        if (name->as_string() == "PERMANENT FAILURE") {
            permanent_seen = true;
            EXPECT_DOUBLE_EQ(record.find("ts")->as_number(), 5000.0);
            // Runs to the horizon: the last event sits at t=9ms + 1.5ms? No —
            // the horizon is the latest event timestamp (9ms).
            EXPECT_DOUBLE_EQ(record.find("dur")->as_number(), 4000.0);
        }
    }
    EXPECT_TRUE(outage_seen);
    EXPECT_TRUE(permanent_seen);
}

TEST(Exporters, JsonlRoundTripPreservesDeterministicFields) {
    obs::TraceSink sink;
    const std::vector<obs::TraceEvent> events = motivational_events(sink, nullptr);

    std::ostringstream out;
    obs::write_events_jsonl(out, events, obs::ExportOptions{});
    std::istringstream in(out.str());
    const std::vector<obs::TraceEvent> reread = obs::read_events_jsonl(in);
    ASSERT_EQ(reread.size(), events.size());
    for (std::size_t k = 0; k < events.size(); ++k)
        EXPECT_TRUE(events[k].deterministic_equal(reread[k])) << "event " << k;
}

TEST(Exporters, JsonlRoundTripCanCarryHostTime) {
    obs::TraceSink sink;
    sink.emit(1.0, obs::EventKind::arrival, 0);
    const std::vector<obs::TraceEvent> events = sink.events();

    obs::ExportOptions options;
    options.include_host_time = true;
    std::ostringstream out;
    obs::write_events_jsonl(out, events, options);
    EXPECT_NE(out.str().find("t_host"), std::string::npos);
    std::istringstream in(out.str());
    const std::vector<obs::TraceEvent> reread = obs::read_events_jsonl(in);
    ASSERT_EQ(reread.size(), 1u);
    EXPECT_EQ(reread[0].t_host, events[0].t_host); // %.17g round-trips doubles
}

TEST(Exporters, SanitizeLabelKeepsOnlyFilenameSafeCharacters) {
    EXPECT_EQ(obs::sanitize_label("heuristic/noisy a=0.8"), "heuristic-noisy-a-0.8");
    EXPECT_EQ(obs::sanitize_label("plain_OK-1.2"), "plain_OK-1.2");
}

// ---- tracing on/off and jobs-count determinism ----

ExperimentConfig small_config(std::uint64_t seed = 42) {
    ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, seed);
    config.trace_count = 4;
    config.trace.length = 30;
    config.fault.outage_rate = 0.004;
    config.fault.throttle_rate = 0.004;
    config.fault.permanent_prob = 0.2;
    return config;
}

PredictorSpec noisy_predictor() {
    PredictorSpec predictor;
    predictor.kind = PredictorSpec::Kind::noisy;
    predictor.type_accuracy = 0.8;
    predictor.time_nrmse = 0.2;
    return predictor;
}

#ifdef RMWP_OBS
TEST(ObsDeterminism, TracingOnAndOffAreBitIdentical) {
    const ExperimentConfig config = small_config();
    ExperimentRunner plain(config, 1);
    ExperimentRunner traced(config, 1);
    ObsOptions obs;
    obs.collect_metrics = true;
    traced.set_obs(obs);

    const RunSpec spec{RmKind::heuristic, noisy_predictor()};
    const RunOutcome off = plain.run(spec);
    const RunOutcome on = traced.run(spec);
    ASSERT_EQ(off.per_trace.size(), on.per_trace.size());
    for (std::size_t t = 0; t < off.per_trace.size(); ++t) {
        EXPECT_EQ(describe_differences(off.per_trace[t], on.per_trace[t]), "")
            << "trace " << t << " differs between tracing off and on";
        EXPECT_TRUE(off.per_trace[t].obs_metrics.empty());
        EXPECT_FALSE(on.per_trace[t].obs_metrics.empty());
    }
}
#endif // RMWP_OBS

TEST(ObsDeterminism, MetricsSnapshotsIdenticalAcrossJobsCounts) {
    const ExperimentConfig config = small_config(7);
    ObsOptions obs;
    obs.collect_metrics = true;
    ExperimentRunner serial(config, 1);
    serial.set_obs(obs);
    ExperimentRunner parallel(config, 8);
    parallel.set_obs(obs);

    const RunSpec spec{RmKind::heuristic, noisy_predictor()};
    const RunOutcome a = serial.run(spec);
    const RunOutcome b = parallel.run(spec);
    ASSERT_EQ(a.per_trace.size(), b.per_trace.size());
    for (std::size_t t = 0; t < a.per_trace.size(); ++t)
        EXPECT_TRUE(obs::deterministic_equal(a.per_trace[t].obs_metrics,
                                             b.per_trace[t].obs_metrics))
            << "sim-scoped metrics differ at trace " << t;
}

std::map<std::string, std::string> read_directory(const std::filesystem::path& dir) {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream content;
        content << in.rdbuf();
        files[entry.path().filename().string()] = content.str();
    }
    return files;
}

TEST(ObsDeterminism, ArtefactFilesAreByteIdenticalAcrossJobsCounts) {
    const ExperimentConfig config = small_config(11);
    const std::filesystem::path base =
        std::filesystem::path(::testing::TempDir()) / "rmwp_obs_artefacts";
    std::filesystem::remove_all(base);

    const RunSpec spec{RmKind::heuristic, noisy_predictor()};
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        ExperimentRunner runner(config, jobs);
        ObsOptions obs;
        obs.trace_dir = (base / ("jobs" + std::to_string(jobs))).string();
        obs.jsonl = true; // chrome stays on too
        runner.set_obs(obs);
        (void)runner.run(spec);
    }

    const auto serial = read_directory(base / "jobs1");
    const auto parallel = read_directory(base / "jobs8");
    // One Chrome trace + one JSONL file per trace cell, for both runs.
    ASSERT_EQ(serial.size(), 2 * config.trace_count);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto& [name, content] : serial) {
        const auto other = parallel.find(name);
        ASSERT_NE(other, parallel.end()) << "missing artefact " << name;
        EXPECT_EQ(content, other->second) << "artefact " << name << " differs across jobs";
    }
    std::filesystem::remove_all(base);
}

// ---- differential test: the event stream vs the TraceResult ----

[[maybe_unused]] std::size_t count_kind(const std::vector<obs::TraceEvent>& events,
                                        obs::EventKind kind) {
    std::size_t n = 0;
    for (const obs::TraceEvent& event : events)
        if (event.kind == kind) ++n;
    return n;
}

#ifdef RMWP_OBS
/// The ObsDifferential world: VT paper platform, faults, noisy predictor at
/// 0.2 overhead, two 60-request traces per seed.  `busier` raises the
/// outage and throttle rates and adds a critical reservation on resource 0,
/// so faults also recover and planned preemptions occur.
struct DifferentialWorld {
    DifferentialWorld(std::uint64_t world_seed, bool busier)
        : seed(world_seed),
          config([&] {
              ExperimentConfig c = ExperimentConfig::paper(DeadlineGroup::very_tight, world_seed);
              c.trace.length = 60;
              c.fault.outage_rate = busier ? 0.5 : 0.006;
              c.fault.throttle_rate = busier ? 0.5 : 0.004;
              c.fault.permanent_prob = 0.3;
              return c;
          }()),
          platform(config.make_platform()),
          catalog([&] {
              Rng catalog_rng = Rng(world_seed).derive(100);
              return generate_catalog(platform, config.catalog, catalog_rng);
          }()),
          traces(generate_traces(catalog, config.trace, 2, Rng(world_seed).derive(101))),
          reservations(busier
                           ? std::vector<CriticalTask>{CriticalTask{"ctrl", 0, 50.0, 2.0, 3.0, 1.0}}
                           : std::vector<CriticalTask>{}) {}

    /// Simulate trace `t` with faults over its horizon, recording into `sink`.
    [[nodiscard]] TraceResult run(std::size_t t, obs::TraceSink& sink) const {
        const Trace& trace = traces.at(t);
        Time horizon = 0.0;
        for (const Request& request : trace)
            horizon = std::max(horizon, request.absolute_deadline());
        Rng fault_rng = Rng(seed).derive(200 + t);
        const FaultSchedule faults =
            generate_fault_schedule(platform, config.fault, horizon, fault_rng);
        HeuristicRM rm;
        PredictorSpec spec = noisy_predictor();
        spec.overhead = 0.2; // overhead stalls make aborts reachable
        const std::unique_ptr<Predictor> predictor =
            make_predictor(spec, catalog, Rng(seed).derive(300 + t));
        SimOptions options;
        options.fault_schedule = &faults;
        options.sink = &sink;
        return simulate_trace(platform, catalog, trace, rm, *predictor, reservations, options);
    }

    std::uint64_t seed;
    ExperimentConfig config;
    Platform platform;
    Catalog catalog;
    std::vector<Trace> traces;
    ReservationTable reservations;
};

TEST(ObsDifferential, EventStreamRecomputesTraceResultFigures) {
    // Randomised seeded scenarios with faults and rescue: everything the
    // TraceResult reports about admissions, completions, aborts, migrations
    // and faults must be recomputable from the event stream alone, and the
    // counters must agree with both.
    std::uint64_t busier_recoveries = 0;
    for (const bool busier : {false, true}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(std::string(busier ? "busier " : "") + "seed " + std::to_string(seed));
            const DifferentialWorld world(seed, busier);
            const Platform& platform = world.platform;

            for (std::size_t t = 0; t < world.traces.size(); ++t) {
                SCOPED_TRACE("trace " + std::to_string(t));
                obs::TraceSink sink; // default 65536-slot ring
                const TraceResult result = world.run(t, sink);
                ASSERT_EQ(sink.dropped(), 0u) << "ring too small for a differential check";
                const std::vector<obs::TraceEvent> events = sink.events();
                const obs::MetricsSnapshot& metrics = result.obs_metrics;

                // Admission outcomes: events == counters == TraceResult.
                EXPECT_EQ(count_kind(events, obs::EventKind::admit), result.accepted);
                EXPECT_EQ(count_kind(events, obs::EventKind::reject), result.rejected);
                EXPECT_EQ(count_kind(events, obs::EventKind::complete), result.completed);
                EXPECT_EQ(count_kind(events, obs::EventKind::abort_overhead), result.aborted);
                EXPECT_EQ(count_kind(events, obs::EventKind::rescue_abort), result.fault_aborted);
                EXPECT_EQ(count_kind(events, obs::EventKind::migrate), result.migrations);
                EXPECT_EQ(count_kind(events, obs::EventKind::rescue_begin),
                          result.rescue_activations);
                EXPECT_EQ(count_kind(events, obs::EventKind::fault_onset),
                          result.resource_outages + result.throttle_events);
                const std::size_t recoveries = count_kind(events, obs::EventKind::fault_recovery);
                EXPECT_EQ(recoveries, metrics.counter_value("fault.recovery"));
                if (busier) busier_recoveries += recoveries;
                EXPECT_EQ(metrics.counter_value("admit"), result.accepted);
                EXPECT_EQ(metrics.counter_value("complete"), result.completed);
                EXPECT_EQ(metrics.counter_value("abort_overhead"), result.aborted);
                EXPECT_EQ(metrics.counter_value("rescue.abort"), result.fault_aborted);
                EXPECT_EQ(metrics.counter_value("migrate"), result.migrations);
                EXPECT_EQ(metrics.counter_value("rescue.activation"), result.rescue_activations);

                // Rejection reasons: the per-reason counters partition the total.
                std::uint64_t reject_total = 0;
                for (std::size_t r = 0; r < kRejectReasonCount; ++r)
                    reject_total += metrics.counter_value(
                        std::string("reject.") + to_string(static_cast<RejectReason>(r)));
                EXPECT_EQ(reject_total, result.rejected);

                // Rescued = tasks a rescue kept after displacement (aux flag).
                std::size_t rescued = 0;
                for (const obs::TraceEvent& event : events)
                    if (event.kind == obs::EventKind::rescue_keep && event.aux == 1u) ++rescued;
                EXPECT_EQ(rescued, result.rescued);

                // Per-resource busy time: the gauges add exactly the slice
                // durations the exec events carry, in the same order, so the
                // recomputed sums are bit-identical (not just close).
                std::vector<double> busy(platform.size(), 0.0);
                for (const obs::TraceEvent& event : events)
                    if (event.kind == obs::EventKind::exec)
                        busy[static_cast<std::size_t>(event.resource)] += event.detail;
                for (ResourceId i = 0; i < platform.size(); ++i) {
                    const obs::MetricsSnapshot::GaugeValue* gauge =
                        metrics.find_gauge("busy_time." + std::to_string(i));
                    ASSERT_NE(gauge, nullptr);
                    EXPECT_EQ(busy[i], gauge->value) << "resource " << i;
                }

                // The plan-size histogram saw exactly one sample per RM decision
                // that reached the RM (deadline-passed pre-checks never do).
                const obs::MetricsSnapshot::HdrValue* plan = metrics.find_hdr("plan_size");
                ASSERT_NE(plan, nullptr);
                const std::uint64_t deadline_rejects =
                    metrics.counter_value("reject.deadline_passed");
                EXPECT_EQ(plan->count + deadline_rejects, result.requests);
            }
        }
    }
    // The busier world exercises fault recovery, not only onsets.
    EXPECT_GT(busier_recoveries, 0u);
}

// ---- golden registry layout: names, scopes, order and sim counter values ----

/// One run of the ObsDifferential world (see DifferentialWorld).
obs::MetricsSnapshot differential_world_metrics(std::uint64_t seed, std::size_t t, bool busier) {
    obs::TraceSink sink;
    return DifferentialWorld(seed, busier).run(t, sink).obs_metrics;
}

/// The two rejections no trace run produces: one request shed by serve
/// backpressure and one whose deadline passes before its wake-up.
obs::MetricsSnapshot shed_and_doomed_metrics() {
    const ExperimentConfig config = ExperimentConfig::paper(DeadlineGroup::very_tight, 1);
    const Platform platform = config.make_platform();
    Rng catalog_rng = Rng(1).derive(100);
    const Catalog catalog = generate_catalog(platform, config.catalog, catalog_rng);
    HeuristicRM rm;
    NullPredictor off;
    obs::TraceSink sink;
    SimOptions options;
    options.sink = &sink;
    SimEngine engine(platform, catalog, rm, off, nullptr, options);
    engine.stream_shed(Request{0.0, 0, 5.0}, 0);
    const StreamArrival doomed[] = {{Request{0.0, 0, 5.0}, 1}};
    engine.stream_arrival_batch(doomed, 10.0);
    return engine.finish_stream().obs_metrics;
}

template <typename Entries>
std::vector<std::pair<std::string, obs::MetricScope>> layout_of(const Entries& entries) {
    std::vector<std::pair<std::string, obs::MetricScope>> layout;
    for (const auto& entry : entries) layout.emplace_back(entry.name, entry.scope);
    return layout;
}

TEST(ObsGolden, RegistryLayoutAndCountersPinned) {
    // Recorded once and frozen.  The registry an engine run exposes (and so
    // the `/metrics` families and `--stats-json` keys derived from it) is
    // part of the interface, and the sim-scope counter totals pin the
    // event-to-metric mapping of every counted event kind.
    constexpr obs::MetricScope sim = obs::MetricScope::sim;
    const std::vector<std::pair<std::string, obs::MetricScope>> counters = {
        {"admit", sim},
        {"reject.none", sim},
        {"reject.deadline_passed", sim},
        {"reject.heuristic_exhausted", sim},
        {"reject.proved_infeasible", sim},
        {"reject.solver_infeasible", sim},
        {"reject.baseline_no_fit", sim},
        {"reject.overload", sim},
        {"preempt", sim},
        {"migrate", sim},
        {"complete", sim},
        {"abort_overhead", sim},
        {"plan_rebuild", sim},
        {"rescue.activation", sim},
        {"rescue.keep", sim},
        {"rescue.abort", sim},
        {"fault.onset", sim},
        {"fault.recovery", sim},
        {"sink.events_total", sim},
        {"sink.dropped", sim},
    };
    const std::vector<std::pair<std::string, obs::MetricScope>> gauges = {
        {"sink.ring_occupancy", sim}, {"busy_time.0", sim}, {"busy_time.1", sim},
        {"busy_time.2", sim},         {"busy_time.3", sim}, {"busy_time.4", sim},
        {"busy_time.5", sim},
    };
    const std::vector<std::pair<std::string, obs::MetricScope>> hdrs = {
        {"plan_size", sim},
        {"admission_latency_ns", obs::MetricScope::host},
    };
    const std::map<std::string, std::uint64_t> totals = {
        {"abort_overhead", 20},
        {"admit", 650},
        {"complete", 623},
        {"fault.onset", 29},
        {"fault.recovery", 12},
        {"migrate", 43},
        {"plan_rebuild", 762},
        {"preempt", 6},
        {"reject.baseline_no_fit", 0},
        {"reject.deadline_passed", 1},
        {"reject.heuristic_exhausted", 70},
        {"reject.none", 0},
        {"reject.overload", 1},
        {"reject.proved_infeasible", 0},
        {"reject.solver_infeasible", 0},
        {"rescue.abort", 7},
        {"rescue.activation", 29},
        {"rescue.keep", 179},
        {"sink.dropped", 0},
        {"sink.events_total", 5181},
    };

    std::vector<obs::MetricsSnapshot> runs;
    for (const bool busier : {false, true})
        for (const std::uint64_t seed : {1u, 2u, 3u})
            for (const std::size_t t : {std::size_t{0}, std::size_t{1}})
                runs.push_back(differential_world_metrics(seed, t, busier));
    runs.push_back(shed_and_doomed_metrics());

    obs::MetricsSnapshot merged;
    for (std::size_t k = 0; k < runs.size(); ++k) {
        SCOPED_TRACE("run " + std::to_string(k));
        EXPECT_EQ(layout_of(runs[k].counters), counters);
        EXPECT_EQ(layout_of(runs[k].gauges), gauges);
        EXPECT_EQ(layout_of(runs[k].hdrs), hdrs);
        merged.merge(runs[k]);
    }

    std::map<std::string, std::uint64_t> recorded;
    for (const obs::MetricsSnapshot::CounterValue& counter : merged.counters)
        if (counter.scope == sim) recorded[counter.name] = counter.value;
    EXPECT_EQ(recorded, totals);

    // Every counted event kind and every reachable reject reason fires, so
    // the totals above pin each mapping, not only the zeros.
    for (const char* name :
         {"admit", "reject.deadline_passed", "reject.heuristic_exhausted", "reject.overload",
          "preempt", "migrate", "complete", "abort_overhead", "plan_rebuild",
          "rescue.activation", "rescue.keep", "rescue.abort", "fault.onset", "fault.recovery"})
        EXPECT_GT(merged.counter_value(name), 0u) << name;
}
#endif // RMWP_OBS

// ---- fuzz-ish negative inputs: parsers must fail loudly, never crash ----

TEST(ObsNegative, JsonParserRejectsMalformedInputWithPositions) {
    const char* bad[] = {
        "",
        "{",
        "[1,2",
        "{\"a\":}",
        "tru",
        "\"unterminated",
        "{} trailing",
        "{\"a\":1,}",
        "[1 2]",
        "1e",
        "\"bad\\q\"",
        "{\"a\" 1}",
        "nan",
        // RFC 8259 number grammar: no leading zeros, digits on both sides
        // of '.', digits after the exponent marker.
        ".5",
        "1.",
        "01",
        "-.5",
        "-01",
        "1.e3",
        "00",
    };
    for (const char* input : bad) {
        SCOPED_TRACE(std::string("input: ") + input);
        try {
            (void)obs::json_parse(input);
            FAIL() << "malformed input parsed successfully";
        } catch (const obs::json_error& error) {
            EXPECT_GE(error.line(), 1u);
            EXPECT_GE(error.column(), 1u);
            EXPECT_NE(std::string(error.what()).find("json error at"), std::string::npos);
        }
    }
    // The strict grammar still takes every well-formed number.
    EXPECT_EQ(obs::json_parse("0").as_uint64(), 0u);
    EXPECT_TRUE(std::signbit(obs::json_parse("-0").as_number()));
    EXPECT_EQ(obs::json_parse("0.5").as_number(), 0.5);
    EXPECT_EQ(obs::json_parse("1e-3").as_number(), 1e-3);
    EXPECT_EQ(obs::json_parse("1E+2").as_number(), 100.0);
    EXPECT_EQ(obs::json_parse("5e-324").as_number(), std::numeric_limits<double>::denorm_min());
    EXPECT_THROW((void)obs::json_parse("1e400"), obs::json_error); // overflow
    // Errors point at the offending line, not just "somewhere".
    try {
        (void)obs::json_parse("{\n  \"a\": ?\n}");
        FAIL() << "must throw";
    } catch (const obs::json_error& error) {
        EXPECT_EQ(error.line(), 2u);
    }
}

void expect_jsonl_error(const std::string& input, const std::string& needle) {
    std::istringstream in(input);
    try {
        (void)obs::read_events_jsonl(in);
        FAIL() << "malformed jsonl accepted: " << input;
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
            << "message was: " << error.what();
    }
}

TEST(ObsNegative, JsonlReaderNamesTheOffendingLine) {
    const std::string good =
        R"({"t_sim":1,"kind":"arrival","task":0,"resource":null,"detail":0,"aux":0})";
    expect_jsonl_error(good + "\n" + R"({"t_sim":2,"kind":"arr)", "line 2");
    expect_jsonl_error("42", "line 1");
    expect_jsonl_error(R"({"t_sim":1,"kind":"warp","task":0,"resource":null,"detail":0,"aux":0})",
                       "unknown event kind");
    expect_jsonl_error(R"({"t_sim":1,"kind":"exec","task":-3,"resource":0,"detail":0,"aux":0})",
                       "task");
    expect_jsonl_error(R"({"t_sim":1,"kind":"exec","task":0,"resource":0,"detail":0,"aux":1.5})",
                       "aux");
    expect_jsonl_error(R"({"kind":"exec","task":0,"resource":0,"detail":0,"aux":0})", "t_sim");
    expect_jsonl_error(good + "\n\n" + "[]", "line 3"); // blank lines are skipped, not counted out
}

TEST(ObsNegative, TraceAndCatalogCsvReadersRejectGarbage) {
    const char* bad_traces[] = {
        "not,a,header\n0,0,1\n",
        "arrival,type,relative_deadline\n0,0\n",
        "arrival,type,relative_deadline\nzero,0,1\n",
        "arrival,type,relative_deadline\n-1,0,1\n",
        "arrival,type,relative_deadline\n5,0,1\n1,0,1\n",
        "arrival,type,relative_deadline\n0,0,inf\n",
    };
    for (const char* input : bad_traces) {
        SCOPED_TRACE(std::string("trace csv: ") + input);
        std::istringstream in(input);
        try {
            (void)read_trace_csv(in);
            FAIL() << "malformed trace accepted";
        } catch (const std::runtime_error& error) {
            EXPECT_FALSE(std::string(error.what()).empty());
        }
    }

    const char* bad_catalogs[] = {
        "garbage\n",
        "type,resource,wcet,energy\n0,0\n",
        "type,resource,wcet,energy\n0,0,abc,1\n",
    };
    for (const char* input : bad_catalogs) {
        SCOPED_TRACE(std::string("catalog csv: ") + input);
        std::istringstream in(input);
        try {
            (void)read_catalog_csv(in);
            FAIL() << "malformed catalog accepted";
        } catch (const std::runtime_error& error) {
            EXPECT_FALSE(std::string(error.what()).empty());
        }
    }
}

} // namespace
} // namespace rmwp
