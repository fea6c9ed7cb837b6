// Live-telemetry tests (DESIGN.md §14): HDR histogram accuracy and merge
// algebra, stage-profiler transparency (decisions bit-identical with
// instrumentation on vs off), the Prometheus exposition checked by a strict
// parser, rotating trace shards with index round-trip, and the telemetry
// endpoint scraped end to end over a real socket — including through a
// signal-requested drain.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/heuristic_rm.hpp"
#include "obs/export.hpp"
#include "obs/hdr.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace_sink.hpp"
#include "obs/trace_stream.hpp"
#include "predict/online.hpp"
#include "predict/predictor.hpp"
#include "serve/serve.hpp"
#include "workload/catalog.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

// ---- helpers ----------------------------------------------------------

/// RAII temp directory under the test working directory.
struct TempDir {
    explicit TempDir(std::string name) : path(std::move(name)) {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

/// Blocking HTTP/1.0-style GET against 127.0.0.1:`port`; returns the whole
/// response (status line + headers + body) or an empty string when the
/// connection could not be established.
std::string http_get(int port, const std::string& target) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        close(fd);
        return {};
    }
    const std::string request = "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    const char* cursor = request.data();
    std::size_t left = request.size();
    while (left > 0) {
        const ssize_t wrote = write(fd, cursor, left);
        if (wrote <= 0) break;
        cursor += wrote;
        left -= static_cast<std::size_t>(wrote);
    }
    std::string response;
    char buffer[4096];
    while (true) {
        const ssize_t got = read(fd, buffer, sizeof buffer);
        if (got <= 0) break;
        response.append(buffer, static_cast<std::size_t>(got));
    }
    close(fd);
    return response;
}

std::string body_of(const std::string& response) {
    const auto split = response.find("\r\n\r\n");
    return split == std::string::npos ? std::string() : response.substr(split + 4);
}

/// Strict Prometheus text-format (0.0.4) checker.  Throws std::runtime_error
/// with the offending line on any violation:
///  * every line is a well-formed comment or `name[{labels}] value` sample;
///  * every sample belongs to a previously TYPEd family (counter samples
///    match the family name, histogram samples add _bucket/_sum/_count,
///    summary samples add quantile labels and _sum/_count);
///  * family names obey the metric grammar and are declared exactly once;
///  * histogram `le` buckets are cumulative and end with an +Inf bucket
///    equal to _count.
void check_prometheus_text(const std::string& text) {
    const auto fail = [](const std::string& why, const std::string& line) {
        throw std::runtime_error("prometheus: " + why + ": " + line);
    };
    const auto valid_name = [](const std::string& name) {
        if (name.empty()) return false;
        const auto ok = [](char c, bool first) {
            return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
                   (!first && std::isdigit(static_cast<unsigned char>(c)));
        };
        for (std::size_t k = 0; k < name.size(); ++k)
            if (!ok(name[k], k == 0)) return false;
        return true;
    };

    struct Family {
        std::string type;
        bool helped = false;
        double last_bucket = -1.0; ///< histogram: previous cumulative le count
        double inf_bucket = -1.0;  ///< histogram: the +Inf bucket count
        double count = -1.0;       ///< histogram: the _count sample
    };
    std::map<std::string, Family> families;

    const auto family_for = [&](const std::string& sample) -> std::pair<std::string, Family*> {
        // Longest-prefix match: the sample name is the family name itself or
        // family + one of the reserved suffixes.
        for (const char* suffix : {"", "_bucket", "_sum", "_count"}) {
            const std::string tail = suffix;
            if (sample.size() <= tail.size()) continue;
            if (sample.compare(sample.size() - tail.size(), tail.size(), tail) != 0) continue;
            const std::string base = sample.substr(0, sample.size() - tail.size());
            if (const auto it = families.find(base); it != families.end())
                return {tail, &it->second};
        }
        if (const auto it = families.find(sample); it != families.end())
            return {std::string(), &it->second};
        return {std::string(), nullptr};
    };

    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) fail("empty line", "(empty)");
        if (line.rfind("# HELP ", 0) == 0) {
            std::istringstream fields(line.substr(7));
            std::string name;
            if (!(fields >> name) || !valid_name(name)) fail("bad HELP", line);
            families[name].helped = true;
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream fields(line.substr(7));
            std::string name, type;
            if (!(fields >> name >> type) || !valid_name(name)) fail("bad TYPE", line);
            if (type != "counter" && type != "gauge" && type != "histogram" &&
                type != "summary" && type != "untyped")
                fail("unknown type", line);
            Family& family = families[name];
            if (!family.type.empty()) fail("family TYPEd twice", line);
            if (!family.helped) fail("TYPE without preceding HELP", line);
            family.type = type;
            continue;
        }
        if (line[0] == '#') fail("unknown comment", line);

        // Sample: name[{labels}] value
        const std::size_t brace = line.find('{');
        const std::size_t name_end = std::min(brace, line.find(' '));
        if (name_end == std::string::npos) fail("no value", line);
        const std::string name = line.substr(0, name_end);
        if (!valid_name(name)) fail("bad sample name", line);

        std::string labels;
        std::size_t value_at = name_end;
        if (brace != std::string::npos && brace == name_end) {
            const std::size_t close = line.find('}', brace);
            if (close == std::string::npos) fail("unterminated labels", line);
            labels = line.substr(brace + 1, close - brace - 1);
            value_at = close + 1;
        }
        if (value_at >= line.size() || line[value_at] != ' ') fail("no value separator", line);
        const std::string value_text = line.substr(value_at + 1);
        double value = 0.0;
        if (value_text == "+Inf") value = std::numeric_limits<double>::infinity();
        else if (value_text == "NaN") value = std::numeric_limits<double>::quiet_NaN();
        else {
            std::size_t used = 0;
            try {
                value = std::stod(value_text, &used);
            } catch (const std::exception&) {
                fail("unparsable value", line);
            }
            if (used != value_text.size()) fail("trailing junk after value", line);
        }

        const auto [suffix, family] = family_for(name);
        if (family == nullptr) fail("sample without TYPE", line);
        if (family->type == "counter" || family->type == "gauge" ||
            family->type == "untyped") {
            if (!suffix.empty()) fail("suffix on scalar family", line);
            if (family->type == "counter" && value < 0.0) fail("negative counter", line);
        } else if (family->type == "histogram") {
            if (suffix == "_bucket") {
                const std::size_t le = labels.find("le=\"");
                if (le == std::string::npos) fail("bucket without le", line);
                const std::size_t end = labels.find('"', le + 4);
                const std::string bound = labels.substr(le + 4, end - le - 4);
                if (value + 1e-9 < family->last_bucket)
                    fail("non-cumulative histogram buckets", line);
                family->last_bucket = value;
                if (bound == "+Inf") family->inf_bucket = value;
            } else if (suffix == "_count") {
                family->count = value;
            } else if (suffix != "_sum") {
                fail("bad histogram sample", line);
            }
        } else { // summary
            if (suffix.empty()) {
                if (labels.find("quantile=\"") == std::string::npos)
                    fail("summary sample without quantile", line);
            } else if (suffix != "_sum" && suffix != "_count") {
                fail("bad summary sample", line);
            }
        }
    }

    for (const auto& [name, family] : families) {
        if (family.type.empty()) throw std::runtime_error("prometheus: HELP without TYPE: " + name);
        if (family.type == "histogram") {
            if (family.inf_bucket < 0.0)
                throw std::runtime_error("prometheus: histogram without +Inf bucket: " + name);
            if (family.count >= 0.0 && family.inf_bucket != family.count)
                throw std::runtime_error("prometheus: +Inf bucket != _count: " + name);
        }
    }
}

// ---- HDR histogram ----------------------------------------------------

TEST(Hdr, QuantileAccuracyVsExactSortOnMillionSamples) {
    // Deterministic mixed workload: bulk uniform [1, 1e5) plus a heavy tail
    // up to ~5e8 ticks — covers linear buckets, mid groups, and high groups.
    std::vector<std::uint64_t> samples;
    samples.reserve(1'000'000);
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    obs::HdrHistogram hdr;
    for (int k = 0; k < 1'000'000; ++k) {
        std::uint64_t value = next() % 100'000 + 1;
        if (k % 1000 == 0) value = next() % 500'000'000 + 1'000'000; // tail
        samples.push_back(value);
        hdr.record(value);
    }
    ASSERT_EQ(hdr.count(), samples.size());

    std::vector<std::uint64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
        const std::size_t rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(sorted.size()))));
        const std::uint64_t exact = sorted[rank - 1];
        const std::uint64_t estimate = hdr.quantile(q);
        // The estimate is the upper bucket bound of the exact sample's
        // bucket (clamped to the recorded max): never below the truth and
        // at most one sub-bucket (~3.2 %) above it.
        EXPECT_GE(estimate, exact) << "q=" << q;
        EXPECT_LE(static_cast<double>(estimate), static_cast<double>(exact) * 1.032 + 1.0)
            << "q=" << q;
    }
    EXPECT_EQ(hdr.min(), sorted.front());
    EXPECT_EQ(hdr.max(), sorted.back());
    EXPECT_EQ(hdr.quantile(1.0), sorted.back()); // max is exact, not a bucket bound
}

TEST(Hdr, MergeIsAssociativeCommutativeAndMatchesDirectRecording) {
    obs::HdrHistogram a, b, c, direct;
    std::uint64_t value = 1;
    for (int k = 0; k < 3000; ++k) {
        value = value * 2862933555777941757ull + 3037000493ull;
        const std::uint64_t sample = value % 1'000'000;
        (k % 3 == 0 ? a : k % 3 == 1 ? b : c).record(sample);
        direct.record(sample);
    }

    obs::HdrHistogram left = a;  // (a + b) + c
    left.merge(b);
    left.merge(c);
    obs::HdrHistogram right = c; // a + (c + b) — exercises commutation too
    right.merge(b);
    right.merge(a);
    EXPECT_EQ(left, right);
    EXPECT_EQ(left, direct);
    EXPECT_EQ(left.count(), 3000u);
}

TEST(Hdr, CellsLoadRoundTrip) {
    obs::HdrHistogram dense;
    for (std::uint64_t v : {0ull, 1ull, 63ull, 64ull, 1000ull, 123456789ull})
        dense.record(v);
    obs::HdrHistogram reloaded;
    reloaded.load(dense.cells(), dense.sum(), dense.min(), dense.max());
    EXPECT_EQ(dense, reloaded);
}

// ---- registry validation (satellite) -----------------------------------

TEST(Metrics, RegistryRejectsCrossKindDuplicates) {
    obs::MetricsRegistry registry;
    obs::Counter& counter = registry.counter("x");
    EXPECT_EQ(&registry.counter("x"), &counter); // same-kind find-or-create stays
    EXPECT_THROW((void)registry.gauge("x"), std::invalid_argument);
    EXPECT_THROW((void)registry.hdr("x"), std::invalid_argument);

    obs::HdrHistogram& histogram = registry.hdr("h");
    EXPECT_EQ(&registry.hdr("h"), &histogram);
    EXPECT_THROW((void)registry.counter("h"), std::invalid_argument);
    EXPECT_THROW((void)registry.gauge("h"), std::invalid_argument);
}

// ---- stage profiler ----------------------------------------------------

TEST(StageTimer, HooksAreNoOpsWithoutAnInstalledBlock) {
    // No StageStatsScope: the macros must not crash and must record nowhere.
    RMWP_STAGE_SCOPE(obs::Stage::solve);
    RMWP_STAGE_VERDICT(prefilter_unknown);
    RMWP_STAGE_ARENA_BYTES(1234);
    SUCCEED();
}

#ifdef RMWP_OBS
TEST(StageTimer, ScopeCountsCallsAndSamplesEvery64th) {
    obs::StageStats stats;
    {
        obs::StageStatsScope scope(&stats);
        for (int k = 0; k < 200; ++k) {
            RMWP_STAGE_SCOPE(obs::Stage::solve);
        }
        RMWP_STAGE_VERDICT(prefilter_infeasible);
        RMWP_STAGE_VERDICT(prefilter_infeasible);
        RMWP_STAGE_VERDICT(prefilter_feasible);
        RMWP_STAGE_ARENA_BYTES(100);
        RMWP_STAGE_ARENA_BYTES(4096);
        RMWP_STAGE_ARENA_BYTES(50); // high-water: must not regress
        obs::stage_add_timed_ns(obs::Stage::decide, 1000);
    }
    const obs::StageStats::Cell& solve = stats.cell(obs::Stage::solve);
    EXPECT_EQ(solve.calls, 200u);
    EXPECT_EQ(solve.samples, 4u); // calls 0, 64, 128, 192
    EXPECT_EQ(stats.prefilter_infeasible, 2u);
    EXPECT_EQ(stats.prefilter_feasible, 1u);
    EXPECT_EQ(stats.prefilter_unknown, 0u);
    EXPECT_EQ(stats.arena_high_water_bytes, 4096u);
    EXPECT_EQ(stats.cell(obs::Stage::decide).calls, 1u);
    EXPECT_EQ(stats.estimated_ns(obs::Stage::decide), 1000u);
    // Uninstalled again: nothing moves.
    RMWP_STAGE_SCOPE(obs::Stage::solve);
    EXPECT_EQ(stats.cell(obs::Stage::solve).calls, 200u);
}
#endif

struct TelemetryWorld {
    Platform platform = [] {
        PlatformBuilder builder;
        builder.add_cpu("CPU1");
        builder.add_cpu("CPU2");
        builder.add_cpu("CPU3");
        builder.add_gpu("GPU");
        return builder.build();
    }();
    Catalog catalog = [this] {
        CatalogParams params;
        params.type_count = 20;
        Rng rng(11);
        return generate_catalog(platform, params, rng);
    }();
};

TEST(StageTimer, ServeDecisionsBitIdenticalWithProfilingOnVsOff) {
    const auto run = [](obs::StageStats* stats_out) {
        serve_clear_stop();
        TelemetryWorld world;
        SyntheticSourceParams params;
        params.seed = 21;
        SyntheticArrivalSource source(world.catalog, params);
        HeuristicRM rm;
        NullPredictor predictor;
        ServeConfig config;
        config.monitor = false;
        config.max_arrivals = 800;
        config.batch_window = 0.0; // exercise the batched path's prefilter too
        config.stage_stats_out = stats_out;
        return run_serve(world.platform, world.catalog, rm, predictor, nullptr, source,
                         config);
    };

    const ServeResult off = run(nullptr);
    obs::StageStats stats;
    const ServeResult on = run(&stats);

    // The profiler only ever writes to its own block: every deterministic
    // outcome must be bit-identical with it installed or not.
    EXPECT_EQ(describe_differences(on.result, off.result), "");
    EXPECT_EQ(on.arrivals, off.arrivals);

#ifdef RMWP_OBS
    EXPECT_GT(stats.cell(obs::Stage::decide).calls, 0u);
    EXPECT_GT(stats.cell(obs::Stage::solve).calls, 0u);
    EXPECT_GT(stats.cell(obs::Stage::batch_assemble).calls, 0u);
    // One schedule rebuild per decision: without faults or execution-time
    // variation this stream has no recovery or completion re-plans.
    EXPECT_EQ(stats.cell(obs::Stage::rebuild).calls, on.result.activations);
    EXPECT_GT(stats.prefilter_infeasible + stats.prefilter_feasible +
                  stats.prefilter_unknown,
              0u);
    EXPECT_GT(stats.arena_high_water_bytes, 0u);
#endif
}

// ---- work counts: the deterministic performance contract ----

#ifdef RMWP_OBS
/// The stage profile of one serve run shaped like perfbench's serve_vt:
/// the paper platform, the default 100-type catalog, one decision per
/// arrival with the online predictor.
obs::StageStats serve_vt_shaped_stages() {
    const Platform platform = make_paper_platform();
    Rng catalog_rng(42);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, catalog_rng);
    SyntheticSourceParams params;
    params.seed = 4;
    SyntheticArrivalSource source(catalog, params);
    HeuristicRM rm;
    OnlinePredictor predictor(catalog);
    obs::StageStats stages;
    ServeConfig config;
    config.monitor = false;
    config.max_arrivals = 1500;
    config.sim.execution_seed = 4;
    config.stage_stats_out = &stages;
    const ServeResult serve =
        run_serve(platform, catalog, rm, predictor, nullptr, source, config);
    EXPECT_EQ(serve.arrivals, 1500u);
    return stages;
}

/// The stage profile of one serve run shaped like perfbench's
/// islands_burst: 24 CPUs, 4 GPUs and a DVFS core dealt into four islands,
/// bursts of 8 same-instant arrivals decided by decide_batch over 4 shards,
/// prediction off.
obs::StageStats islands_burst_shaped_stages() {
    PlatformBuilder builder;
    for (int k = 0; k < 24; ++k) builder.add_cpu("CPU" + std::to_string(k));
    for (int k = 0; k < 4; ++k) builder.add_gpu("GPU" + std::to_string(k));
    builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    const Platform platform = builder.build();
    CatalogParams catalog_params;
    catalog_params.type_count = 32;
    Rng catalog_rng(42);
    const Catalog catalog = generate_partitioned_catalog(platform, catalog_params, 4, catalog_rng);
    SyntheticSourceParams params;
    params.seed = 4;
    params.interarrival_mean = 1.2;
    params.interarrival_stddev = 0.4;
    BurstSource source(catalog, params, 8);
    HeuristicRM rm;
    rm.set_shard_config({4});
    NullPredictor off;
    obs::StageStats stages;
    ServeConfig config;
    config.monitor = false;
    config.max_arrivals = 1600;
    config.batch_window = 0.0;
    config.sim.execution_seed = 4;
    config.stage_stats_out = &stages;
    const ServeResult serve = run_serve(platform, catalog, rm, off, nullptr, source, config);
    EXPECT_EQ(serve.arrivals, 1600u);
    return stages;
}
#endif

/// Stage call counts are deterministic, unlike timers, so a change that
/// claims to do less work per decision shows it here as a moved pin.  An
/// RMWP_AUDIT build does more work: its drift gate re-solves every sharded
/// instance whole (one extra solve per shard_solve), and its auditor
/// re-verifies plans through the prefilter and EDF simulation, so those
/// two are pinned in unaudited builds only.
TEST(StageTimer, WorkCountsPinnedOnPerfbenchShapedStreams) {
#ifndef RMWP_OBS
    GTEST_SKIP() << "RMWP_OBS=OFF compiles the stage counters out";
#else
#ifdef RMWP_AUDIT
    constexpr bool kAudited = true;
#else
    constexpr bool kAudited = false;
#endif
    struct Pin {
        const char* workload;
        obs::StageStats stages;
        std::uint64_t solve, shard_solve, prefilter, edf_simulate;
    };
    const Pin pins[] = {
        {"serve_vt", serve_vt_shaped_stages(), 1638, 0, 14905, 9000},
        {"islands_burst", islands_burst_shaped_stages(), 2694, 1600, 29704, 5800},
    };
    for (const Pin& pin : pins) {
        SCOPED_TRACE(pin.workload);
        EXPECT_EQ(pin.stages.cell(obs::Stage::solve).calls,
                  pin.solve + (kAudited ? pin.shard_solve : 0));
        EXPECT_EQ(pin.stages.cell(obs::Stage::shard_solve).calls, pin.shard_solve);
        if (kAudited) continue;
        EXPECT_EQ(pin.stages.cell(obs::Stage::prefilter).calls, pin.prefilter);
        EXPECT_EQ(pin.stages.cell(obs::Stage::edf_simulate).calls, pin.edf_simulate);
    }
#endif
}

// ---- Prometheus exposition --------------------------------------------

TEST(Prometheus, NameSanitiserMapsToGrammar) {
    EXPECT_EQ(obs::prometheus_name("reject.no_candidate_plan"), "reject_no_candidate_plan");
    EXPECT_EQ(obs::prometheus_name("busy_time.3"), "busy_time_3");
    EXPECT_EQ(obs::prometheus_name("9lives"), "_lives");
    EXPECT_EQ(obs::prometheus_name(""), "_");
}

TEST(Prometheus, RenderedRegistryPassesStrictChecker) {
    obs::MetricsRegistry registry;
    registry.counter("admit").add(41);
    registry.counter("reject.deadline").add(1);
    registry.gauge("busy_time.0").add(12.5);
    obs::HdrHistogram& plan = registry.hdr("plan_size");
    plan.record(1);
    plan.record(3);
    plan.record(100);
    obs::HdrHistogram& latency = registry.hdr("admission_ns", obs::MetricScope::host);
    for (std::uint64_t v = 1; v < 2000; v += 7) latency.record(v);

    obs::StageStats stages;
#ifdef RMWP_OBS
    {
        obs::StageStatsScope scope(&stages);
        for (int k = 0; k < 100; ++k) {
            RMWP_STAGE_SCOPE(obs::Stage::prefilter);
        }
        RMWP_STAGE_VERDICT(prefilter_feasible);
        RMWP_STAGE_ARENA_BYTES(777);
    }
#endif

    obs::PrometheusText text;
    obs::render_metrics(text, registry.snapshot(), "rmwp_engine_");
    obs::render_stage_stats(text, stages, "rmwp_");
    const std::string exposition = text.take();

    ASSERT_NO_THROW(check_prometheus_text(exposition)) << exposition;
    EXPECT_NE(exposition.find("rmwp_engine_admit_total 41"), std::string::npos);
    // plan_size is a summary like every histogram: no histogram family
    // remains, the three samples are counted, and the quantiles are exact
    // in the HDR's unit range (and clamped to the exact maximum above it).
    EXPECT_EQ(exposition.find(" histogram\n"), std::string::npos);
    EXPECT_NE(exposition.find("# TYPE rmwp_engine_plan_size summary\n"), std::string::npos);
    EXPECT_NE(exposition.find("rmwp_engine_plan_size{quantile=\"0.5\"} 3\n"),
              std::string::npos);
    EXPECT_NE(exposition.find("rmwp_engine_plan_size{quantile=\"0.9\"} 100\n"),
              std::string::npos);
    EXPECT_NE(exposition.find("rmwp_engine_plan_size{quantile=\"0.99\"} 100\n"),
              std::string::npos);
    EXPECT_NE(exposition.find("rmwp_engine_plan_size{quantile=\"0.999\"} 100\n"),
              std::string::npos);
    EXPECT_NE(exposition.find("rmwp_engine_plan_size_sum 104\n"), std::string::npos);
    EXPECT_NE(exposition.find("rmwp_engine_plan_size_count 3\n"), std::string::npos);
    EXPECT_NE(exposition.find("rmwp_engine_admission_ns{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(exposition.find("rmwp_stage_calls_total{stage=\"prefilter\"}"),
              std::string::npos);
    EXPECT_NE(exposition.find("rmwp_stage_calls_total{stage=\"rebuild\"}"),
              std::string::npos);
    // A malformed exposition must actually fail the checker (the checker is
    // load-bearing for the CI smoke job).
    EXPECT_THROW(check_prometheus_text("rmwp_untyped_metric 1\n"), std::runtime_error);
    EXPECT_THROW(check_prometheus_text("# TYPE bad_type foo\n"), std::runtime_error);
}

// ---- rotating trace shards ---------------------------------------------

TEST(TraceStream, RotatesShardsAndIndexRoundTrips) {
    TempDir dir("trace_stream_test_dir");
    obs::TraceStreamOptions options;
    options.max_events_per_shard = 100;
    obs::TraceStreamWriter writer(dir.path, options);
    for (int k = 0; k < 250; ++k) {
        obs::TraceEvent event;
        event.t_sim = static_cast<double>(k);
        event.kind = obs::EventKind::admit;
        event.task = static_cast<std::uint64_t>(k);
        event.resource = k % 4;
        writer.append(event);
    }
    writer.finish();
    EXPECT_EQ(writer.total_events(), 250u);
    EXPECT_EQ(writer.shard_count(), 3u); // 100 + 100 + 50

    const obs::TraceStreamIndex index = obs::TraceStreamIndex::load(dir.path);
    ASSERT_EQ(index.shards.size(), 3u);
    EXPECT_EQ(index.total_events, 250u);
    EXPECT_EQ(index.shards[0].events, 100u);
    EXPECT_EQ(index.shards[1].events, 100u);
    EXPECT_EQ(index.shards[2].events, 50u);
    EXPECT_EQ(index.shards[0].first_t_sim, 0.0);
    EXPECT_EQ(index.shards[0].last_t_sim, 99.0);
    EXPECT_EQ(index.shards[2].first_t_sim, 200.0);
    EXPECT_EQ(index.shards[2].last_t_sim, 249.0);

    // Shards parse back with the standard JSONL reader (byte-compatible
    // with write_events_jsonl) and cover the full event sequence in order.
    std::uint64_t replayed = 0;
    for (const auto& shard : index.shards) {
        std::ifstream in(dir.path + "/" + shard.file);
        ASSERT_TRUE(in.good()) << shard.file;
        const std::vector<obs::TraceEvent> events = obs::read_events_jsonl(in);
        ASSERT_EQ(events.size(), shard.events);
        for (const obs::TraceEvent& event : events) {
            EXPECT_EQ(event.t_sim, static_cast<double>(replayed));
            EXPECT_EQ(event.task, replayed);
            ++replayed;
        }
    }
    EXPECT_EQ(replayed, 250u);
}

TEST(TraceStream, RejectsDegenerateBudgetsAndSinkForwards) {
    obs::TraceStreamOptions zero;
    zero.max_events_per_shard = 0;
    EXPECT_THROW(obs::TraceStreamWriter("trace_stream_bad_dir", zero), std::runtime_error);

    TempDir dir("trace_stream_sink_dir");
    obs::TraceStreamWriter writer(dir.path);
    obs::TraceSink sink(8); // tiny ring: the stream must still see everything
    sink.set_stream(&writer);
    for (int k = 0; k < 40; ++k) sink.emit(static_cast<double>(k), obs::EventKind::arrival, k);
    sink.set_stream(nullptr);
    writer.finish();
    EXPECT_EQ(sink.dropped(), 32u);          // ring kept only the last 8
    EXPECT_EQ(writer.total_events(), 40u);   // the durable stream kept all 40
}

// ---- telemetry server end to end ---------------------------------------

TEST(TelemetryServer, ServesMetricsHealthzAnd404) {
    obs::TelemetryHandlers handlers;
    std::atomic<bool> healthy{true};
    handlers.metrics = [] {
        obs::PrometheusText text;
        text.family("demo_requests_total", "demo", "counter");
        text.sample("demo_requests_total", "", std::uint64_t{7});
        return text.take();
    };
    handlers.health = [&healthy] {
        return healthy.load() ? std::string() : std::string("invariant=broken");
    };
    obs::TelemetryServer server(0, handlers);
    ASSERT_GT(server.port(), 0);

    const std::string metrics = http_get(server.port(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
    ASSERT_NO_THROW(check_prometheus_text(body_of(metrics)));
    EXPECT_NE(body_of(metrics).find("demo_requests_total 7"), std::string::npos);

    EXPECT_NE(http_get(server.port(), "/healthz").find("HTTP/1.1 200"), std::string::npos);
    healthy.store(false);
    const std::string sick = http_get(server.port(), "/healthz");
    EXPECT_NE(sick.find("HTTP/1.1 503"), std::string::npos);
    EXPECT_NE(sick.find("invariant=broken"), std::string::npos);

    EXPECT_NE(http_get(server.port(), "/nope").find("HTTP/1.1 404"), std::string::npos);
    EXPECT_EQ(server.requests_served(), 4u);
    server.stop();
    server.stop(); // idempotent
}

TEST(ServeTelemetry, LiveScrapeAndSigtermDrainKeepExpositionWellFormed) {
    serve_clear_stop();
    TelemetryWorld world;
    SyntheticSourceParams params;
    params.seed = 33;
    SyntheticArrivalSource source(world.catalog, params); // endless
    HeuristicRM rm;
    NullPredictor predictor;
    obs::TraceSink sink;

    ServeConfig config;
    config.monitor = false;
    config.sim.sink = &sink;
    config.telemetry_port = 0;
    std::atomic<int> port{-1};
    config.telemetry_port_out = &port;
    // Slow the stream slightly in sim time so the run lasts until the stop
    // request regardless of scrape timing.
    config.decision_cost = 0.5;

    ServeResult result;
    std::thread serving([&] {
        result = run_serve(world.platform, world.catalog, rm, predictor, nullptr, source,
                           config);
    });

    // RMWP_LINT_ALLOW(R1): host-side wait for a real server thread to bind; no sim state involved
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (port.load(std::memory_order_acquire) < 0 &&
           // RMWP_LINT_ALLOW(R1): host-side wait for a real server thread to bind; no sim state involved
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(port.load(), 0);

    // Live scrapes: body must always pass the strict checker and carry the
    // serve gauges, the engine counters, and the latency summary.
    std::string last_body;
    for (int k = 0; k < 3; ++k) {
        const std::string response = http_get(port.load(), "/metrics");
        ASSERT_NE(response.find("HTTP/1.1 200"), std::string::npos);
        last_body = body_of(response);
        ASSERT_NO_THROW(check_prometheus_text(last_body)) << last_body;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_NE(last_body.find("rmwp_serve_arrivals_total"), std::string::npos);
    EXPECT_NE(last_body.find("rmwp_serve_backlog_depth"), std::string::npos);
    EXPECT_NE(last_body.find("rmwp_serve_ring_occupancy"), std::string::npos);
    EXPECT_NE(last_body.find("rmwp_serve_latency_us{quantile=\"0.999\"}"),
              std::string::npos);
#ifdef RMWP_OBS
    EXPECT_NE(last_body.find("rmwp_engine_admit_total"), std::string::npos);
    EXPECT_NE(last_body.find("rmwp_stage_calls_total{stage=\"decide\"}"),
              std::string::npos);
#endif
    EXPECT_NE(http_get(port.load(), "/healthz").find("HTTP/1.1 200"), std::string::npos);

    // Request the drain (what the SIGTERM handler does) and keep scraping:
    // every response until the socket closes must stay well-formed.
    serve_request_stop();
    int drained_scrapes = 0;
    while (true) {
        const std::string response = http_get(port.load(), "/metrics");
        if (response.empty()) break; // server stopped after the drain
        ASSERT_NE(response.find("HTTP/1.1 200"), std::string::npos);
        ASSERT_NO_THROW(check_prometheus_text(body_of(response)));
        ++drained_scrapes;
    }
    serving.join();
    serve_clear_stop();

    EXPECT_EQ(result.exit_code, 0);
    EXPECT_TRUE(result.stopped_by_signal);
    EXPECT_GE(result.telemetry_requests, static_cast<std::uint64_t>(4 + drained_scrapes));
    EXPECT_GT(result.arrivals, 0u);
    EXPECT_GT(result.latency_p999_us, 0.0);
}

} // namespace
} // namespace rmwp
