// Serve-mode tests (DESIGN.md §11): arrival sources, the runtime invariant
// monitor, overload shedding, graceful signal drains, and crash-safe
// checkpoint/restore.
//
// The two load-bearing equivalences:
//   * serve with decision_cost = 0 and an unbounded backlog produces the
//     same TraceResult as the batch simulator on the same arrivals;
//   * snapshot -> restore -> replay is bit-identical (modulo host-time
//     fields) to the uninterrupted run, with faults, shedding, and the
//     online predictor all active.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/heuristic_rm.hpp"
#include "obs/json.hpp"
#include "predict/online.hpp"
#include "predict/predictor.hpp"
#include "serve/serve.hpp"
#include "sim/simulator.hpp"
#include "workload/catalog.hpp"
#include "workload/trace_generator.hpp"
#include "workload/trace_io.hpp"

namespace rmwp {
namespace {

struct ServeWorld {
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

/// RAII temp file in the test working directory.
struct TempFile {
    explicit TempFile(std::string name) : path(std::move(name)) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

ServeConfig quiet_config() {
    ServeConfig config;
    config.monitor = false; // most tests exercise the loop, not the thread
    return config;
}

// ---- arrival sources ----

TEST(SyntheticSource, DeterministicAcrossInstances) {
    ServeWorld world;
    SyntheticSourceParams params;
    params.seed = 5;
    SyntheticArrivalSource a(world.catalog, params);
    SyntheticArrivalSource b(world.catalog, params);
    Time last_arrival = 0.0;
    for (int k = 0; k < 500; ++k) {
        const auto ra = a.next();
        const auto rb = b.next();
        ASSERT_TRUE(ra.has_value());
        ASSERT_TRUE(rb.has_value());
        EXPECT_EQ(ra->type, rb->type);
        EXPECT_EQ(ra->arrival, rb->arrival);
        EXPECT_EQ(ra->relative_deadline, rb->relative_deadline);
        EXPECT_GE(ra->arrival, last_arrival);
        last_arrival = ra->arrival;
    }
}

TEST(SyntheticSource, SeekIsRandomAccess) {
    ServeWorld world;
    SyntheticSourceParams params;
    params.seed = 5;
    SyntheticArrivalSource reference(world.catalog, params);
    for (int k = 0; k < 200; ++k) (void)reference.next();
    const SourceCursor cursor = reference.cursor();

    // A fresh source seeked to the cursor continues with identical draws —
    // no replay of the first 200 requests needed.
    SyntheticArrivalSource seeked(world.catalog, params);
    seeked.seek(cursor);
    for (int k = 0; k < 100; ++k) {
        const auto expected = reference.next();
        const auto got = seeked.next();
        ASSERT_TRUE(expected.has_value() && got.has_value());
        EXPECT_EQ(expected->type, got->type);
        EXPECT_EQ(expected->arrival, got->arrival);
        EXPECT_EQ(expected->relative_deadline, got->relative_deadline);
    }
}

TEST(SyntheticSource, CountBoundsTheStream) {
    ServeWorld world;
    SyntheticSourceParams params;
    params.count = 7;
    SyntheticArrivalSource source(world.catalog, params);
    int delivered = 0;
    while (source.next().has_value()) ++delivered;
    EXPECT_EQ(delivered, 7);
    EXPECT_FALSE(source.next().has_value());
}

TEST(CsvSources, MalformedMidStreamLinesAreSkippedWithWarnings) {
    std::istringstream csv("arrival,type,relative_deadline\n"
                           "0.0,0,40.0\n"
                           "not,a,number\n"
                           "5.0,1,35.0\n"
                           "9.0,99999,30.0\n" // unknown type is the engine's concern, parses fine
                           "12.0,2\n"         // missing field
                           "15.0,3,20.0\n");
    std::vector<std::string> warnings;
    CsvPipeSource source(csv, [&warnings](const std::string& w) { warnings.push_back(w); });
    std::vector<Request> delivered;
    while (auto request = source.next()) delivered.push_back(*request);
    EXPECT_EQ(delivered.size(), 4u);
    EXPECT_EQ(source.parse_errors(), 2u);
    ASSERT_EQ(warnings.size(), 2u);
    EXPECT_NE(warnings[0].find("line 3"), std::string::npos);
    EXPECT_NE(warnings[1].find("line 6"), std::string::npos);
}

TEST(CsvSources, FileSourceSeekReplaysWithoutDuplicateWarnings) {
    TempFile file("serve_seek_trace.csv");
    {
        std::ofstream out(file.path);
        out << "arrival,type,relative_deadline\n";
        out << "0.0,0,40.0\n";
        out << "garbage line\n";
        out << "4.0,1,35.0\n";
        out << "8.0,0,30.0\n";
    }
    std::vector<std::string> warnings;
    CsvFileSource source(file.path, [&warnings](const std::string& w) { warnings.push_back(w); });
    (void)source.next();
    (void)source.next(); // crosses the malformed line: one warning
    EXPECT_EQ(warnings.size(), 1u);
    const SourceCursor cursor = source.cursor();
    EXPECT_EQ(cursor.seq, 2u);

    source.seek(cursor);
    // The replay re-crossed the malformed line silently.
    EXPECT_EQ(warnings.size(), 1u);
    EXPECT_EQ(source.parse_errors(), 1u);
    const auto request = source.next();
    ASSERT_TRUE(request.has_value());
    EXPECT_DOUBLE_EQ(request->arrival, 8.0);

    SourceCursor past;
    past.seq = 100;
    EXPECT_THROW(source.seek(past), std::runtime_error);
}

// ---- serve == batch differential ----

TEST(Serve, MatchesBatchSimulatorOnTheSameArrivals) {
    ServeWorld world;
    TraceGenParams gen;
    gen.length = 400;
    Rng gen_rng(23);
    const Trace generated = generate_trace(world.catalog, gen, gen_rng);
    TempFile file("serve_differential_trace.csv");
    write_trace_csv_file(file.path, generated);
    // Both sides read the file back, so CSV rounding cannot split them.
    const Trace trace = read_trace_csv_file(file.path);

    // WCET-exact execution, then execution-time variation: both front-ends
    // draw task j's actual work from Rng(execution_seed).derive(j).
    for (const double factor_min : {1.0, 0.7}) {
        SCOPED_TRACE(factor_min);
        SimOptions options;
        options.execution_seed = 7;
        options.execution_time_factor_min = factor_min;
        HeuristicRM batch_rm;
        NullPredictor batch_predictor;
        const TraceResult batch = simulate_trace(world.platform, world.catalog, trace, batch_rm,
                                                 batch_predictor, options);

        CsvFileSource source(file.path);
        HeuristicRM serve_rm;
        NullPredictor serve_predictor;
        ServeConfig config = quiet_config();
        config.sim = options;
        const ServeResult serve = run_serve(world.platform, world.catalog, serve_rm,
                                            serve_predictor, nullptr, source, config);

        EXPECT_EQ(serve.exit_code, 0);
        EXPECT_EQ(serve.arrivals, trace.size());
        EXPECT_EQ(serve.shed, 0u);
        EXPECT_EQ(describe_differences(batch, serve.result), "");
    }
}

// ---- engine: completion tolerance ----

/// Replays a pre-generated arrival list.
class VectorSource final : public ArrivalSource {
public:
    explicit VectorSource(std::vector<Request> arrivals) : arrivals_(std::move(arrivals)) {}

    [[nodiscard]] std::optional<Request> next() override {
        if (next_ == arrivals_.size()) return std::nullopt;
        return arrivals_[next_++];
    }
    [[nodiscard]] bool seekable() const noexcept override { return false; }
    [[nodiscard]] SourceCursor cursor() const noexcept override { return {}; }
    void seek(const SourceCursor&) override { throw std::runtime_error("not seekable"); }

private:
    std::vector<Request> arrivals_;
    std::size_t next_ = 0;
};

// The engine's completion tolerance may retire a task a little before its
// planned slice ends (here a GPU task, 2.57e-7 ms early, at another task's
// completion event).  The plan must be refreshed before the clock moves on:
// walking the retired task's stale tail used to throw from advance().
TEST(Serve, TaskRetiredBeforeItsSliceClosesDoesNotStrandThePlan) {
    PlatformBuilder builder;
    for (int k = 0; k < 24; ++k) builder.add_cpu("CPU" + std::to_string(k));
    for (int k = 0; k < 4; ++k) builder.add_gpu("GPU" + std::to_string(k));
    builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    const Platform platform = builder.build();
    CatalogParams catalog_params;
    catalog_params.type_count = 32;
    Rng catalog_rng(42);
    const Catalog catalog =
        generate_partitioned_catalog(platform, catalog_params, 4, catalog_rng);

    SyntheticSourceParams params;
    params.seed = 2011;
    params.count = 1611;
    params.interarrival_mean = 1.2;
    params.interarrival_stddev = 0.4;
    SyntheticArrivalSource synthetic(catalog, params);
    std::vector<Request> arrivals;
    while (std::optional<Request> request = synthetic.next()) arrivals.push_back(*request);
    // Bursts: every 8 consecutive arrivals share the first one's instant.
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        arrivals[i].arrival = arrivals[i - i % 8].arrival;
    ASSERT_EQ(arrivals.size(), 1611u);

    VectorSource source(arrivals);
    HeuristicRM rm;
    NullPredictor predictor;
    const ServeConfig config = quiet_config();
    ServeResult serve;
    ASSERT_NO_THROW(serve = run_serve(platform, catalog, rm, predictor, nullptr, source, config));
    EXPECT_EQ(serve.exit_code, 0);
    EXPECT_EQ(serve.arrivals, arrivals.size());
    EXPECT_EQ(serve.result.deadline_misses, 0u);
    EXPECT_EQ(serve.result.completed, serve.result.accepted);
}

// ---- overload protection ----

TEST(Serve, OverloadSheddingIsDeterministicAndBounded) {
    ServeWorld world;
    const auto run_once = [&world] {
        SyntheticSourceParams params;
        params.seed = 3;
        SyntheticArrivalSource source(world.catalog, params);
        HeuristicRM rm;
        NullPredictor predictor;
        ServeConfig config = quiet_config();
        config.max_arrivals = 800;
        // Decider slower than the ~6ms mean interarrival: the backlog
        // saturates and shedding must engage.
        config.decision_cost = 9.0;
        config.max_pending = 5;
        return run_serve(world.platform, world.catalog, rm, predictor, nullptr, source, config);
    };
    const ServeResult first = run_once();
    const ServeResult second = run_once();

    EXPECT_GT(first.shed, 0u);
    EXPECT_EQ(first.shed, second.shed);
    EXPECT_EQ(describe_differences(first.result, second.result), "");
    // Shed requests are full citizens of the accounting: counted as
    // requests, counted as rejected.
    EXPECT_EQ(first.result.requests, first.arrivals);
    EXPECT_GE(first.result.rejected, first.shed);
    EXPECT_EQ(first.result.accepted + first.result.rejected, first.result.requests);
}

// ---- checkpoint / restore ----

struct ServeRunParts {
    ServeWorld world;
    HeuristicRM rm;
    OnlinePredictor predictor;
    SyntheticArrivalSource source;

    explicit ServeRunParts(std::uint64_t source_seed = 9)
        : predictor(world.catalog), source(world.catalog, [source_seed] {
              SyntheticSourceParams params;
              params.seed = source_seed;
              return params;
          }()) {}
};

ServeConfig checkpoint_config() {
    ServeConfig config;
    config.monitor = false;
    config.decision_cost = 0.4;
    config.max_pending = 6;
    config.faults.outage_rate = 0.3;
    config.faults.throttle_rate = 0.2;
    config.fault_seed = 17;
    config.fault_chunk = 500.0;
    config.sim.execution_seed = 21;
    config.sim.execution_time_factor_min = 0.7;
    return config;
}

TEST(ServeCheckpoint, RestoreReplayIsBitIdenticalToUninterruptedRun) {
    TempFile checkpoint("serve_ckpt_identity.txt");

    // Reference: uninterrupted run over 1200 arrivals.
    ServeRunParts reference;
    ServeConfig ref_config = checkpoint_config();
    ref_config.max_arrivals = 1200;
    const ServeResult uninterrupted =
        run_serve(reference.world.platform, reference.world.catalog, reference.rm,
                  reference.predictor, nullptr, reference.source, ref_config);

    // "Crash" after 700 arrivals, having checkpointed at 600.
    ServeRunParts interrupted;
    ServeConfig half_config = checkpoint_config();
    half_config.max_arrivals = 700;
    half_config.checkpoint_path = checkpoint.path;
    half_config.checkpoint_every = 600;
    const ServeResult half =
        run_serve(interrupted.world.platform, interrupted.world.catalog, interrupted.rm,
                  interrupted.predictor, nullptr, interrupted.source, half_config);
    EXPECT_EQ(half.checkpoints_written, 1u);

    // A brand-new process image restores the snapshot and replays to 1200.
    ServeRunParts resumed;
    ServeConfig resume_config = checkpoint_config();
    resume_config.max_arrivals = 1200;
    resume_config.restore_path = checkpoint.path;
    const ServeResult continued =
        run_serve(resumed.world.platform, resumed.world.catalog, resumed.rm, resumed.predictor,
                  nullptr, resumed.source, resume_config);

    EXPECT_EQ(continued.exit_code, 0);
    EXPECT_EQ(continued.arrivals, uninterrupted.arrivals);
    EXPECT_EQ(continued.shed, uninterrupted.shed);
    EXPECT_TRUE(equivalent_ignoring_host_time(uninterrupted.result, continued.result))
        << "uninterrupted accepted=" << uninterrupted.result.accepted
        << " restored accepted=" << continued.result.accepted;
}

TEST(ServeCheckpoint, ConfigurationMismatchIsRejected) {
    TempFile checkpoint("serve_ckpt_mismatch.txt");

    ServeRunParts writer;
    ServeConfig write_config = checkpoint_config();
    write_config.max_arrivals = 300;
    write_config.checkpoint_path = checkpoint.path;
    write_config.checkpoint_every = 200;
    (void)run_serve(writer.world.platform, writer.world.catalog, writer.rm, writer.predictor,
                    nullptr, writer.source, write_config);

    ServeRunParts reader;
    ServeConfig read_config = checkpoint_config();
    read_config.decision_cost = 0.5; // differs from the snapshot's 0.4
    read_config.restore_path = checkpoint.path;
    EXPECT_THROW((void)run_serve(reader.world.platform, reader.world.catalog, reader.rm,
                                 reader.predictor, nullptr, reader.source, read_config),
                 std::runtime_error);
}

TEST(ServeCheckpoint, PipeFedRunsRefuseToCheckpoint) {
    ServeWorld world;
    std::istringstream csv("arrival,type,relative_deadline\n0.0,0,40.0\n");
    CsvPipeSource source(csv);
    HeuristicRM rm;
    NullPredictor predictor;
    ServeConfig config = quiet_config();
    config.checkpoint_path = "unused.txt";
    config.checkpoint_every = 10;
    EXPECT_THROW(
        (void)run_serve(world.platform, world.catalog, rm, predictor, nullptr, source, config),
        std::runtime_error);
}

TEST(OnlinePredictorCheckpoint, SaveRestoreRoundTripsTheModel) {
    ServeWorld world;
    OnlinePredictor original(world.catalog);
    Rng rng(31);
    Time arrival = 0.0;
    for (int k = 0; k < 200; ++k) {
        arrival += rng.uniform(2.0, 10.0);
        const auto type = static_cast<TaskTypeId>(rng.index(world.catalog.size()));
        original.observe_arrival(Request{arrival, type, rng.uniform(20.0, 60.0)});
    }

    std::stringstream snapshot;
    original.save(snapshot);
    OnlinePredictor restored(world.catalog);
    restored.restore(snapshot);

    const auto expected = original.predict_upcoming(arrival, 4);
    const auto got = restored.predict_upcoming(arrival, 4);
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(expected[k].type, got[k].type);
        EXPECT_EQ(expected[k].arrival, got[k].arrival);
        EXPECT_EQ(expected[k].relative_deadline, got[k].relative_deadline);
    }
}

// ---- invariant monitor ----

TEST(Monitor, CheckInvariantsCatchesEachViolationClass) {
    MonitorLimits limits;
    BoardSample ok;
    ok.arrivals = 100;
    ok.decided = 90;
    ok.shed = 5;
    ok.queued = 5;
    ok.completed = 80;
    ok.sim_clock = 10.0;
    EXPECT_FALSE(check_invariants(ok, ok, limits).has_value());

    BoardSample regressed = ok;
    regressed.arrivals = 99; // counter moved backwards
    const auto monotone = check_invariants(ok, regressed, limits);
    ASSERT_TRUE(monotone.has_value());
    EXPECT_EQ(monotone->invariant, "monotone_counter");

    BoardSample rewound = ok;
    rewound.sim_clock = 5.0; // simulation clock moved backwards
    const auto clock = check_invariants(ok, rewound, limits);
    ASSERT_TRUE(clock.has_value());
    EXPECT_EQ(clock->invariant, "monotone_clock");

    BoardSample leaking = ok;
    leaking.decided = 200; // decided more than ever arrived
    const auto accounting = check_invariants(ok, leaking, limits);
    ASSERT_TRUE(accounting.has_value());
    EXPECT_EQ(accounting->invariant, "accounting");

    BoardSample overdone = ok;
    overdone.completed = 91; // completed more than were decided
    const auto completed = check_invariants(ok, overdone, limits);
    ASSERT_TRUE(completed.has_value());
    EXPECT_EQ(completed->invariant, "accounting");
    EXPECT_NE(completed->detail.find("completed exceeds decided"), std::string::npos);

    MonitorLimits strict = limits;
    strict.expect_no_misses = true;
    BoardSample missed = ok;
    missed.deadline_misses = 1;
    const auto miss = check_invariants(ok, missed, strict);
    ASSERT_TRUE(miss.has_value());
    EXPECT_EQ(miss->invariant, "deadline_guarantee");

    MonitorLimits tight_rss = limits;
    tight_rss.rss_budget_kb = 10;
    BoardSample fat = ok;
    fat.rss_kb = 20;
    const auto rss = check_invariants(ok, fat, tight_rss);
    ASSERT_TRUE(rss.has_value());
    EXPECT_EQ(rss->invariant, "rss_budget");

    MonitorLimits tight_active = limits;
    tight_active.active_budget = 3;
    BoardSample crowded = ok;
    crowded.active = 4;
    const auto active = check_invariants(ok, crowded, tight_active);
    ASSERT_TRUE(active.has_value());
    EXPECT_EQ(active->invariant, "active_budget");

    MonitorLimits small_ring = limits;
    small_ring.ring_capacity = 8;
    BoardSample overflowing = ok;
    overflowing.ring_occupancy = 9;
    const auto ring = check_invariants(ok, overflowing, small_ring);
    ASSERT_TRUE(ring.has_value());
    EXPECT_EQ(ring->invariant, "ring_capacity");

    MonitorLimits tight_latency = limits;
    tight_latency.latency_p99_budget_us = 100.0;
    BoardSample slow = ok;
    slow.latency_p99_us = 5000.0;
    slow.latency_count = 50;
    const auto latency = check_invariants(ok, slow, tight_latency);
    ASSERT_TRUE(latency.has_value());
    EXPECT_EQ(latency->invariant, "latency_budget");
}

TEST(Monitor, LatencyHdrQuantiles) {
    obs::HdrHistogram latency; // nanosecond ticks, as serve records them
    for (int k = 0; k < 99; ++k) latency.record(10'000);
    latency.record(100'000'000);
    EXPECT_EQ(latency.count(), 100u);
    // HDR buckets: answers are upper bucket bounds within ~3.1 % of the
    // truth; the outlier only surfaces at q = 1.
    EXPECT_GE(latency_quantile_us(latency, 0.5), 10.0);
    EXPECT_LE(latency_quantile_us(latency, 0.5), 10.4);
    EXPECT_LE(latency_quantile_us(latency, 0.99), 10.4);
    EXPECT_GE(latency_quantile_us(latency, 1.0), 100000.0);
    EXPECT_LE(latency_quantile_us(latency, 1.0), 103200.0);
    // Sub-microsecond samples stay distinguishable (nanosecond ticks).
    obs::HdrHistogram fine;
    fine.record(50);
    EXPECT_GE(latency_quantile_us(fine, 1.0), 0.05);
    EXPECT_LE(latency_quantile_us(fine, 1.0), 0.06);
    EXPECT_EQ(latency_quantile_us(obs::HdrHistogram{}, 0.5), 0.0);
}

TEST(Serve, MonitorCatchesInjectedViolation) {
    ServeWorld world;
    SyntheticSourceParams params;
    params.seed = 13;
    SyntheticArrivalSource source(world.catalog, params);
    HeuristicRM rm;
    NullPredictor predictor;
    ServeConfig config;
    config.max_arrivals = 300;
    config.monitor = true;
    config.monitor_period_seconds = 0.0; // check after every flush
    config.limits.expect_no_misses = true;
    config.chaos_fake_miss_at = 50; // chaos: the samples claim a miss
    const ServeResult serve =
        run_serve(world.platform, world.catalog, rm, predictor, nullptr, source, config);

    EXPECT_EQ(serve.exit_code, 3);
    EXPECT_NE(serve.violation.find("deadline_guarantee"), std::string::npos);
    // Detected mid-run, not at the final check: arrival 50's flush runs
    // (and is checked) when arrival 51 is consumed, and the loop stops
    // before consuming another.
    EXPECT_EQ(serve.arrivals, 51u);
    // The engine itself was healthy: the fake miss lived only in the samples.
    EXPECT_EQ(serve.result.deadline_misses, 0u);
    // Even after the violation the service drained gracefully.
    EXPECT_EQ(serve.result.completed, serve.result.accepted);
}

TEST(Serve, CleanRunPassesTheMonitor) {
    ServeWorld world;
    SyntheticSourceParams params;
    params.seed = 13;
    SyntheticArrivalSource source(world.catalog, params);
    HeuristicRM rm;
    NullPredictor predictor;
    ServeConfig config;
    config.max_arrivals = 300;
    config.monitor = true;
    config.monitor_period_seconds = 0.0; // check after every flush
    config.limits.expect_no_misses = true;
    config.limits.rss_budget_kb = 4u * 1024u * 1024u; // 4 GB: generous but finite
    const ServeResult serve =
        run_serve(world.platform, world.catalog, rm, predictor, nullptr, source, config);
    EXPECT_EQ(serve.exit_code, 0);
    // One check per flush (one activation each, batching off) plus the
    // final check after the drain.
    EXPECT_EQ(serve.monitor_checks, serve.result.activations + 1);
    EXPECT_TRUE(serve.violation.empty());
}

TEST(Serve, StatsJsonKeepsFullPrecision) {
    ServeWorld world;
    SyntheticSourceParams params;
    params.seed = 17;
    SyntheticArrivalSource source(world.catalog, params);
    HeuristicRM rm;
    NullPredictor predictor;
    ServeConfig config;
    config.max_arrivals = 200;
    config.monitor = false;
    obs::StageStats stages;
    config.stage_stats_out = &stages;
    const ServeResult serve =
        run_serve(world.platform, world.catalog, rm, predictor, nullptr, source, config);
    ASSERT_GT(serve.result.total_energy, 0.0);

    // Parse the document back: every double survives bit-for-bit.
    const obs::JsonValue doc = obs::json_parse(serve_stats_json(serve, &stages).dump(2));
    EXPECT_EQ(doc.find("total_energy")->as_number(), serve.result.total_energy);
    EXPECT_EQ(doc.find("wall_seconds")->as_number(), serve.wall_seconds);
    EXPECT_EQ(doc.find("latency_p99_us")->as_number(), serve.latency_p99_us);
    EXPECT_EQ(doc.find("arrivals")->as_uint64(), serve.arrivals);
    EXPECT_EQ(doc.find("edf_simulate_calls")->as_uint64(),
              stages.cell(obs::Stage::edf_simulate).calls);
    // The keys CI reads.
    for (const char* key : {"arrivals", "decisions_per_second", "stopped_by_signal", "exit_code",
                            "telemetry_requests", "ring_dropped", "prefilter_unknown",
                            "edf_simulate_calls"})
        EXPECT_NE(doc.find(key), nullptr) << key;
    // Without a stage profile the pipeline counters are left out.
    const obs::JsonValue bare = obs::json_parse(serve_stats_json(serve, nullptr).dump());
    EXPECT_EQ(bare.find("prefilter_unknown"), nullptr);
    EXPECT_NE(bare.find("exit_code"), nullptr);
}

// ---- signal drain ----

/// Delegating source that raises SIGTERM after delivering `stop_after`
/// requests — the in-process stand-in for an operator's kill.
class RaisingSource final : public ArrivalSource {
public:
    RaisingSource(ArrivalSource& inner, std::uint64_t stop_after)
        : inner_(inner), stop_after_(stop_after) {}

    [[nodiscard]] std::optional<Request> next() override {
        if (delivered_ == stop_after_) (void)std::raise(SIGTERM);
        auto request = inner_.next();
        if (request.has_value()) ++delivered_;
        return request;
    }
    [[nodiscard]] std::uint64_t parse_errors() const noexcept override {
        return inner_.parse_errors();
    }
    [[nodiscard]] bool seekable() const noexcept override { return false; }
    [[nodiscard]] SourceCursor cursor() const noexcept override { return {}; }
    void seek(const SourceCursor&) override { throw std::runtime_error("not seekable"); }

private:
    ArrivalSource& inner_;
    std::uint64_t stop_after_;
    std::uint64_t delivered_ = 0;
};

TEST(Serve, SigtermDrainsGracefully) {
    ServeWorld world;
    SyntheticSourceParams params;
    params.seed = 29;
    SyntheticArrivalSource synthetic(world.catalog, params);
    RaisingSource source(synthetic, 150);
    HeuristicRM rm;
    NullPredictor predictor;
    ServeConfig config = quiet_config();
    config.max_arrivals = 100000; // the signal, not this bound, ends the run

    install_serve_signal_handlers();
    serve_clear_stop();
    const ServeResult serve =
        run_serve(world.platform, world.catalog, rm, predictor, nullptr, source, config);
    serve_clear_stop();

    EXPECT_TRUE(serve.stopped_by_signal);
    EXPECT_EQ(serve.exit_code, 0);
    // The signal landed mid-stream and the service still drained: every
    // admitted task ran to completion before the loop returned.
    EXPECT_GT(serve.arrivals, 140u);
    EXPECT_LT(serve.arrivals, 1000u);
    EXPECT_EQ(serve.result.completed, serve.result.accepted);
}

} // namespace
} // namespace rmwp
