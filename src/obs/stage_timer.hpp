// Per-stage hot-path profiling for the admission pipeline (DESIGN.md §14).
//
// A thread installs a StageStats block (StageStatsScope RAII); the
// instrumentation macros below then attribute call counts, sampled host
// time, EDF prefilter verdicts, and the plan-arena high-water mark to named
// stages.  With no block installed every hook is a single thread-local
// pointer test; with RMWP_OBS compiled out the macros expand to nothing and
// this header contributes zero symbols to the core/sim archives (the CI
// `nm` gate pins that).
//
// Timing is *sampled*: a steady_clock pair is taken on every 64th call per
// stage and scaled by calls/samples — simulate_edf runs millions of times
// per serve minute, and two clock reads per call would cost more than the
// stage itself.  Hooks only ever write to the installed block, never read
// engine state, so admission decisions are bit-identical with stats
// installed or not (pinned by tests/test_telemetry.cpp).
//
// This file is on the rmwp-analyze R1 wall-clock allowlist; call sites in
// src/core and src/sim stay clock-free by construction.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace rmwp::obs {

/// Named stages of one admission decision, in pipeline order.
enum class Stage : std::uint8_t {
    decide = 0,     ///< whole ResourceManager::decide / decide_batch call
    solve,          ///< one solver run over an assembled PlanInstance
    batch_assemble, ///< BatchPlanner::assemble (candidate/tail rewrite)
    sorted_refresh, ///< memoised sorted-block recomputation in fill_blocks
    prefilter,      ///< analytic EDF prefilter (demand scans / run-to-completion replay)
    edf_simulate,   ///< exact EDF simulation fallback
    shard_solve,    ///< sharded per-bucket sub-solves, incl. cross-shard wait
    shard_merge,    ///< deterministic cross-shard mapping merge
    rebuild,        ///< engine schedule rebuild after a decision, incl. re-arming completions
};

inline constexpr std::size_t kStageCount = 9;

/// Lower-snake-case stage name (Prometheus label value).
[[nodiscard]] const char* to_string(Stage stage) noexcept;

/// One thread's accumulated stage profile.  Plain data, defined regardless
/// of RMWP_OBS so ServeConfig/ServeResult can carry pointers to it; only
/// the hooks that fill it are compiled out.
struct StageStats {
    struct Cell {
        std::uint64_t calls = 0;
        std::uint64_t samples = 0;    ///< calls that were actually timed
        std::uint64_t sampled_ns = 0; ///< host time over those samples
    };

    std::array<Cell, kStageCount> stage{};
    std::uint64_t prefilter_infeasible = 0; ///< verdicts: provably infeasible
    std::uint64_t prefilter_feasible = 0;   ///< verdicts: provably feasible
    std::uint64_t prefilter_unknown = 0;    ///< verdicts: fell through to EDF
    std::uint64_t arena_high_water_bytes = 0;

    [[nodiscard]] const Cell& cell(Stage s) const noexcept {
        return stage[static_cast<std::size_t>(s)];
    }
    /// Total host time estimate: sampled_ns scaled up by calls/samples.
    [[nodiscard]] std::uint64_t estimated_ns(Stage s) const noexcept {
        const Cell& c = cell(s);
        if (c.samples == 0) return 0;
        return static_cast<std::uint64_t>(static_cast<double>(c.sampled_ns) *
                                          static_cast<double>(c.calls) /
                                          static_cast<double>(c.samples));
    }
    void reset() noexcept { *this = StageStats{}; }
};

#ifdef RMWP_OBS

namespace detail {
/// The installed per-thread sink; nullptr (the default) disables every hook.
/// constinit: the variable is constant-initialised, so every access reads
/// the thread-local slot directly instead of through a TLS init wrapper.
extern constinit thread_local StageStats* t_stage_stats;
} // namespace detail

[[nodiscard]] inline StageStats* stage_stats() noexcept { return detail::t_stage_stats; }

/// Install `stats` as the calling thread's sink for the scope's lifetime
/// (restores the previous sink on exit, so scopes nest).
class StageStatsScope {
public:
    explicit StageStatsScope(StageStats* stats) noexcept : previous_(detail::t_stage_stats) {
        detail::t_stage_stats = stats;
    }
    ~StageStatsScope() { detail::t_stage_stats = previous_; }
    StageStatsScope(const StageStatsScope&) = delete;
    StageStatsScope& operator=(const StageStatsScope&) = delete;

private:
    StageStats* previous_;
};

/// Every 64th call per stage is timed (power of two; see file comment).
inline constexpr std::uint64_t kStageSampleMask = 63;

/// RAII hook: counts one call to `stage` and, on sampled calls, its host
/// time.  No-op when no StageStats is installed.
class StageScope {
public:
    explicit StageScope(Stage stage) noexcept {
        StageStats* stats = stage_stats();
        if (stats == nullptr) return;
        cell_ = &stats->stage[static_cast<std::size_t>(stage)];
        if ((cell_->calls++ & kStageSampleMask) == 0) {
            timed_ = true;
            begin_ = std::chrono::steady_clock::now();
        }
    }
    ~StageScope() {
        if (!timed_) return;
        const auto elapsed = std::chrono::steady_clock::now() - begin_;
        cell_->sampled_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
        ++cell_->samples;
    }
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

private:
    StageStats::Cell* cell_ = nullptr;
    std::chrono::steady_clock::time_point begin_{};
    bool timed_ = false;
};

/// Credit externally measured time to a stage (the engine already brackets
/// decide_batch() with a steady_clock pair for the overhead model; that
/// measurement is reused rather than re-clocked).
inline void stage_add_timed_ns(Stage stage, std::uint64_t ns) noexcept {
    StageStats* stats = stage_stats();
    if (stats == nullptr) return;
    StageStats::Cell& cell = stats->stage[static_cast<std::size_t>(stage)];
    ++cell.calls;
    ++cell.samples;
    cell.sampled_ns += ns;
}

#define RMWP_STAGE_CONCAT_IMPL(a, b) a##b
#define RMWP_STAGE_CONCAT(a, b) RMWP_STAGE_CONCAT_IMPL(a, b)

/// Count + sample-time the enclosing scope as `stage` (an obs::Stage).
#define RMWP_STAGE_SCOPE(stage) \
    const ::rmwp::obs::StageScope RMWP_STAGE_CONCAT(rmwp_stage_scope_, __LINE__)(stage)

/// Bump one of the three prefilter verdict counters (`which` is the
/// StageStats member name: prefilter_infeasible / _feasible / _unknown).
#define RMWP_STAGE_VERDICT(which)                                             \
    do {                                                                      \
        if (::rmwp::obs::StageStats* rmwp_stage_stats_ = ::rmwp::obs::stage_stats(); \
            rmwp_stage_stats_ != nullptr)                                     \
            ++rmwp_stage_stats_->which;                                       \
    } while (false)

/// Record the plan-arena footprint high-water mark.  `...` (the byte count
/// expression) is only evaluated when a sink is installed.
#define RMWP_STAGE_ARENA_BYTES(...)                                           \
    do {                                                                      \
        if (::rmwp::obs::StageStats* rmwp_stage_stats_ = ::rmwp::obs::stage_stats(); \
            rmwp_stage_stats_ != nullptr) {                                   \
            const std::uint64_t rmwp_stage_bytes_ = (__VA_ARGS__);            \
            if (rmwp_stage_bytes_ > rmwp_stage_stats_->arena_high_water_bytes) \
                rmwp_stage_stats_->arena_high_water_bytes = rmwp_stage_bytes_; \
        }                                                                     \
    } while (false)

#else // !RMWP_OBS

#define RMWP_STAGE_SCOPE(stage) \
    do {                        \
    } while (false)
#define RMWP_STAGE_VERDICT(which) \
    do {                          \
    } while (false)
#define RMWP_STAGE_ARENA_BYTES(...) \
    do {                            \
    } while (false)

#endif // RMWP_OBS

} // namespace rmwp::obs
