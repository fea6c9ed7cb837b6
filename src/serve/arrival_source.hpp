// Arrival sources for the long-running serve mode (DESIGN.md §11).
//
// A source decouples where requests come from — a trace CSV file, a pipe on
// stdin, or an endless synthetic generator — from the serve loop that admits
// them.  Sources deliver one request at a time (O(1) memory in the stream
// length, unlike the batch Trace which holds every request) and expose a
// *cursor* so a crash-safe checkpoint can record "how far the service got"
// and a restore can seek straight back to that position:
//
//   * SyntheticArrivalSource derives an independent RNG stream per request
//     index, so the cursor is just (index, accumulated arrival time) and
//     seek() is O(1) — no replay, no RNG state serialization;
//   * CsvFileSource's cursor is the count of delivered requests; seek()
//     reopens the file and re-walks that many well-formed lines (malformed
//     lines are skipped silently during the replay — they were already
//     warned about the first time);
//   * BurstSource collapses a synthetic stream into same-instant bursts
//     (the batched-admission workloads); it has no cursor;
//   * CsvPipeSource (stdin or any non-seekable stream) has no cursor;
//     checkpointing a serve run fed from a pipe is refused up front.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <optional>
#include <string>

#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/trace.hpp"
#include "workload/trace_generator.hpp"
#include "workload/trace_io.hpp"

namespace rmwp {

/// Position of a source after the last delivered request.  `seq` counts
/// delivered requests; `aux` is source-specific (the synthetic generator's
/// accumulated arrival time; unused for CSV files).
struct SourceCursor {
    std::uint64_t seq = 0;
    double aux = 0.0;
};

class ArrivalSource {
public:
    virtual ~ArrivalSource() = default;

    /// The next request, or nullopt when the stream is exhausted.  Arrivals
    /// are non-decreasing across delivered requests.
    [[nodiscard]] virtual std::optional<Request> next() = 0;

    /// Malformed input skipped so far (0 for sources that cannot fail).
    [[nodiscard]] virtual std::uint64_t parse_errors() const noexcept { return 0; }

    /// Whether seek() works (required for checkpoint/restore).
    [[nodiscard]] virtual bool seekable() const noexcept = 0;

    /// Position after the most recent next(); meaningful only when
    /// seekable().
    [[nodiscard]] virtual SourceCursor cursor() const noexcept = 0;

    /// Reposition so the following next() returns request `cursor.seq`
    /// (0-based).  Throws std::runtime_error when not seekable() or the
    /// cursor is invalid for this source.
    virtual void seek(const SourceCursor& cursor) = 0;
};

/// Endless (or length-bounded) synthetic generator mirroring the batch
/// trace generator's Sec 5.1 sampling: Gaussian interarrival gaps (truncated
/// above 1% of the mean), uniform task type, deadline = RWCET x U[Cmin,Cmax].
///
/// Unlike generate_trace — which draws from one sequential stream — each
/// request index derives its own child stream of the seed, so the stream is
/// random-access: position k is fully determined by (k, arrival up to k).
/// The draws therefore differ from generate_trace for the same seed; the
/// distributions are identical.
struct SyntheticSourceParams {
    std::uint64_t seed = 1;
    double interarrival_mean = 6.0; ///< calibrated default (EXPERIMENTS.md)
    double interarrival_stddev = 2.0;
    DeadlineGroup group = DeadlineGroup::very_tight;
    std::uint64_t count = 0; ///< stop after this many requests; 0 = endless
};

class SyntheticArrivalSource final : public ArrivalSource {
public:
    SyntheticArrivalSource(const Catalog& catalog, const SyntheticSourceParams& params);

    [[nodiscard]] std::optional<Request> next() override;
    [[nodiscard]] bool seekable() const noexcept override { return true; }
    [[nodiscard]] SourceCursor cursor() const noexcept override { return {index_, arrival_}; }
    void seek(const SourceCursor& cursor) override;

private:
    const Catalog& catalog_;
    SyntheticSourceParams params_;
    Rng root_;
    std::uint64_t index_ = 0; ///< next request to generate
    Time arrival_ = 0.0;      ///< arrival of the most recent request
};

/// Synthetic arrivals collapsed into bursts: every run of `burst`
/// consecutive requests shares the first member's arrival instant, so
/// batch_window = 0 coalesces real multi-item groups.  Mean per-request
/// rate, types and relative deadlines are the synthetic source's, so the
/// offered load is the same at every burst size.  Not seekable.
class BurstSource final : public ArrivalSource {
public:
    BurstSource(const Catalog& catalog, const SyntheticSourceParams& params, std::size_t burst);

    [[nodiscard]] std::optional<Request> next() override;
    [[nodiscard]] bool seekable() const noexcept override { return false; }
    [[nodiscard]] SourceCursor cursor() const noexcept override { return {}; }
    void seek(const SourceCursor& cursor) override;

private:
    SyntheticArrivalSource inner_;
    std::size_t burst_;
    std::size_t in_burst_ = 0; ///< members still owed at burst_arrival_
    Time burst_arrival_ = 0.0;
};

/// Streaming CSV over a caller-owned istream (stdin / pipes).  Malformed
/// mid-stream lines are skipped with a warning (TraceCsvStream semantics).
/// Not seekable: serve refuses to checkpoint when fed from a pipe.
class CsvPipeSource final : public ArrivalSource {
public:
    explicit CsvPipeSource(std::istream& is,
                           std::function<void(const std::string&)> warn = {});

    [[nodiscard]] std::optional<Request> next() override;
    [[nodiscard]] std::uint64_t parse_errors() const noexcept override;
    [[nodiscard]] bool seekable() const noexcept override { return false; }
    [[nodiscard]] SourceCursor cursor() const noexcept override { return {}; }
    void seek(const SourceCursor&) override;

private:
    TraceCsvStream stream_;
};

/// Streaming CSV over a file it owns; seekable by replaying the prefix.
class CsvFileSource final : public ArrivalSource {
public:
    /// Throws std::runtime_error when the file cannot be opened.
    explicit CsvFileSource(std::string path,
                           std::function<void(const std::string&)> warn = {});

    [[nodiscard]] std::optional<Request> next() override;
    [[nodiscard]] std::uint64_t parse_errors() const noexcept override;
    [[nodiscard]] bool seekable() const noexcept override { return true; }
    [[nodiscard]] SourceCursor cursor() const noexcept override;
    void seek(const SourceCursor& cursor) override;

private:
    void reopen();

    std::string path_;
    std::function<void(const std::string&)> warn_;
    std::ifstream file_;
    std::optional<TraceCsvStream> stream_;
    /// Warnings are muted while seek() replays the already-seen prefix.
    bool replaying_ = false;
};

} // namespace rmwp
