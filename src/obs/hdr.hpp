// Log-linear-bucketed HDR-style histogram over unsigned integer ticks.
//
// The classic HdrHistogram trick: values below 2^kLinearBits land in exact
// unit-width buckets; above that, each power-of-two magnitude group is split
// into 2^kSubBits sub-buckets, so the bucket width is always <= value /
// 2^kSubBits and every quantile is exact to within ~3.1 % relative error —
// at a fixed memory footprint (one u64 per bucket, no per-sample storage).
// It is the repository's one histogram type: the engine's registry metrics,
// serve's latency and the `/metrics` summaries all use it (DESIGN.md §14).
//
// HdrHistogram is single-threaded, mergeable and value-semantic.  Safe for
// sim-scope metrics: identical sample multisets give identical state, so
// obs::deterministic_equal can compare them bit-for-bit.  Readers on other
// threads take a copy under their own lock.
//
// Ticks are caller-defined units; serve records nanoseconds.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rmwp::obs {

namespace hdr_detail {

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per magnitude group bounds
/// the relative quantile error by 1/32 (~3.1 %).
inline constexpr unsigned kSubBits = 5;
/// Values < 2^(kSubBits + 1) = 64 are counted exactly (unit buckets).
inline constexpr std::uint64_t kLinearLimit = 1ull << (kSubBits + 1);
/// Highest magnitude group: values up to 2^46 - 1 ticks (~19.5 h in ns).
inline constexpr unsigned kMaxMagnitude = 45;
inline constexpr std::uint64_t kMaxTrackable = (1ull << (kMaxMagnitude + 1)) - 1;
inline constexpr std::size_t kGroupCount = kMaxMagnitude - kSubBits; // m = 6..45
inline constexpr std::size_t kBucketCount =
    static_cast<std::size_t>(kLinearLimit) + kGroupCount * (1u << kSubBits); // 1344

/// Bucket index for a tick value (values above kMaxTrackable clamp into the
/// last bucket).
[[nodiscard]] constexpr std::size_t bucket_index(std::uint64_t value) noexcept {
    if (value < kLinearLimit) return static_cast<std::size_t>(value);
    if (value > kMaxTrackable) value = kMaxTrackable;
    const unsigned magnitude =
        static_cast<unsigned>(std::bit_width(value)) - 1; // in [kSubBits+1, kMaxMagnitude]
    const unsigned shift = magnitude - kSubBits;
    const std::uint64_t sub = value >> shift; // in [32, 63]
    return static_cast<std::size_t>(kLinearLimit) +
           (magnitude - kSubBits - 1) * (1u << kSubBits) +
           static_cast<std::size_t>(sub - (1u << kSubBits));
}

/// Largest tick value mapping to `index` (inverse of bucket_index).
[[nodiscard]] constexpr std::uint64_t bucket_upper(std::size_t index) noexcept {
    if (index < kLinearLimit) return index;
    const std::size_t offset = index - static_cast<std::size_t>(kLinearLimit);
    const unsigned shift = static_cast<unsigned>(offset / (1u << kSubBits)) + 1;
    const std::uint64_t sub = (1u << kSubBits) + offset % (1u << kSubBits);
    return ((sub + 1) << shift) - 1;
}

static_assert(bucket_index(0) == 0);
static_assert(bucket_index(63) == 63);
static_assert(bucket_index(64) == 64);
static_assert(bucket_index(65) == 64);
static_assert(bucket_upper(64) == 65);
static_assert(bucket_index(bucket_upper(200)) == 200);
static_assert(bucket_index(bucket_upper(kBucketCount - 1)) == kBucketCount - 1);
static_assert(bucket_index(kMaxTrackable) == kBucketCount - 1);

} // namespace hdr_detail

/// One populated bucket of a histogram snapshot (sparse form, ordered by
/// index; what MetricsSnapshot carries and deterministic_equal compares).
struct HdrCell {
    std::uint32_t index = 0;
    std::uint64_t count = 0;

    friend bool operator==(const HdrCell&, const HdrCell&) = default;
};

/// HDR histogram (see file comment).
class HdrHistogram {
public:
    void record(std::uint64_t value) noexcept;
    void record_n(std::uint64_t value, std::uint64_t times) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
    /// min()/max() are exact recorded extrema (0 when empty).
    [[nodiscard]] std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
    [[nodiscard]] std::uint64_t max() const noexcept { return max_; }

    /// Upper bound of the bucket holding the rank-ceil(q*count) sample,
    /// clamped to max(); exact for values < 64, <= 3.1 % high otherwise.
    /// q is clamped to [0, 1]; returns 0 on an empty histogram.
    [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

    /// Accumulate another histogram (geometry is fixed, so any two merge;
    /// merging is associative and commutative by construction).
    void merge(const HdrHistogram& other) noexcept;

    void reset() noexcept;

    /// Sparse populated buckets, ascending by index.
    [[nodiscard]] std::vector<HdrCell> cells() const;
    /// Rebuild dense state from sparse cells + exact extrema (snapshot
    /// round-trip; used by MetricsSnapshot::merge).
    void load(const std::vector<HdrCell>& cells, std::uint64_t sum, std::uint64_t min,
              std::uint64_t max) noexcept;

    friend bool operator==(const HdrHistogram& a, const HdrHistogram& b) {
        return a.count_ == b.count_ && a.sum_ == b.sum_ && a.min_ == b.min_ &&
               a.max_ == b.max_ && a.counts_ == b.counts_;
    }

private:
    std::array<std::uint64_t, hdr_detail::kBucketCount> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ull;
    std::uint64_t max_ = 0;
};

} // namespace rmwp::obs
