#include "obs/hdr.hpp"

#include <algorithm>
#include <cmath>

namespace rmwp::obs {

using hdr_detail::bucket_index;
using hdr_detail::bucket_upper;
using hdr_detail::kBucketCount;

void HdrHistogram::record(std::uint64_t value) noexcept { record_n(value, 1); }

void HdrHistogram::record_n(std::uint64_t value, std::uint64_t times) noexcept {
    if (times == 0) return;
    counts_[bucket_index(value)] += times;
    count_ += times;
    sum_ += value * times;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

std::uint64_t HdrHistogram::quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    // Rank of the sample the quantile selects: ceil(q * count), at least 1.
    const auto ceil_rank = static_cast<std::uint64_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_)));
    const std::uint64_t rank = std::max<std::uint64_t>(ceil_rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        seen += counts_[i];
        if (seen >= rank) return std::min(bucket_upper(i), max_);
    }
    return max_; // unreachable: seen reaches count_ >= rank
}

void HdrHistogram::merge(const HdrHistogram& other) noexcept {
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void HdrHistogram::reset() noexcept {
    counts_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = ~0ull;
    max_ = 0;
}

std::vector<HdrCell> HdrHistogram::cells() const {
    std::vector<HdrCell> out;
    for (std::size_t i = 0; i < kBucketCount; ++i)
        if (counts_[i] != 0) out.push_back({static_cast<std::uint32_t>(i), counts_[i]});
    return out;
}

void HdrHistogram::load(const std::vector<HdrCell>& cells, std::uint64_t sum,
                        std::uint64_t min, std::uint64_t max) noexcept {
    reset();
    for (const HdrCell& cell : cells) {
        if (cell.index >= kBucketCount) continue; // foreign snapshot; drop
        counts_[cell.index] += cell.count;
        count_ += cell.count;
    }
    sum_ = sum;
    min_ = count_ == 0 ? ~0ull : min;
    max_ = max;
}

} // namespace rmwp::obs
