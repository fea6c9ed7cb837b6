#include "serve/arrival_source.hpp"

#include <iostream>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace rmwp {

SyntheticArrivalSource::SyntheticArrivalSource(const Catalog& catalog,
                                              const SyntheticSourceParams& params)
    : catalog_(catalog), params_(params), root_(params.seed) {
    RMWP_EXPECT(catalog.size() > 0);
    RMWP_EXPECT(params.interarrival_mean > 0.0);
    RMWP_EXPECT(params.interarrival_stddev >= 0.0);
}

std::optional<Request> SyntheticArrivalSource::next() {
    if (params_.count != 0 && index_ >= params_.count) return std::nullopt;

    // One independent child stream per request index: the draw sequence of
    // request k never depends on how many requests came before it, which is
    // what makes the cursor (k, arrival) a complete position.
    Rng rng = root_.derive(index_);
    if (index_ > 0) {
        const double mean = params_.interarrival_mean;
        const double stddev = params_.interarrival_stddev;
        arrival_ += rng.gaussian_above(mean, stddev, mean * 0.01);
    }

    const auto type_id = static_cast<TaskTypeId>(rng.index(catalog_.size()));
    const TaskType& type = catalog_.type(type_id);
    const auto& executable = type.executable_resources();
    const ResourceId picked = executable[rng.index(executable.size())];
    const double rwcet = type.wcet(picked);
    TraceGenParams groups;
    groups.group = params_.group;
    const double coefficient =
        rng.uniform(groups.deadline_coefficient_min(), groups.deadline_coefficient_max());

    ++index_;
    return Request{arrival_, type_id, rwcet * coefficient};
}

void SyntheticArrivalSource::seek(const SourceCursor& cursor) {
    if (params_.count != 0 && cursor.seq > params_.count)
        throw std::runtime_error("synthetic source: cursor past the configured count");
    if (cursor.seq == 0 && cursor.aux != 0.0)
        throw std::runtime_error("synthetic source: cursor at 0 must carry arrival 0");
    index_ = cursor.seq;
    arrival_ = cursor.aux;
}

CsvPipeSource::CsvPipeSource(std::istream& is, std::function<void(const std::string&)> warn)
    : stream_(is, std::move(warn)) {}

std::optional<Request> CsvPipeSource::next() { return stream_.next(); }

std::uint64_t CsvPipeSource::parse_errors() const noexcept { return stream_.parse_errors(); }

void CsvPipeSource::seek(const SourceCursor&) {
    throw std::runtime_error("cannot seek a pipe-fed trace stream");
}

BurstSource::BurstSource(const Catalog& catalog, const SyntheticSourceParams& params,
                         std::size_t burst)
    : inner_(catalog, params), burst_(burst) {
    RMWP_EXPECT(burst >= 1);
}

std::optional<Request> BurstSource::next() {
    std::optional<Request> request = inner_.next();
    if (!request.has_value()) return std::nullopt;
    if (in_burst_ == 0) {
        burst_arrival_ = request->arrival;
        in_burst_ = burst_;
    } else {
        request->arrival = burst_arrival_;
    }
    --in_burst_;
    return request;
}

void BurstSource::seek(const SourceCursor&) {
    throw std::runtime_error("BurstSource is not seekable");
}

CsvFileSource::CsvFileSource(std::string path, std::function<void(const std::string&)> warn)
    : path_(std::move(path)), warn_(std::move(warn)) {
    if (!warn_)
        warn_ = [](const std::string& message) { std::cerr << message << " — skipped\n"; };
    reopen();
}

void CsvFileSource::reopen() {
    stream_.reset();
    file_ = std::ifstream(path_);
    if (!file_) throw std::runtime_error("cannot open trace CSV: " + path_);
    // The callback outlives no seek: it checks the replay flag at call time,
    // so one stream serves both the silent replay prefix and live tailing.
    stream_.emplace(file_, [this](const std::string& message) {
        if (!replaying_) warn_(message);
    });
}

std::optional<Request> CsvFileSource::next() { return stream_->next(); }

std::uint64_t CsvFileSource::parse_errors() const noexcept { return stream_->parse_errors(); }

SourceCursor CsvFileSource::cursor() const noexcept { return {stream_->delivered(), 0.0}; }

void CsvFileSource::seek(const SourceCursor& cursor) {
    // Replay from the top, skipping cursor.seq well-formed lines.  Malformed
    // lines inside the prefix were warned about on the first pass, so the
    // replay drops them silently; they still count in parse_errors() (the
    // fresh stream re-discovers the same defects exactly once).
    reopen();
    replaying_ = true;
    for (std::uint64_t k = 0; k < cursor.seq; ++k) {
        if (!stream_->next().has_value()) {
            replaying_ = false;
            throw std::runtime_error("trace CSV shrank under the checkpoint: " + path_ +
                                     " has fewer than " + std::to_string(cursor.seq) +
                                     " well-formed requests");
        }
    }
    replaying_ = false;
}

} // namespace rmwp
