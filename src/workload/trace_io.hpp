// CSV import/export for traces and catalogs, so experiments can be run
// against externally produced request streams (e.g. converted cluster
// traces) and generated workloads can be inspected offline.
//
// Trace CSV columns:   arrival,type,relative_deadline
// Catalog CSV columns: type,resource,wcet,energy  followed by migration rows
//                      type,from,to,migration_time,migration_energy in a
//                      second section separated by a "#migration" line.
// Non-executable (type, resource) pairs are written as "inf".
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "workload/catalog.hpp"
#include "workload/trace.hpp"

namespace rmwp {

void write_trace_csv(std::ostream& os, const Trace& trace);
/// Parse a trace, rejecting malformed input with a descriptive
/// std::runtime_error: wrong header/field counts, unparseable numbers,
/// negative or non-finite times, and non-monotone arrivals.  Reads through
/// TraceCsvStream, so both readers apply one set of line rules; here the
/// first broken rule throws, naming the line.
[[nodiscard]] Trace read_trace_csv(std::istream& is);

/// Check that every request's task type exists in the catalog; throws a
/// descriptive std::runtime_error otherwise.  Run this after loading an
/// external trace against the catalog it will be simulated with.
void validate_trace(const Trace& trace, const Catalog& catalog);

void write_trace_csv_file(const std::string& path, const Trace& trace);
[[nodiscard]] Trace read_trace_csv_file(const std::string& path);

/// Incremental trace-CSV reader for long-running services (DESIGN.md §11).
///
/// Unlike read_trace_csv — which validates a whole file up front and throws
/// on the first defect — a live service must outlast a corrupted producer:
/// a malformed mid-stream line (wrong field count, unparseable number,
/// non-finite/negative time, or an arrival that runs backwards) is *skipped*
/// with a line-numbered warning and counted in parse_errors(), and the
/// stream keeps delivering the well-formed remainder.  Only a missing or
/// wrong header is fatal (the input is not a trace CSV at all).
///
/// The reader holds one line of the input at a time — memory is O(1) in the
/// stream length.
class TraceCsvStream {
public:
    /// `warn` receives one human-readable message per skipped line, naming
    /// the line and the rule it breaks; the default writes it to stderr.
    /// A `warn` that throws ends the read (read_trace_csv's strict mode).
    /// The header line is consumed (and checked) by the first next() call.
    explicit TraceCsvStream(std::istream& is,
                            std::function<void(const std::string&)> warn = {});

    /// The next well-formed request, or nullopt at end of stream.  Throws
    /// std::runtime_error only for a missing/wrong header.
    [[nodiscard]] std::optional<Request> next();

    /// Malformed lines skipped so far.
    [[nodiscard]] std::uint64_t parse_errors() const noexcept { return parse_errors_; }
    /// Well-formed requests delivered so far.
    [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
    /// 1-based number of the last line read.
    [[nodiscard]] std::uint64_t line_number() const noexcept { return line_number_; }

private:
    std::istream& is_;
    std::function<void(const std::string&)> warn_;
    std::uint64_t parse_errors_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t line_number_ = 0;
    Time last_arrival_ = 0.0;
    bool header_checked_ = false;
};

void write_catalog_csv(std::ostream& os, const Catalog& catalog);
[[nodiscard]] Catalog read_catalog_csv(std::istream& is);

void write_catalog_csv_file(const std::string& path, const Catalog& catalog);
[[nodiscard]] Catalog read_catalog_csv_file(const std::string& path);

} // namespace rmwp
