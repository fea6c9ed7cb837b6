#include "workload/trace_io.hpp"

#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace rmwp {
namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
    std::vector<std::string> fields;
    std::string field;
    std::istringstream is(line);
    while (std::getline(is, field, ',')) fields.push_back(field);
    return fields;
}

double parse_value(const std::string& text) {
    if (text == "inf") return std::numeric_limits<double>::infinity();
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    RMWP_EXPECT(consumed == text.size());
    return value;
}

std::string render_value(double value) {
    if (std::isinf(value)) return "inf";
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

std::ifstream open_input(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("cannot open for reading: " + path);
    return is;
}

std::ofstream open_output(const std::string& path) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open for writing: " + path);
    return os;
}

/// The first rule a trace-CSV data line breaks, or nullptr when it parses
/// into `out`.  Arrival order spans lines, so the caller checks it.
const char* parse_trace_line(const std::string& line, Request& out) {
    const auto fields = split_csv_line(line);
    if (fields.size() != 3) return "expected 3 fields";
    try {
        out.arrival = parse_value(fields[0]);
        out.type = static_cast<TaskTypeId>(std::stoull(fields[1]));
        out.relative_deadline = parse_value(fields[2]);
    } catch (const std::exception&) {
        return "unparseable field";
    }
    if (!std::isfinite(out.arrival) || out.arrival < 0.0)
        return "arrival must be finite and non-negative";
    if (!std::isfinite(out.relative_deadline) || out.relative_deadline <= 0.0)
        return "relative_deadline must be finite and positive";
    return nullptr;
}

} // namespace

void write_trace_csv(std::ostream& os, const Trace& trace) {
    os << "arrival,type,relative_deadline\n";
    for (const Request& r : trace) {
        os << render_value(r.arrival) << ',' << r.type << ','
           << render_value(r.relative_deadline) << '\n';
    }
}

Trace read_trace_csv(std::istream& is) {
    // The stream's line rules, strict: the first broken rule ends the read.
    TraceCsvStream stream(is, [](const std::string& message) {
        throw std::runtime_error(message);
    });
    std::vector<Request> requests;
    while (const std::optional<Request> request = stream.next()) requests.push_back(*request);
    return Trace(std::move(requests));
}

TraceCsvStream::TraceCsvStream(std::istream& is, std::function<void(const std::string&)> warn)
    : is_(is), warn_(std::move(warn)) {
    if (!warn_)
        warn_ = [](const std::string& message) { std::cerr << message << " — skipped\n"; };
}

std::optional<Request> TraceCsvStream::next() {
    std::string line;
    if (!header_checked_) {
        if (!std::getline(is_, line) || line != "arrival,type,relative_deadline")
            throw std::runtime_error(
                "trace CSV: missing or wrong header (expected \"arrival,type,relative_deadline\")");
        header_checked_ = true;
        line_number_ = 1;
    }

    while (std::getline(is_, line)) {
        ++line_number_;
        if (line.empty()) continue;
        Request r;
        const char* broken = parse_trace_line(line, r);
        // Arrivals are non-negative, so the first line always passes this.
        if (broken == nullptr && r.arrival < last_arrival_)
            broken = "arrivals must be non-decreasing";
        if (broken != nullptr) {
            ++parse_errors_;
            warn_("trace CSV line " + std::to_string(line_number_) + ": " + broken +
                  " (line: \"" + line + "\")");
            continue;
        }
        last_arrival_ = r.arrival;
        ++delivered_;
        return r;
    }
    return std::nullopt;
}

void validate_trace(const Trace& trace, const Catalog& catalog) {
    for (std::size_t j = 0; j < trace.size(); ++j) {
        const Request& r = trace.request(j);
        if (r.type >= catalog.size())
            throw std::runtime_error("trace request " + std::to_string(j) +
                                     " references unknown task type " + std::to_string(r.type) +
                                     " (catalog has " + std::to_string(catalog.size()) +
                                     " types)");
    }
}

void write_trace_csv_file(const std::string& path, const Trace& trace) {
    auto os = open_output(path);
    write_trace_csv(os, trace);
}

Trace read_trace_csv_file(const std::string& path) {
    auto is = open_input(path);
    return read_trace_csv(is);
}

void write_catalog_csv(std::ostream& os, const Catalog& catalog) {
    os << "type,resource,wcet,energy\n";
    for (const TaskType& t : catalog) {
        for (std::size_t i = 0; i < t.resource_count(); ++i) {
            os << t.id() << ',' << i << ',' << render_value(t.wcet(i)) << ','
               << render_value(t.energy(i)) << '\n';
        }
    }
    os << "#migration\n";
    for (const TaskType& t : catalog) {
        for (std::size_t from = 0; from < t.resource_count(); ++from) {
            for (std::size_t to = 0; to < t.resource_count(); ++to) {
                if (from == to) continue;
                os << t.id() << ',' << from << ',' << to << ','
                   << render_value(t.migration_time(from, to)) << ','
                   << render_value(t.migration_energy(from, to)) << '\n';
            }
        }
    }
}

Catalog read_catalog_csv(std::istream& is) {
    // Malformed external input is a user error, not a programming error:
    // every check reports a descriptive std::runtime_error naming the
    // offending 1-based line (same contract as read_trace_csv).
    const auto fail = [](std::size_t line_number, const std::string& what,
                         const std::string& line) {
        throw std::runtime_error("catalog CSV line " + std::to_string(line_number) + ": " + what +
                                 " (line: \"" + line + "\")");
    };

    std::string line;
    if (!std::getline(is, line) || line != "type,resource,wcet,energy")
        throw std::runtime_error(
            "catalog CSV: missing or wrong header (expected \"type,resource,wcet,energy\")");

    struct TypeData {
        std::map<std::size_t, std::pair<double, double>> cost; // resource -> (wcet, energy)
        std::map<std::pair<std::size_t, std::size_t>, std::pair<double, double>> migration;
    };
    std::map<std::size_t, TypeData> data;

    bool in_migration = false;
    std::size_t resource_count = 0;
    std::size_t line_number = 1;
    while (std::getline(is, line)) {
        ++line_number;
        if (line.empty()) continue;
        if (line == "#migration") {
            in_migration = true;
            continue;
        }
        const auto fields = split_csv_line(line);
        try {
            if (!in_migration) {
                if (fields.size() != 4) fail(line_number, "expected 4 fields", line);
                const auto type = static_cast<std::size_t>(std::stoull(fields[0]));
                const auto resource = static_cast<std::size_t>(std::stoull(fields[1]));
                data[type].cost[resource] = {parse_value(fields[2]), parse_value(fields[3])};
                resource_count = std::max(resource_count, resource + 1);
            } else {
                if (fields.size() != 5) fail(line_number, "expected 5 fields", line);
                const auto type = static_cast<std::size_t>(std::stoull(fields[0]));
                const auto from = static_cast<std::size_t>(std::stoull(fields[1]));
                const auto to = static_cast<std::size_t>(std::stoull(fields[2]));
                data[type].migration[{from, to}] = {parse_value(fields[3]),
                                                    parse_value(fields[4])};
            }
        } catch (const std::runtime_error&) {
            throw;
        } catch (const std::exception&) {
            fail(line_number, "unparseable field", line);
        }
    }
    if (data.empty()) throw std::runtime_error("catalog CSV: no task types");

    std::vector<TaskType> types;
    types.reserve(data.size());
    std::size_t expected_id = 0;
    for (const auto& [type_id, record] : data) {
        if (type_id != expected_id++)
            throw std::runtime_error("catalog CSV: task type ids must be contiguous from 0 "
                                     "(missing type " +
                                     std::to_string(expected_id - 1) + ")");
        std::vector<double> wcet(resource_count, kNotExecutable);
        std::vector<double> energy(resource_count, kNotExecutable);
        for (const auto& [resource, cost] : record.cost) {
            wcet[resource] = cost.first;
            energy[resource] = cost.second;
        }
        std::vector<std::vector<double>> cm(resource_count, std::vector<double>(resource_count, 0.0));
        std::vector<std::vector<double>> em(resource_count, std::vector<double>(resource_count, 0.0));
        for (const auto& [pair, overhead] : record.migration) {
            cm[pair.first][pair.second] = overhead.first;
            em[pair.first][pair.second] = overhead.second;
        }
        types.emplace_back(type_id, std::move(wcet), std::move(energy), std::move(cm),
                           std::move(em));
    }
    return Catalog(std::move(types));
}

void write_catalog_csv_file(const std::string& path, const Catalog& catalog) {
    auto os = open_output(path);
    write_catalog_csv(os, catalog);
}

Catalog read_catalog_csv_file(const std::string& path) {
    auto is = open_input(path);
    return read_catalog_csv(is);
}

} // namespace rmwp
