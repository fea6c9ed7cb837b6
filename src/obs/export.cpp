#include "obs/export.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace rmwp::obs {
namespace {

std::string lane_name(const ExportOptions& options, std::int64_t resource) {
    const auto index = static_cast<std::size_t>(resource);
    if (resource >= 0 && index < options.resource_names.size())
        return options.resource_names[index];
    return "R" + std::to_string(resource);
}

/// Mirrors FaultKind (src/fault/fault.hpp) as carried in the event aux
/// field; the simulator pins the correspondence where it emits.
const char* fault_span_name(std::uint32_t aux) {
    switch (aux) {
    case 0: return "OUTAGE";
    case 1: return "PERMANENT FAILURE";
    case 2: return "THROTTLE";
    default: return "FAULT";
    }
}

/// The RM decision lane's thread id — far above any realistic resource id
/// so the lane sorts last in the viewer.
constexpr std::int64_t kRmLaneTid = 1000;

constexpr double kMsToUs = 1000.0; // simulated ms -> trace microseconds

} // namespace

void append_event_jsonl(std::string& out, const TraceEvent& event, bool include_host_time) {
    out += "{\"t_sim\":";
    append_json_number(out, event.t_sim);
    if (include_host_time) {
        out += ",\"t_host\":";
        append_json_number(out, event.t_host);
    }
    // Event kind names are [a-z_] by construction — no string escaping.
    out += ",\"kind\":\"";
    out += to_string(event.kind);
    out += "\",\"task\":";
    if (event.task == kNoTask) out += "null";
    else out += std::to_string(event.task);
    out += ",\"resource\":";
    if (event.resource < 0) out += "null";
    else out += std::to_string(event.resource);
    out += ",\"detail\":";
    append_json_number(out, event.detail);
    out += ",\"aux\":";
    out += std::to_string(event.aux);
    out += "}\n";
}

void write_events_jsonl(std::ostream& out, std::span<const TraceEvent> events,
                        const ExportOptions& options) {
    std::string line;
    for (const TraceEvent& event : events) {
        line.clear();
        append_event_jsonl(line, event, options.include_host_time);
        out << line;
    }
}

std::vector<TraceEvent> read_events_jsonl(std::istream& in) {
    std::vector<TraceEvent> events;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        const auto fail = [&](const std::string& message) -> void {
            throw std::runtime_error("events jsonl line " + std::to_string(line_number) + ": " +
                                     message);
        };
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

        JsonValue value{nullptr};
        try {
            value = json_parse(line);
        } catch (const json_error& error) {
            fail(error.what());
        }
        if (!value.is_object()) fail("expected one JSON object per line");

        const auto number_field = [&](const char* key) -> double {
            const JsonValue* field = value.find(key);
            if (field == nullptr || !field->is_number())
                fail(std::string("missing or non-numeric field \"") + key + "\"");
            return field->as_number();
        };

        TraceEvent event;
        event.t_sim = number_field("t_sim");

        const JsonValue* kind = value.find("kind");
        if (kind == nullptr || !kind->is_string()) fail("missing or non-string field \"kind\"");
        if (!parse_event_kind(kind->as_string().c_str(), event.kind))
            fail("unknown event kind \"" + kind->as_string() + "\"");

        const JsonValue* task = value.find("task");
        if (task == nullptr) fail("missing field \"task\"");
        if (task->is_null()) {
            event.task = kNoTask;
        } else if (task->is_uint64()) {
            event.task = task->as_uint64();
        } else {
            fail("field \"task\" must be null or a non-negative integer");
        }

        const JsonValue* resource = value.find("resource");
        if (resource == nullptr) fail("missing field \"resource\"");
        if (resource->is_null()) {
            event.resource = kNoResource;
        } else if (resource->is_uint64()) {
            event.resource = static_cast<std::int64_t>(resource->as_uint64());
        } else {
            fail("field \"resource\" must be null or a non-negative integer");
        }

        event.detail = number_field("detail");

        const JsonValue* aux = value.find("aux");
        if (aux == nullptr || !aux->is_uint64() || aux->as_uint64() > 0xFFFFFFFFu)
            fail("field \"aux\" must be an unsigned 32-bit integer");
        event.aux = static_cast<std::uint32_t>(aux->as_uint64());

        if (const JsonValue* host = value.find("t_host")) {
            if (!host->is_number()) fail("field \"t_host\" must be a number");
            event.t_host = host->as_number();
        }
        events.push_back(event);
    }
    return events;
}

namespace {

/// Emitter for one trace_event record; tracks the need for separators.
/// Each record is formatted into a reused buffer and streamed out whole.
class ChromeWriter {
public:
    explicit ChromeWriter(std::ostream& out) : out_(out) { out_ << "{\"traceEvents\": [\n"; }

    void finish() { out_ << "\n]}\n"; }

    void metadata(std::int64_t tid, const std::string& name) {
        begin(tid, "M", "thread_name");
        record_ += R"(, "args": {"name": )";
        append_json_string(record_, name);
        record_ += '}';
        end();
    }

    void complete(std::int64_t tid, const std::string& name, double ts_us, double dur_us) {
        begin(tid, "X", name);
        record_ += ", \"ts\": ";
        append_json_number(record_, ts_us);
        record_ += ", \"dur\": ";
        append_json_number(record_, dur_us);
        end();
    }

    void instant(std::int64_t tid, const std::string& name, double ts_us) {
        begin(tid, "i", name);
        record_ += ", \"ts\": ";
        append_json_number(record_, ts_us);
        record_ += R"(, "s": "t")";
        end();
    }

private:
    void begin(std::int64_t tid, const char* phase, std::string_view name) {
        record_.clear();
        if (!first_) record_ += ",\n";
        first_ = false;
        record_ += R"({"ph": ")";
        record_ += phase;
        record_ += R"(", "pid": 0, "tid": )";
        record_ += std::to_string(tid);
        record_ += ", \"name\": ";
        append_json_string(record_, name);
    }

    void end() {
        record_ += '}';
        out_ << record_;
    }

    std::ostream& out_;
    std::string record_;
    bool first_ = true;
};

} // namespace

void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events,
                        const ExportOptions& options) {
    ChromeWriter writer(out);
    writer.metadata(kRmLaneTid, "RM");

    // Name every resource lane that appears (plus all configured names, so
    // idle resources still show up as empty lanes).
    std::vector<std::int64_t> lanes;
    const auto ensure_lane = [&](std::int64_t resource) {
        for (const std::int64_t lane : lanes)
            if (lane == resource) return;
        lanes.push_back(resource);
        writer.metadata(resource, lane_name(options, resource));
    };
    for (std::size_t i = 0; i < options.resource_names.size(); ++i)
        ensure_lane(static_cast<std::int64_t>(i));
    for (const TraceEvent& event : events)
        if (event.resource >= 0) ensure_lane(event.resource);

    double horizon_us = 0.0;
    for (const TraceEvent& event : events)
        horizon_us = std::max(horizon_us, event.t_sim * kMsToUs);

    // Open fault spans per resource: onset opens, recovery closes; spans
    // still open at the end of the stream (permanent failures) run to the
    // horizon so the outage gap stays visible.
    struct OpenFault {
        std::int64_t resource;
        double start_us;
        std::uint32_t aux;
        double factor;
    };
    std::vector<OpenFault> open_faults;

    for (const TraceEvent& event : events) {
        const double ts = event.t_sim * kMsToUs;
        const std::string task_label =
            event.task == kNoTask ? std::string("-") : std::to_string(event.task);
        switch (event.kind) {
        case EventKind::exec:
            writer.complete(event.resource, "task " + task_label, ts, event.detail * kMsToUs);
            break;
        case EventKind::preempt:
            writer.instant(event.resource, "preempt task " + task_label, ts);
            break;
        case EventKind::complete:
            writer.instant(event.resource >= 0 ? event.resource : kRmLaneTid,
                           "complete task " + task_label, ts);
            break;
        case EventKind::fault_onset:
            open_faults.push_back({event.resource, ts, event.aux, event.detail});
            break;
        case EventKind::fault_recovery: {
            for (std::size_t k = open_faults.size(); k-- > 0;) {
                if (open_faults[k].resource != event.resource) continue;
                writer.complete(event.resource, fault_span_name(open_faults[k].aux),
                                open_faults[k].start_us, ts - open_faults[k].start_us);
                open_faults.erase(open_faults.begin() + static_cast<std::ptrdiff_t>(k));
                break;
            }
            break;
        }
        case EventKind::arrival:
            writer.instant(kRmLaneTid, "arrival task " + task_label, ts);
            break;
        case EventKind::admit:
            writer.instant(kRmLaneTid,
                           "admit task " + task_label + " -> " +
                               lane_name(options, event.resource),
                           ts);
            break;
        case EventKind::reject:
            writer.instant(kRmLaneTid,
                           "reject task " + task_label + " (reason " +
                               std::to_string(event.aux) + ")",
                           ts);
            break;
        case EventKind::migrate:
            writer.instant(kRmLaneTid,
                           "migrate task " + task_label + " " + lane_name(options, event.resource) +
                               " -> " + lane_name(options, static_cast<std::int64_t>(event.aux)),
                           ts);
            break;
        case EventKind::abort_overhead:
            writer.instant(kRmLaneTid, "abort task " + task_label, ts);
            break;
        case EventKind::rescue_begin:
            writer.instant(kRmLaneTid, "rescue activation", ts);
            break;
        case EventKind::rescue_keep:
            writer.instant(kRmLaneTid,
                           "rescue keep task " + task_label + " -> " +
                               lane_name(options, event.resource),
                           ts);
            break;
        case EventKind::rescue_abort:
            writer.instant(kRmLaneTid, "rescue abort task " + task_label, ts);
            break;
        case EventKind::plan_rebuild:
            writer.instant(kRmLaneTid, "plan rebuild", ts);
            break;
        }
    }

    for (const OpenFault& fault : open_faults)
        writer.complete(fault.resource, fault_span_name(fault.aux), fault.start_us,
                        std::max(horizon_us - fault.start_us, 0.0));
    writer.finish();
}

std::string sanitize_label(std::string_view label) {
    std::string out;
    out.reserve(label.size());
    for (const char c : label) {
        const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
        out.push_back(keep ? c : '-');
    }
    return out;
}

} // namespace rmwp::obs
