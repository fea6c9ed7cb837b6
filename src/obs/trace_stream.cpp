#include "obs/trace_stream.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace rmwp::obs {
namespace {

constexpr const char* kIndexName = "index.json";

[[nodiscard]] std::string shard_name(std::uint64_t sequence) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "events-%05llu.jsonl",
                  static_cast<unsigned long long>(sequence));
    return buffer;
}

} // namespace

TraceStreamWriter::TraceStreamWriter(std::string directory, TraceStreamOptions options)
    : directory_(std::move(directory)), options_(options) {
    if (options_.max_events_per_shard == 0 || options_.max_bytes_per_shard == 0)
        throw std::runtime_error("trace stream: shard budgets must be positive");
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec)
        throw std::runtime_error("trace stream: cannot create directory '" + directory_ +
                                 "': " + ec.message());
    open_shard();
    write_index();
}

TraceStreamWriter::~TraceStreamWriter() {
    try {
        finish();
    } catch (...) { // NOLINT(bugprone-empty-catch): destructor must not throw
    }
}

void TraceStreamWriter::append(const TraceEvent& event) {
    if (finished_) throw std::runtime_error("trace stream: append after finish");
    if (current_.events >= options_.max_events_per_shard ||
        current_.bytes >= options_.max_bytes_per_shard) {
        seal_shard();
        open_shard();
        write_index();
    }
    line_.clear();
    append_event_jsonl(line_, event, options_.include_host_time);
    out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
    if (!out_)
        throw std::runtime_error("trace stream: write failed on shard '" + current_.file + "'");
    if (current_.events == 0) current_.first_t_sim = event.t_sim;
    current_.last_t_sim = event.t_sim;
    ++current_.events;
    current_.bytes += line_.size();
    ++total_events_;
    total_bytes_ += line_.size();
}

void TraceStreamWriter::finish() {
    if (finished_) return;
    seal_shard();
    write_index();
    finished_ = true;
}

std::uint64_t TraceStreamWriter::shard_count() const noexcept {
    return sealed_.size() + (shard_open_ ? 1 : 0);
}

void TraceStreamWriter::open_shard() {
    current_ = ShardInfo{};
    current_.file = shard_name(next_shard_++);
    const std::string path = directory_ + "/" + current_.file;
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_) throw std::runtime_error("trace stream: cannot open shard '" + path + "'");
    shard_open_ = true;
}

void TraceStreamWriter::seal_shard() {
    if (!shard_open_) return;
    out_.flush();
    out_.close();
    if (out_.fail())
        throw std::runtime_error("trace stream: flush failed on shard '" + current_.file + "'");
    // An empty trailing shard (finish right after rotation, or no events at
    // all) stays on disk but is still listed — consumers see a consistent
    // directory either way.
    sealed_.push_back(current_);
    shard_open_ = false;
}

void TraceStreamWriter::write_index() const {
    JsonValue shards = JsonValue::array();
    const auto add_shard = [&](const ShardInfo& shard) {
        shards.push(JsonValue::object()
                        .set("file", shard.file)
                        .set("events", shard.events)
                        .set("bytes", shard.bytes)
                        .set("first_t_sim", shard.first_t_sim)
                        .set("last_t_sim", shard.last_t_sim));
    };
    for (const ShardInfo& shard : sealed_) add_shard(shard);
    if (shard_open_) add_shard(current_);
    const std::string body = JsonValue::object()
                                 .set("version", 1)
                                 .set("shards", std::move(shards))
                                 .set("total_events", total_events_)
                                 .set("total_bytes", total_bytes_)
                                 .dump() +
                             "\n";

    const std::string tmp = directory_ + "/" + kIndexName + ".tmp";
    const std::string final_path = directory_ + "/" + kIndexName;
    {
        std::ofstream index(tmp, std::ios::binary | std::ios::trunc);
        index.write(body.data(), static_cast<std::streamsize>(body.size()));
        index.flush();
        if (!index)
            throw std::runtime_error("trace stream: cannot write index '" + tmp + "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, final_path, ec);
    if (ec)
        throw std::runtime_error("trace stream: cannot publish index '" + final_path +
                                 "': " + ec.message());
}

TraceStreamIndex TraceStreamIndex::load(const std::string& directory) {
    const std::string path = directory + "/" + kIndexName;
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("trace stream: cannot open index '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();

    const JsonValue root = json_parse(text.str());
    if (!root.is_object()) throw std::runtime_error("trace stream index: not a JSON object");
    const auto number_field = [&](const JsonValue& object, const char* key,
                                  bool exact) -> const JsonValue& {
        const JsonValue* field = object.find(key);
        if (field == nullptr || !(exact ? field->is_uint64() : field->is_number()))
            throw std::runtime_error(std::string("trace stream index: missing numeric field \"") +
                                     key + "\"");
        return *field;
    };
    const auto u64_field = [&](const JsonValue& object, const char* key) {
        return number_field(object, key, true).as_uint64();
    };
    const auto double_field = [&](const JsonValue& object, const char* key) {
        return number_field(object, key, false).as_number();
    };

    TraceStreamIndex index;
    const JsonValue* shards = root.find("shards");
    if (shards == nullptr || !shards->is_array())
        throw std::runtime_error("trace stream index: missing \"shards\" array");
    for (const JsonValue& entry : shards->as_array()) {
        if (!entry.is_object())
            throw std::runtime_error("trace stream index: shard entry is not an object");
        const JsonValue* file = entry.find("file");
        if (file == nullptr || !file->is_string())
            throw std::runtime_error("trace stream index: shard entry lacks \"file\"");
        index.shards.push_back({file->as_string(), u64_field(entry, "events"),
                                u64_field(entry, "bytes"), double_field(entry, "first_t_sim"),
                                double_field(entry, "last_t_sim")});
    }
    index.total_events = u64_field(root, "total_events");
    index.total_bytes = u64_field(root, "total_bytes");
    return index;
}

} // namespace rmwp::obs
