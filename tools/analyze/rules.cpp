#include "rules.hpp"

namespace rmwp::analyze {
namespace {

/// Direct dependencies per src/ module (mirrors src/CMakeLists.txt's
/// bottom-up architecture comment and the target_link_libraries graph).
const std::map<std::string, std::set<std::string>>& direct_deps() {
    static const std::map<std::string, std::set<std::string>> deps = {
        {"util", {}},
        {"obs", {"util"}},
        {"exec", {"util"}},
        {"platform", {"util"}},
        {"milp", {"util"}},
        {"workload", {"platform", "util"}},
        {"fault", {"platform", "workload", "util"}},
        {"core", {"milp", "obs", "platform", "workload", "util"}},
        {"predict", {"core", "workload", "util"}},
        {"audit", {"core"}},
        {"metrics", {"obs", "workload", "util"}},
        {"sim", {"audit", "core", "fault", "metrics", "obs", "predict"}},
        {"serve", {"sim"}},
        {"exp", {"sim", "exec"}},
    };
    return deps;
}

std::set<std::string> close_over(const std::string& module,
                                 const std::map<std::string, std::set<std::string>>& deps) {
    std::set<std::string> seen;
    std::vector<std::string> frontier = {module};
    while (!frontier.empty()) {
        const std::string current = frontier.back();
        frontier.pop_back();
        const auto it = deps.find(current);
        if (it == deps.end()) continue;
        for (const std::string& dep : it->second)
            if (seen.insert(dep).second) frontier.push_back(dep);
    }
    return seen;
}

} // namespace

const std::set<std::string>& clock_identifiers() {
    static const std::set<std::string> ids = {
        "steady_clock",  "system_clock", "high_resolution_clock", "file_clock",
        "clock_gettime", "gettimeofday", "timespec_get",          "localtime",
        "gmtime",        "mktime",       "strftime",
    };
    return ids;
}

const std::set<std::string>& entropy_identifiers() {
    static const std::set<std::string> ids = {
        "random_device", "srand", "srand48", "drand48", "getenv", "secure_getenv",
    };
    return ids;
}

const std::set<std::string>& deterministic_modules() {
    // core/sim/exp/predict produce the bit-identity-tested results; workload
    // (seeded generation, CSV round-trips) and fault (seeded schedules) feed
    // them and are held to the same standard.
    static const std::set<std::string> modules = {"core", "sim", "exp",
                                                  "predict", "workload", "fault"};
    return modules;
}

const std::map<std::string, std::set<std::string>>& layering_closure() {
    static const std::map<std::string, std::set<std::string>> closure = [] {
        std::map<std::string, std::set<std::string>> out;
        for (const auto& [module, _] : direct_deps()) out[module] = close_over(module, direct_deps());
        return out;
    }();
    return closure;
}

bool allowlisted(const std::string& rule, const std::string& canonical) {
    const auto starts_with = [&](const char* prefix) { return canonical.rfind(prefix, 0) == 0; };
    if (rule == "R1") {
        // bench/ measures the host by definition; the obs trace sink, the
        // sampled stage profiler, and the telemetry server are the
        // designated host-time scopes (DESIGN.md §14).
        return starts_with("bench/") || starts_with("src/obs/trace_sink.") ||
               starts_with("src/obs/stage_timer.") || starts_with("src/obs/telemetry_server.");
    }
    if (rule == "R2") {
        // src/util/env is the one sanctioned getenv wrapper.
        return starts_with("src/util/env.");
    }
    return false;
}

} // namespace rmwp::analyze
