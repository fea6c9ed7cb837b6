#include "exp/config.hpp"

#include "core/baseline_rm.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/milp_rm.hpp"
#include "util/check.hpp"

namespace rmwp {

const char* to_string(RmKind kind) noexcept {
    switch (kind) {
    case RmKind::heuristic: return "heuristic";
    case RmKind::exact: return "exact";
    case RmKind::milp: return "milp";
    case RmKind::baseline: return "baseline";
    }
    return "unknown";
}

std::optional<RmKind> rm_kind_from_string(std::string_view name) noexcept {
    for (const RmKind kind : {RmKind::heuristic, RmKind::exact, RmKind::milp, RmKind::baseline})
        if (name == to_string(kind)) return kind;
    return std::nullopt;
}

std::unique_ptr<ResourceManager> make_rm(RmKind kind) {
    switch (kind) {
    case RmKind::heuristic: return std::make_unique<HeuristicRM>();
    case RmKind::exact: return std::make_unique<ExactRM>();
    case RmKind::milp: return std::make_unique<MilpRM>();
    case RmKind::baseline: return std::make_unique<BaselineRM>();
    }
    RMWP_ENSURE(false);
}

Platform ExperimentConfig::make_platform() const {
    PlatformBuilder builder;
    for (std::size_t i = 1; i <= cpu_count; ++i) builder.add_cpu("CPU" + std::to_string(i));
    for (std::size_t i = 1; i <= gpu_count; ++i)
        builder.add_gpu(gpu_count == 1 ? "GPU" : "GPU" + std::to_string(i));
    return builder.build();
}

ExperimentConfig ExperimentConfig::paper(DeadlineGroup group, std::uint64_t seed) {
    ExperimentConfig config;
    config.seed = seed;
    config.trace.group = group;
    return config;
}

std::string RunSpec::label() const {
    return std::string(to_string(rm)) + "/" + predictor.label();
}

} // namespace rmwp
