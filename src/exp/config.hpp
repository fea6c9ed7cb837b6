// Experiment configuration: the platform/catalog/trace setup of Sec 5.1
// plus which RM and predictor to run.  The defaults reproduce the paper's
// configuration; bench binaries scale trace counts to the host budget via
// environment variables (see runner.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/manager.hpp"
#include "fault/fault.hpp"
#include "platform/platform.hpp"
#include "predict/predictor.hpp"
#include "workload/catalog.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {

/// Which resource manager implementation to run.
enum class RmKind {
    heuristic, ///< Algorithm 1 (Sec 4.3)
    exact,     ///< branch-and-bound exact optimiser (the MILP's role, Sec 4.2)
    milp,      ///< the literal big-M MILP encoding on the in-repo solver
    baseline,  ///< greedy non-replanning admission (ours, for ablation)
};

[[nodiscard]] const char* to_string(RmKind kind) noexcept;
/// The RmKind whose to_string is `name`; nullopt for any other name.
[[nodiscard]] std::optional<RmKind> rm_kind_from_string(std::string_view name) noexcept;
[[nodiscard]] std::unique_ptr<ResourceManager> make_rm(RmKind kind);

struct ExperimentConfig {
    std::uint64_t seed = 42;
    std::size_t cpu_count = 5;
    std::size_t gpu_count = 1;
    CatalogParams catalog;
    TraceGenParams trace;
    std::size_t trace_count = 500;
    /// Fault injection (fault-tolerance extension).  The default is
    /// fault-free, which leaves every existing experiment bit-identical.
    /// When any rate is set, the runner generates one deterministic fault
    /// schedule per trace (its own seed stream) covering the trace horizon.
    FaultParams fault;

    [[nodiscard]] Platform make_platform() const;

    /// Paper configuration for one deadline group.
    [[nodiscard]] static ExperimentConfig paper(DeadlineGroup group, std::uint64_t seed = 42);
};

/// One (RM, predictor) pairing to evaluate.
struct RunSpec {
    RmKind rm = RmKind::heuristic;
    PredictorSpec predictor;

    [[nodiscard]] std::string label() const;
};

} // namespace rmwp
