// Exact energy-optimal mapping via branch-and-bound (the role the MILP of
// Sec 4.2 plays in the paper's experiments).
//
// Per activation the decision space is exactly the set of task->resource
// mappings: once the mapping is fixed, per-resource EDF (with the predicted
// task's release-time semantics) determines schedulability, and the energy
// objective sum_j epm_{j, map(j)} depends only on the mapping.  The search
// enumerates mappings depth-first with
//   * incremental per-resource EDF feasibility pruning (adding a task to a
//     resource never improves that resource's feasibility), and
//   * an admissible lower bound (assigned cost + sum of per-task minima).
// It therefore returns the same optimum as the paper's MILP at a fraction
// of the cost; src/milp provides the literal big-M MILP encoding, and the
// test suite cross-checks the two on random instances.
#pragma once

#include <cstdint>
#include <optional>

#include "core/manager.hpp"
#include "core/plan_instance.hpp"

namespace rmwp {

class ExactRM final : public ResourceManager {
public:
    struct Options {
        /// Safety valve on pathological instances; the search falls back to
        /// the best feasible mapping found so far once exhausted.  The
        /// default is far above what the paper's workloads ever need.
        std::uint64_t node_limit = 20'000'000;
        /// Node budget per solve during fault rescue.  Rescue instances are
        /// frequently infeasible (that is why the rescue ran), and proving
        /// infeasibility exhausts the whole tree — under the admission
        /// budget one degraded activation could stall the platform for
        /// seconds.  A tight budget keeps recovery latency bounded; when it
        /// runs out without an incumbent the ladder simply sheds the next
        /// victim, which is safe (never unschedulable, at worst one abort
        /// more than the true optimum).
        std::uint64_t rescue_node_limit = 200'000;
    };

    ExactRM() = default;
    explicit ExactRM(Options options) : options_(options) {}

    /// Admission over the shared BatchPlanner base: one plan rebuild per
    /// batch, bit-identical decisions to deciding the items one at a time.
    /// With shard_config().shards > 1 the ladder solves per resource group
    /// on the ShardedSolver (DESIGN.md §15).
    void decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) override;
    [[nodiscard]] RescueDecision rescue(const RescueContext& context) override;
    [[nodiscard]] std::string name() const override { return "exact"; }

    struct Result {
        std::vector<ResourceId> mapping; ///< indexed like instance.tasks
        double energy = 0.0;             ///< sum of epm over the mapping
        bool proven_optimal = true;      ///< false iff the node limit was hit
        std::uint64_t nodes = 0;
    };

    /// Find the minimum-energy feasible mapping; nullopt when infeasible.
    /// With `proven_out`, reports whether a nullopt is a *proof* of
    /// infeasibility (search tree exhausted) or only the node budget
    /// running out with no incumbent — the distinction behind the
    /// proved_infeasible vs solver_infeasible rejection reasons.
    [[nodiscard]] static std::optional<Result> optimize(const PlanInstance& instance,
                                                        const Options& options,
                                                        bool* proven_out = nullptr);
    [[nodiscard]] static std::optional<Result> optimize(const PlanInstance& instance) {
        return optimize(instance, Options{});
    }

private:
    Options options_;
};

} // namespace rmwp
