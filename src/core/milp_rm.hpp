// The literal MILP formulation of Sec 4.2, encoded with the big-M method
// onto the in-repo solver (src/milp).
//
// Mapping variables x_{j,i} with the objective
//     minimize sum_j sum_i x_{j,i} * (ep_{j,i} + em_{j,k,i})
// and constraints (1)-(14):
//   (1)  each task on exactly one resource;
//   (2)  encoded structurally — (j,i) pairs with cpm_{j,i} > t_left_j get no
//        variable;
//   (3)  EDF prefix-sum schedulability per resource, relaxed by M*x_{p,i}
//        on the resource that hosts the predicted task;
//   (6)  unconditional prefix sums over SL1 (deadline <= d_p);
//   (4/5,7-14)  the predicted-task cases via q_i, chunk start/end variables
//        for SL2 tasks, chunk-before/after-tau_p binaries, and pairwise
//        SL2 ordering binaries.
// On non-preemptable resources the second chunk is forced empty (no
// preemption, Sec 4.1), which leaves the solver free to order tau_p and SL2
// tasks — a slight superset of the boundary-EDF executed by the engine, so
// the MILP mapping's optimum can only be <= the branch-and-bound optimum
// (asserted in tests).  The per-activation cost makes this RM suitable for
// validation and microbenchmarks, matching the paper's own observation that
// the MILP "is not applicable in practice".
#pragma once

#include <optional>
#include <span>

#include "core/manager.hpp"
#include "core/plan_instance.hpp"
#include "milp/milp.hpp"

namespace rmwp {

class MilpRM final : public LadderRM {
public:
    MilpRM() = default;
    explicit MilpRM(milp::MilpOptions options) : options_(std::move(options)) {}

    /// The Sec 4.2 MILP as the ladder's solver.  Each instance carries at
    /// most one predicted request (the formulation's single q_i).  Never
    /// clears `proven`: the solver does not separate a proof of
    /// infeasibility from an exhausted budget.
    [[nodiscard]] std::optional<std::span<const ResourceId>> solve(const PlanInstance& instance,
                                                                   Purpose purpose,
                                                                   bool& proven) const override;
    [[nodiscard]] std::string name() const override { return "milp"; }

    struct Result {
        std::vector<ResourceId> mapping;
        double energy = 0.0;
        bool proven_optimal = true;
        std::uint64_t nodes = 0;
    };

    /// Encode and solve one instance; nullopt when the MILP is infeasible.
    [[nodiscard]] static std::optional<Result> optimize(const PlanInstance& instance,
                                                        const milp::MilpOptions& options = {});

    /// Expose the encoding itself (for tests that inspect the model).
    [[nodiscard]] static milp::LinearProgram encode(const PlanInstance& instance);

private:
    [[nodiscard]] RejectReason rejection(bool /*proven*/) const override {
        return RejectReason::solver_infeasible;
    }
    /// Per-bucket optima are not proven to merge bit-identically
    /// (DESIGN.md §15).
    [[nodiscard]] bool decomposes() const noexcept override { return false; }

    milp::MilpOptions options_;
};

} // namespace rmwp
