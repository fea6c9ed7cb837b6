// The paper's fast heuristic (Algorithm 1): a max-regret knapsack mapper.
//
// Resources are knapsacks of capacity K-bar (the planning-window length);
// task weights are the occupied times cpm_{j,i}; desirability
// f_{j,i} = epm_{j,i} + M * [cpm_{j,i} > t_left_j].  Tasks are mapped in
// decreasing order of regret (gap between the best and second-best
// desirability); each mapping must pass the EDF IsSchedulable check, falling
// back to the next-best resource until the candidate list is exhausted.
//
// Cost model of one solve over N tasks with O options in total (one per
// task and executable resource, L per task) on A physical anchors:
//   * set-up, O(O + A): the options, and by counting sort each anchor's
//     users with their cpm range, plus each anchor's largest option cpm;
//   * selection, O(N^2) in total: each of the N passes scans the dense
//     array of N cached regrets once, without branching;
//   * invalidation: a placement scans its anchor's users only when the
//     anchor's largest cpm exceeds the capacity left, and dirties only
//     users whose cpm range crosses the capacity step; each dirty task's
//     refresh costs O(L);
//   * probes: one EDF check of the target anchor's demand-ordered list
//     per tried option, kept sorted by insertion.
#pragma once

#include "core/manager.hpp"
#include "core/plan_instance.hpp"

#include <optional>
#include <span>

namespace rmwp {

class HeuristicRM final : public LadderRM {
public:
    /// Ablation knobs (the defaults are the paper's Algorithm 1; the
    /// alternatives quantify how much each design choice contributes — see
    /// bench_ablations).
    struct Options {
        /// Order in which tasks are mapped.
        enum class Order {
            max_regret, ///< largest best-vs-second-best desirability gap (paper)
            edf,        ///< earliest deadline first
            arrival,    ///< instance order (active tasks, then candidate)
        };
        /// Desirability measure f_{j,i}.
        enum class Desirability {
            energy,         ///< epm_{j,i} (paper)
            energy_density, ///< epm_{j,i} / cpm_{j,i} (energy per occupied ms)
        };
        Order order = Order::max_regret;
        Desirability desirability = Desirability::energy;
    };

    HeuristicRM() = default;
    explicit HeuristicRM(Options options) : options_(options) {}

    /// Algorithm 1 (map_tasks) as the ladder's solver; never clears
    /// `proven`.
    [[nodiscard]] std::optional<std::span<const ResourceId>> solve(const PlanInstance& instance,
                                                                   Purpose purpose,
                                                                   bool& proven) const override;
    [[nodiscard]] std::string name() const override { return "heuristic"; }

    /// Run Algorithm 1 on a prepared instance.  Returns the per-task mapping
    /// (indexed like instance.tasks) or nullopt when no feasible mapping of
    /// the complete task set was found.  The span views this thread's
    /// PlanScratch arena — valid until the next map_tasks call on the same
    /// thread; copy it to keep it (keeps the admission hot path free of
    /// per-decision heap allocations, pinned by tests/test_alloc_count.cpp).
    [[nodiscard]] static std::optional<std::span<const ResourceId>> map_tasks(
        const PlanInstance& instance, const Options& options);
    [[nodiscard]] static std::optional<std::span<const ResourceId>> map_tasks(
        const PlanInstance& instance) {
        return map_tasks(instance, Options{});
    }

private:
    /// Algorithm 1 is incomplete: a rejection means the regret-driven
    /// search was exhausted, not that no schedulable mapping exists
    /// (Sec 5.2).
    [[nodiscard]] RejectReason rejection(bool /*proven*/) const override {
        return RejectReason::heuristic_exhausted;
    }
    [[nodiscard]] bool decomposes() const noexcept override { return true; }

    Options options_;
};

} // namespace rmwp
