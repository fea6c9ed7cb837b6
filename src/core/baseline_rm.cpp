#include "core/baseline_rm.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "core/edf.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

/// Greedy frozen placement over a prediction-free instance: existing tasks
/// stay on their current resources (the plan row fill records them as
/// pinned_resource), and only the trailing candidate is probed, cheapest
/// resource first.  Returns the full per-task mapping (frozen homes +
/// candidate's slot) or nullopt when the candidate fits nowhere.
std::optional<std::span<const ResourceId>> place_frozen(const PlanInstance& instance) {
    RMWP_EXPECT(instance.platform != nullptr && !instance.has_predicted());
    const Platform& platform = *instance.platform;
    const std::size_t n = instance.resource_count();
    const std::size_t candidate_index = instance.tasks.size() - 1;
    RMWP_EXPECT(instance.tasks[candidate_index].is_candidate);

    // Pooled per-anchor schedules: reservation blocks plus the frozen
    // actives, demand-sorted once so candidate probes are insert/erase.
    static thread_local std::vector<std::vector<ScheduleItem>> occupied;
    static thread_local std::vector<ResourceId> order;
    static thread_local std::vector<ResourceId> mapping;
    if (occupied.size() < n) occupied.resize(n);
    for (ResourceId i = 0; i < n; ++i) {
        occupied[i].clear();
        occupied[i].insert(occupied[i].end(), instance.blocks()[i].begin(),
                           instance.blocks()[i].end());
    }
    mapping.assign(instance.tasks.size(), 0);
    for (std::size_t j = 0; j < candidate_index; ++j) {
        const ResourceId home = instance.tasks[j].pinned_resource;
        occupied[platform.resource(home).physical()].push_back(instance.item_for(j, home));
        mapping[j] = home;
    }
    for (ResourceId i = 0; i < n; ++i)
        std::sort(occupied[i].begin(), occupied[i].end(), demand_order);

    // Cheapest-first placement of the candidate only.
    const auto executable = instance.executable(candidate_index);
    const auto epm = instance.epm(candidate_index);
    order.assign(executable.begin(), executable.end());
    std::sort(order.begin(), order.end(),
              [&](ResourceId a, ResourceId b) { return epm[a] < epm[b]; });

    for (const ResourceId i : order) {
        const ResourceId anchor = platform.resource(i).physical();
        const std::size_t pos =
            insert_demand_ordered(occupied[anchor], instance.item_for(candidate_index, i));
        if (resource_feasible_sorted(platform.resource(anchor), instance.now,
                                     occupied[anchor])) {
            mapping[candidate_index] = i;
            return std::span<const ResourceId>(mapping);
        }
        occupied[anchor].erase(occupied[anchor].begin() + static_cast<std::ptrdiff_t>(pos));
    }
    return std::nullopt;
}

} // namespace

void BaselineRM::decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) {
    RMWP_EXPECT(batch.platform != nullptr && batch.catalog != nullptr);
    BatchPlanner planner(batch);
    out.clear();
    out.reserve(batch.items.size());
    for (std::size_t m = 0; m < planner.item_count(); ++m) {
        // Prediction-free rung only: the baseline never climbs the ladder.
        const PlanInstance& instance = planner.assemble(m, 0);
        Decision decision;
        if (const auto mapping = place_frozen(instance)) {
            decision = planner.admit(m, *mapping);
        } else {
            decision.reason = RejectReason::baseline_no_fit;
        }
        out.push_back(std::move(decision));
    }
    RMWP_ENSURE(out.size() == batch.items.size());
}

} // namespace rmwp
