#include "core/heuristic_rm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/edf.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The big-M of line 6: large enough to dominate any energy difference yet
/// finite so a desirability order still exists among infeasible choices.
constexpr double kBigM = 1e9;

} // namespace

std::optional<std::span<const ResourceId>> HeuristicRM::map_tasks(const PlanInstance& instance,
                                                              const Options& options) {
    RMWP_STAGE_SCOPE(obs::Stage::solve);
    const std::size_t n = instance.resource_count();
    const std::size_t count = instance.tasks.size();

    const Platform& platform = *instance.platform;

    PlanScratch& s = PlanScratch::local();
    s.reset(instance);

    // Lines 1-6: capacities and desirabilities.  Capacities live on
    // *physical* cores (operating points of a DVFS core share one
    // timeline), and critical reservations are carved out up front (Sec 2:
    // the adaptive policy runs "over the remaining set of resources").
    for (ResourceId i = 0; i < n; ++i)
        s.capacity[i] = instance.window - instance.blocked_time()[i];

    // One option per (task, executable resource), in `executable` order.
    // The same pass counts, per physical anchor, the tasks with options
    // there (user_next holds the last task counted on each anchor).
    for (std::size_t j = 0; j < count; ++j) {
        const PlanTask& task = instance.tasks[j];
        const auto cpm_row = instance.cpm(j);
        const auto epm_row = instance.epm(j);
        s.option_begin[j] = s.options.size();
        for (const ResourceId i : instance.executable(j)) {
            const double cpm = cpm_row[i];
            const double epm = epm_row[i];
            const double penalty = cpm > task.time_left(instance.now) ? kBigM : 0.0;
            const double base =
                options.desirability == Options::Desirability::energy ? epm : epm / cpm;
            const ResourceId anchor = s.phys[i];
            s.options.push_back({base + penalty, cpm, i, anchor, false});
            if (s.user_next[anchor] != j) {
                s.user_next[anchor] = j;
                ++s.user_begin[anchor + 1];
            }
        }
    }
    s.option_begin[count] = s.options.size();

    // The invalidation index, by counting sort: users[user_begin[a] ..
    // user_begin[a + 1]) are the tasks with options on anchor a, in task
    // order, each with the smallest and largest of its cpm there; and
    // user_max_cpm[a], the largest of all their cpm.
    for (ResourceId a = 0; a < n; ++a) {
        s.user_begin[a + 1] += s.user_begin[a];
        s.user_next[a] = s.user_begin[a];
    }
    s.users.resize(s.user_begin[n]);
    for (std::size_t j = 0; j < count; ++j) {
        for (std::size_t o = s.option_begin[j]; o < s.option_begin[j + 1]; ++o) {
            const PlanScratch::Option& option = s.options[o];
            s.user_max_cpm[option.anchor] = std::max(s.user_max_cpm[option.anchor], option.cpm);
            std::size_t& next = s.user_next[option.anchor];
            if (next > s.user_begin[option.anchor] && s.users[next - 1].task == j) {
                PlanScratch::AnchorUser& user = s.users[next - 1];
                user.min_cpm = std::min(user.min_cpm, option.cpm);
                user.max_cpm = std::max(user.max_cpm, option.cpm);
            } else {
                s.users[next++] = {j, option.cpm, option.cpm};
            }
        }
    }

    // A task's regret and best option read only its exclusions and the
    // tests cpm > capacity[anchor]; they are recomputed only when one of
    // those can have changed, so each pass refreshes just the dirty list.
    // The regret is the selection key: the max-regret order's d* (+inf
    // with a single feasible option), or the ablation orders' key (minus
    // the deadline, or a constant so the first unmapped task wins).
    // Returns whether the task still has a feasible option (line 22).
    auto refresh = [&](std::size_t j) {
        const std::size_t last = s.option_begin[j + 1];
        double best = kInfinity;
        double second = kInfinity;
        std::size_t feasible = 0;
        std::size_t chosen = last;
        for (std::size_t o = s.option_begin[j]; o < last; ++o) {
            const PlanScratch::Option& option = s.options[o];
            if (option.excluded || option.cpm > s.capacity[option.anchor]) continue;
            ++feasible;
            if (option.f < best) {
                second = best;
                best = option.f;
                chosen = o;
            } else if (option.f < second) {
                second = option.f;
            }
        }
        s.best_option[j] = chosen;
        switch (options.order) {
        case Options::Order::max_regret:
            s.regret[j] = feasible == 1 ? kInfinity : second - best;
            break;
        case Options::Order::edf: s.regret[j] = -instance.tasks[j].abs_deadline; break;
        case Options::Order::arrival: s.regret[j] = 0.0; break;
        }
        return feasible > 0;
    };

    for (std::size_t j = 0; j < count; ++j)
        if (!refresh(j)) return std::nullopt; // line 22: no solution

    for (std::size_t unmapped = count; unmapped > 0; --unmapped) {
        for (const std::size_t j : s.dirty)
            if (!refresh(j)) return std::nullopt;
        s.dirty.clear();

        // Lines 8-23: pick the task with the maximum regret d*, the first
        // on ties (the strict > keeps it, a first +inf included); mapped
        // tasks hold -inf and never win.  The scan selects without a
        // branch, since which task leads is data no branch predictor
        // learns.
        double best_regret = -kInfinity;
        std::size_t best_task = count;
        for (std::size_t j = 0; j < count; ++j) {
            const bool better = s.regret[j] > best_regret;
            best_regret = better ? s.regret[j] : best_regret;
            best_task = better ? j : best_task;
        }
        RMWP_ENSURE(best_task < count);

        // Lines 24-34: map the chosen task to its most desirable resource
        // that passes the schedulability check — the option its last
        // refresh found; a failed probe excludes it and refreshes again.
        const std::size_t last = s.option_begin[best_task + 1];
        for (;;) {
            const std::size_t chosen = s.best_option[best_task];
            if (chosen == last) return std::nullopt; // lines 31-32: no more resources
            PlanScratch::Option& target = s.options[chosen];

            // The per-anchor lists stay demand-ordered across probes
            // (insert / erase-at-index), so the schedulability check scans
            // them in place instead of re-sorting per probe.
            const ResourceId anchor = target.anchor;
            const std::size_t pos = insert_demand_ordered(
                s.assigned[anchor], instance.item_for(best_task, target.resource));
            if (resource_feasible_sorted(platform.resource(anchor), instance.now,
                                         s.assigned[anchor])) {
                s.mapping[best_task] = target.resource;
                s.mapped[best_task] = 1;
                s.regret[best_task] = -kInfinity;
                const double before = s.capacity[anchor];
                s.capacity[anchor] -= target.cpm;
                const double after = s.capacity[anchor];
                // A test cpm > capacity flips only for a cpm in
                // (after, before]: dirty exactly the unmapped tasks whose
                // cpm range on this anchor meets that interval.  When the
                // anchor's largest cpm does not exceed `after`, none does:
                // the placement is done.
                if (s.user_max_cpm[anchor] <= after) break;
                for (std::size_t u = s.user_begin[anchor]; u < s.user_begin[anchor + 1]; ++u) {
                    const PlanScratch::AnchorUser& user = s.users[u];
                    if (s.mapped[user.task]) continue;
                    if (user.max_cpm > after && user.min_cpm <= before)
                        s.dirty.push_back(user.task);
                }
                break;
            }
            s.assigned[anchor].erase(s.assigned[anchor].begin() +
                                     static_cast<std::ptrdiff_t>(pos));
            target.excluded = true;
            refresh(best_task);
        }
    }

    return std::span<const ResourceId>(s.mapping);
}

std::optional<std::span<const ResourceId>> HeuristicRM::solve(const PlanInstance& instance,
                                                              Purpose /*purpose*/,
                                                              bool& /*proven*/) const {
    RMWP_EXPECT(instance.platform != nullptr);
    return map_tasks(instance, options_);
}

} // namespace rmwp
