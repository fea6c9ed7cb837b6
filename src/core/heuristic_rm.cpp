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
        s.capacity[i] = instance.window - instance.blocked_time[i];

    // One option per (task, executable resource), in `executable` order.
    // The same pass counts, per physical anchor, the tasks with options
    // there (user_next holds the last task counted on each anchor).
    for (std::size_t j = 0; j < count; ++j) {
        const PlanTask& task = instance.tasks[j];
        s.option_begin[j] = s.options.size();
        for (const ResourceId i : task.executable) {
            const double cpm = task.cpm[i];
            const double penalty = cpm > task.time_left(instance.now) ? kBigM : 0.0;
            const double base = options.desirability == Options::Desirability::energy
                                    ? task.epm[i]
                                    : task.epm[i] / cpm;
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
    // order, each with the smallest and largest of its cpm there.
    for (ResourceId a = 0; a < n; ++a) {
        s.user_begin[a + 1] += s.user_begin[a];
        s.user_next[a] = s.user_begin[a];
    }
    s.users.resize(s.user_begin[n]);
    for (std::size_t j = 0; j < count; ++j) {
        for (std::size_t o = s.option_begin[j]; o < s.option_begin[j + 1]; ++o) {
            const PlanScratch::Option& option = s.options[o];
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

    // A task's (best, second-best, feasible-count) triple reads only its
    // exclusions and the tests cpm > capacity[anchor]; it is recomputed
    // only when one of those can have changed, so the outer loop's rescan
    // is O(dirty tasks), not O(all tasks).
    auto refresh = [&](std::size_t j) {
        double best = kInfinity;
        double second = kInfinity;
        std::size_t feasible = 0;
        for (std::size_t o = s.option_begin[j]; o < s.option_begin[j + 1]; ++o) {
            const PlanScratch::Option& option = s.options[o];
            if (option.excluded || option.cpm > s.capacity[option.anchor]) continue;
            ++feasible;
            if (option.f < best) {
                second = best;
                best = option.f;
            } else if (option.f < second) {
                second = option.f;
            }
        }
        s.best_f[j] = best;
        s.second_f[j] = second;
        s.feasible_count[j] = feasible;
        s.dirty[j] = 0;
    };

    std::size_t unmapped = count;
    while (unmapped > 0) {
        // Lines 8-23: pick the task with the maximum regret d* (or, under an
        // ablation ordering, the next unmapped task by deadline / arrival —
        // the feasibility bookkeeping stays identical).
        double best_regret = -kInfinity;
        std::size_t best_task = count;
        for (std::size_t j = 0; j < count; ++j) {
            if (s.mapped[j]) continue;
            if (s.dirty[j]) refresh(j);
            if (s.feasible_count[j] == 0) return std::nullopt; // line 22: no solution

            switch (options.order) {
            case Options::Order::max_regret: {
                const double regret =
                    s.feasible_count[j] == 1 ? kInfinity : s.second_f[j] - s.best_f[j];
                if (regret > best_regret) {
                    best_regret = regret;
                    best_task = j;
                }
                break;
            }
            case Options::Order::edf:
                if (best_task == count ||
                    instance.tasks[j].abs_deadline < instance.tasks[best_task].abs_deadline)
                    best_task = j;
                break;
            case Options::Order::arrival:
                if (best_task == count) best_task = j;
                break;
            }
        }
        RMWP_ENSURE(best_task < count);

        // Lines 24-34: map the chosen task to its most desirable resource
        // that passes the schedulability check.
        const std::size_t first = s.option_begin[best_task];
        const std::size_t last = s.option_begin[best_task + 1];
        bool placed = false;
        while (!placed) {
            double best_f = kInfinity;
            std::size_t chosen = last;
            for (std::size_t o = first; o < last; ++o) {
                const PlanScratch::Option& option = s.options[o];
                if (option.excluded || option.cpm > s.capacity[option.anchor]) continue;
                if (option.f < best_f) {
                    best_f = option.f;
                    chosen = o;
                }
            }
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
                const double before = s.capacity[anchor];
                s.capacity[anchor] -= target.cpm;
                const double after = s.capacity[anchor];
                placed = true;
                --unmapped;
                // A test cpm > capacity flips only for a cpm in
                // (after, before]: dirty exactly the unmapped tasks whose
                // cpm range on this anchor meets that interval.
                for (std::size_t u = s.user_begin[anchor]; u < s.user_begin[anchor + 1]; ++u) {
                    const PlanScratch::AnchorUser& user = s.users[u];
                    if (s.mapped[user.task]) continue;
                    if (user.max_cpm > after && user.min_cpm <= before) s.dirty[user.task] = 1;
                }
            } else {
                s.assigned[anchor].erase(s.assigned[anchor].begin() +
                                         static_cast<std::ptrdiff_t>(pos));
                target.excluded = true;
                s.dirty[best_task] = 1;
            }
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
