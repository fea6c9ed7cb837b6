#include "core/exact_rm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>

#include "core/edf.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Error-free cost accumulator for the branch-and-bound (DESIGN.md §15).
///
/// A plain `double` running sum resolves real-valued cost ties by
/// rounding noise, and that noise depends on accumulation order: the
/// monolithic solve interleaves every resource group's terms while a
/// per-shard sub-solve sums only its own bucket's, so two same-type
/// tasks whose swapped placements cost exactly the same could come out
/// swapped between the two paths.  Admission costs are sums of at most
/// a few dozen task energies of similar magnitude, so the exact sum
/// fits comfortably in the 106 significand bits of a renormalised
/// double-double pair — and exact sums are order-independent, which
/// restores bit-identity between the whole-instance and per-bucket
/// searches.  The pair is kept canonical (hi carries the rounded
/// value, |lo| <= ulp(hi)/2), so equal reals compare equal and the
/// lexicographic comparison below is a true real comparison.
struct ExactSum {
    double hi = 0.0;
    double lo = 0.0;

    [[nodiscard]] ExactSum plus(double x) const {
        // Knuth two-sum of (hi, x), fold in lo, renormalise.  Exact as
        // long as the true sum's significand fits the pair, which holds
        // for any realistic cost scale (terms within ~15 binades).
        const double s = hi + x;
        const double b = s - hi;
        const double err = ((hi - (s - b)) + (x - b)) + lo;
        const double h = s + err;
        return ExactSum{h, err - (h - s)};
    }

    [[nodiscard]] bool less_than(const ExactSum& other) const {
        if (hi != other.hi) return hi < other.hi;
        return lo < other.lo;
    }
};

/// Depth-first search state.  Pooled thread-locally (search_scratch):
/// admission runs the search thousands of times per trace, and the
/// per-call vector churn (order, suffix bounds, per-resource partial
/// schedules, candidate lists) was pure allocator traffic.
struct Search {
    const PlanInstance* instance = nullptr;
    const ExactRM::Options* options = nullptr;

    std::vector<std::size_t> order;           ///< task indices, most-constrained first
    std::vector<ExactSum> min_cost_suffix;    ///< optimistic cost of order[d..]
    std::vector<std::vector<ScheduleItem>> assigned; ///< per-resource partial schedule
    /// Task j's executable resources, cheapest first:
    /// candidates[candidate_begin[j] .. candidate_begin[j + 1]).
    std::vector<ResourceId> candidates;
    std::vector<std::size_t> candidate_begin; ///< count + 1 offsets

    std::vector<ResourceId> current;          ///< current[j] = resource of tasks[j]
    std::vector<ResourceId> best;
    ExactSum best_cost{kInfinity, 0.0};
    bool proven = true;
    std::uint64_t nodes = 0;

    void reset(const PlanInstance& inst, const ExactRM::Options& opts) {
        instance = &inst;
        options = &opts;
        const std::size_t count = inst.tasks.size();
        const std::size_t n = inst.resource_count();

        // Critical-reservation blocks are fixed occupants of every partial
        // schedule the search explores; demand order lets the probe loop
        // keep the lists incrementally sorted.
        if (assigned.size() < n) assigned.resize(n);
        for (ResourceId i = 0; i < n; ++i) {
            assigned[i].clear();
            assigned[i].insert(assigned[i].end(), inst.blocks()[i].begin(), inst.blocks()[i].end());
            std::sort(assigned[i].begin(), assigned[i].end(), demand_order);
        }
        current.assign(count, 0);
        best.clear();
        best_cost = ExactSum{kInfinity, 0.0};
        proven = true;
        nodes = 0;

        // Most-constrained-first ordering: fewest executable resources,
        // then earliest deadline, then instance position.  Pinned tasks
        // have a single option, so they land at the front and act as fixed
        // context for everything after them.  The final tie-break totalises
        // the order (std::sort is unstable): the search's exploration order
        // — and with it the returned optimum under cost ties — is then a
        // pure function of the instance, which is what lets a sharded
        // sub-solve reproduce the sequential result bit for bit
        // (DESIGN.md §15; a sub-instance preserves instance position).
        order.resize(count);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return std::tuple(inst.executable(a).size(), inst.tasks[a].abs_deadline, a) <
                   std::tuple(inst.executable(b).size(), inst.tasks[b].abs_deadline, b);
        });

        // Cheapest-first exploration finds a good incumbent early.  The
        // order depends on the instance alone, so it is sorted once here,
        // not at every node.  Resource id breaks energy ties so the order
        // is total: under equal-cost optima the incumbent that survives
        // the strict `<` improvement test is then the same whether the
        // task set arrived whole or as a per-shard sub-instance.
        candidates.clear();
        candidate_begin.resize(count + 1);
        for (std::size_t j = 0; j < count; ++j) {
            candidate_begin[j] = candidates.size();
            const auto executable = inst.executable(j);
            const auto epm = inst.epm(j);
            candidates.insert(candidates.end(), executable.begin(), executable.end());
            std::sort(candidates.begin() + static_cast<std::ptrdiff_t>(candidate_begin[j]),
                      candidates.end(), [&](ResourceId a, ResourceId b) {
                          return std::pair(epm[a], a) < std::pair(epm[b], b);
                      });
        }
        candidate_begin[count] = candidates.size();

        min_cost_suffix.assign(count + 1, ExactSum{});
        for (std::size_t d = count; d-- > 0;) {
            const auto epm = inst.epm(order[d]);
            double cheapest = kInfinity;
            for (const ResourceId i : inst.executable(order[d]))
                cheapest = std::min(cheapest, epm[i]);
            min_cost_suffix[d] = std::isfinite(cheapest) && std::isfinite(min_cost_suffix[d + 1].hi)
                                     ? min_cost_suffix[d + 1].plus(cheapest)
                                     : ExactSum{kInfinity, 0.0};
        }
    }

    /// True when `cost` plus the optimistic suffix can still strictly
    /// improve on the incumbent.  Every operand is an exact sum, so this
    /// is a real comparison: ties prune (keeping the lex-first optimum)
    /// and the verdict is the same whether the instance is solved whole
    /// or as per-shard sub-instances.
    [[nodiscard]] bool can_improve(const ExactSum& cost, const ExactSum& suffix) const {
        if (!std::isfinite(suffix.hi)) return false;
        return cost.plus(suffix.hi).plus(suffix.lo).less_than(best_cost);
    }

    void dfs(std::size_t depth, ExactSum cost) {
        if (nodes >= options->node_limit) {
            proven = false;
            return;
        }
        ++nodes;

        if (depth == order.size()) {
            // The bound let this leaf through only on a strict improvement
            // (the suffix past the last depth is zero), so it is the new
            // incumbent; a bound that admitted ties would trip this.
            RMWP_ENSURE(cost.less_than(best_cost));
            best_cost = cost;
            best = current;
            return;
        }
        if (!can_improve(cost, min_cost_suffix[depth])) return; // bound

        const std::size_t j = order[depth];
        const auto epm = instance->epm(j);
        for (std::size_t c = candidate_begin[j]; c < candidate_begin[j + 1]; ++c) {
            const ResourceId i = candidates[c];
            const ExactSum next_cost = cost.plus(epm[i]);
            if (!can_improve(next_cost, min_cost_suffix[depth + 1])) continue;

            // Operating points of a DVFS core share the core's timeline, so
            // partial schedules are kept per physical anchor.
            const ResourceId anchor = instance->platform->resource(i).physical();
            const std::size_t pos =
                insert_demand_ordered(assigned[anchor], instance->item_for(j, i));
            // Adding a task to a core can only hurt that core's EDF
            // feasibility, so checking the touched core alone is exact.
            if (resource_feasible_sorted(instance->platform->resource(anchor), instance->now,
                                         assigned[anchor])) {
                current[j] = i;
                dfs(depth + 1, next_cost);
            }
            assigned[anchor].erase(assigned[anchor].begin() + static_cast<std::ptrdiff_t>(pos));
            if (!proven && best.empty()) return; // out of budget with no incumbent
        }
    }
};

Search& search_scratch() {
    static thread_local Search search;
    return search;
}

/// Run the search on this thread's pooled state and return it: the
/// incumbent (empty when none was found) stays valid until the next search
/// on the thread.
const Search& run_search(const PlanInstance& instance, const ExactRM::Options& options) {
    RMWP_STAGE_SCOPE(obs::Stage::solve);
    RMWP_EXPECT(instance.platform != nullptr);
    RMWP_EXPECT(instance.blocks().size() == instance.platform->size());
    Search& search = search_scratch();
    search.reset(instance, options);
    search.dfs(0, ExactSum{});
    RMWP_ENSURE(search.best.empty() || search.best.size() == instance.tasks.size());
    return search;
}

} // namespace

std::optional<ExactRM::Result> ExactRM::optimize(const PlanInstance& instance,
                                                 const Options& options, bool* proven_out) {
    RMWP_EXPECT(instance.platform != nullptr);
    const Search& search = run_search(instance, options);
    if (proven_out != nullptr) *proven_out = search.proven;
    if (search.best.empty()) return std::nullopt;
    Result result;
    result.mapping = search.best; // copy: the incumbent buffer stays pooled
    result.energy = search.best_cost.hi;
    result.proven_optimal = search.proven;
    result.nodes = search.nodes;
    return result;
}

std::optional<std::span<const ResourceId>> ExactRM::solve(const PlanInstance& instance,
                                                          Purpose purpose, bool& proven) const {
    RMWP_EXPECT(instance.platform != nullptr);
    Options options = options_;
    if (purpose == Purpose::rescue)
        options.node_limit = std::min(options_.node_limit, options_.rescue_node_limit);
    const Search& search = run_search(instance, options);
    if (search.best.empty()) {
        proven = proven && search.proven;
        return std::nullopt;
    }
    return std::span<const ResourceId>(search.best);
}

} // namespace rmwp
