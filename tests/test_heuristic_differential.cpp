// Differential suite for Algorithm 1 (HeuristicRM::map_tasks).
//
// The reference below is the solver's earlier formulation, kept here as an
// oracle: dense count x n desirability and exclusion matrices, and after
// every placement a refresh of each unmapped task that can use the anchor
// at all (every task, beyond 64 anchors).  The production solver keeps one
// option list per task and re-scores a task only when the anchor's
// capacity crosses one of the task's cpm values there.  Both must return
// the same mapping, or nullopt together, on every instance.
//
// The seeded instances cover every Options::Order x Options::Desirability,
// DVFS operating points (several resources on one anchor), reservation
// blocks, pinned non-preemptable heads, predicted tails, throttled cores,
// tight windows (so capacities really cross cpm values — the reference
// counts the re-scores that changed a task's triple, and each platform
// must see some), and a platform with more than 64 anchors.  Each platform
// must also see a failed probe followed by a re-pick on the same task (the
// production solver places on the option its refresh found) and a
// selection pass where several tasks tie at an infinite regret (the first
// one wins).
//
// A second reference pins the plan-row fill: a dense loop over every
// resource, through the task-state cost functions, against the rows
// PlanInstance::build fills from each type's executable resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/edf.hpp"
#include "core/heuristic_rm.hpp"
#include "core/plan_instance.hpp"
#include "core/reservation.hpp"
#include "core/task_state.hpp"
#include "platform/health.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"

namespace rmwp {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kBigM = 1e9;

/// What the reference solver saw while solving.
struct Coverage {
    /// Re-scores whose triple differs from the one the task held before,
    /// i.e. capacity changes that mattered.
    std::size_t crossings = 0;
    /// Failed probes after which the same task was probed on another option.
    std::size_t repicks = 0;
    /// Max-regret selection passes with two or more tasks at +inf regret.
    std::size_t infinite_ties = 0;
};

/// The reference solver.
std::optional<std::vector<ResourceId>> reference_map_tasks(const PlanInstance& instance,
                                                           const HeuristicRM::Options& options,
                                                           Coverage& coverage) {
    using Options = HeuristicRM::Options;
    const std::size_t n = instance.resource_count();
    const std::size_t count = instance.tasks.size();
    const Platform& platform = *instance.platform;

    std::vector<double> capacity(n);
    std::vector<double> f(count * n, kInfinity);
    std::vector<std::uint8_t> excluded(count * n, 0);
    std::vector<std::uint8_t> mapped(count, 0);
    std::vector<ResourceId> mapping(count, 0);
    std::vector<double> best_f(count, kInfinity);
    std::vector<double> second_f(count, kInfinity);
    std::vector<std::size_t> feasible_count(count, 0);
    std::vector<std::uint8_t> dirty(count, 1);
    std::vector<std::uint8_t> scored(count, 0);
    std::vector<std::uint64_t> anchor_mask(count, 0);
    std::vector<std::vector<ScheduleItem>> assigned(n);
    std::vector<ResourceId> phys(n);
    for (ResourceId i = 0; i < n; ++i) {
        phys[i] = platform.resource(i).physical();
        assigned[i] = instance.blocks()[i];
        std::sort(assigned[i].begin(), assigned[i].end(), demand_order);
        capacity[i] = instance.window - instance.blocked_time()[i];
    }

    const bool use_masks = n <= 64;
    for (std::size_t j = 0; j < count; ++j) {
        const PlanTask& task = instance.tasks[j];
        double* row = f.data() + j * n;
        for (const ResourceId i : instance.executable(j)) {
            const double cpm = instance.cpm(j)[i];
            const double epm = instance.epm(j)[i];
            const double penalty = cpm > task.time_left(instance.now) ? kBigM : 0.0;
            const double base =
                options.desirability == Options::Desirability::energy ? epm : epm / cpm;
            row[i] = base + penalty;
            if (use_masks) anchor_mask[j] |= std::uint64_t{1} << phys[i];
        }
    }

    auto refresh = [&](std::size_t j) {
        const double* row = f.data() + j * n;
        const std::uint8_t* row_excluded = excluded.data() + j * n;
        double best = kInfinity;
        double second = kInfinity;
        std::size_t feasible = 0;
        for (const ResourceId i : instance.executable(j)) {
            if (row_excluded[i] || instance.cpm(j)[i] > capacity[phys[i]]) continue;
            ++feasible;
            if (row[i] < best) {
                second = best;
                best = row[i];
            } else if (row[i] < second) {
                second = row[i];
            }
        }
        if (scored[j] && (best != best_f[j] || second != second_f[j] ||
                          feasible != feasible_count[j]))
            ++coverage.crossings;
        scored[j] = 1;
        best_f[j] = best;
        second_f[j] = second;
        feasible_count[j] = feasible;
        dirty[j] = 0;
    };

    std::size_t unmapped = count;
    while (unmapped > 0) {
        double best_regret = -kInfinity;
        std::size_t best_task = count;
        std::size_t infinite = 0;
        for (std::size_t j = 0; j < count; ++j) {
            if (mapped[j]) continue;
            if (dirty[j]) refresh(j);
            if (feasible_count[j] == 0) return std::nullopt;
            switch (options.order) {
            case Options::Order::max_regret: {
                const double regret =
                    feasible_count[j] == 1 ? kInfinity : second_f[j] - best_f[j];
                if (regret == kInfinity) ++infinite;
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
        if (infinite > 1) ++coverage.infinite_ties;

        const double* row = f.data() + best_task * n;
        std::uint8_t* row_excluded = excluded.data() + best_task * n;
        bool placed = false;
        bool failed_probe = false;
        while (!placed) {
            double best = kInfinity;
            ResourceId target = n;
            for (const ResourceId i : instance.executable(best_task)) {
                if (row_excluded[i] || instance.cpm(best_task)[i] > capacity[phys[i]]) continue;
                if (row[i] < best) {
                    best = row[i];
                    target = i;
                }
            }
            if (target == n) return std::nullopt;
            if (failed_probe) ++coverage.repicks;
            const ResourceId anchor = phys[target];
            const std::size_t pos =
                insert_demand_ordered(assigned[anchor], instance.item_for(best_task, target));
            if (resource_feasible_sorted(platform.resource(anchor), instance.now,
                                         assigned[anchor])) {
                mapping[best_task] = target;
                mapped[best_task] = 1;
                capacity[anchor] -= instance.cpm(best_task)[target];
                placed = true;
                --unmapped;
                for (std::size_t j = 0; j < count; ++j) {
                    if (mapped[j]) continue;
                    if (!use_masks || ((anchor_mask[j] >> anchor) & 1u)) dirty[j] = 1;
                }
            } else {
                assigned[anchor].erase(assigned[anchor].begin() +
                                       static_cast<std::ptrdiff_t>(pos));
                row_excluded[target] = 1;
                dirty[best_task] = 1;
                failed_probe = true;
            }
        }
    }
    return mapping;
}

/// Paper platform: five CPUs and a GPU (6 anchors).
/// DVFS platform: two three-level DVFS cores, two plain CPUs and a GPU
/// (5 anchors, 9 resources).
/// Wide platform: 64 CPUs, four two-level DVFS cores and two GPUs
/// (70 anchors, 74 resources) — beyond any 64-bit anchor mask.
enum class Shape { paper, dvfs, wide };

Platform make_platform(Shape shape) {
    switch (shape) {
    case Shape::paper: return make_paper_platform();
    case Shape::dvfs: {
        PlatformBuilder builder;
        builder.add_cpu_with_dvfs({1.0, 0.7, 0.4}, "big0");
        builder.add_cpu_with_dvfs({1.0, 0.6, 0.3}, "big1");
        builder.add_cpu("little0");
        builder.add_cpu("little1");
        builder.add_gpu("GPU");
        return builder.build();
    }
    case Shape::wide: {
        PlatformBuilder builder;
        for (int k = 0; k < 64; ++k) builder.add_cpu("CPU" + std::to_string(k));
        for (int k = 0; k < 4; ++k)
            builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS" + std::to_string(k));
        builder.add_gpu("GPU0");
        builder.add_gpu("GPU1");
        return builder.build();
    }
    }
    return make_paper_platform();
}

/// A platform with two catalogs: the Sec 5.1 one (every type runs on every
/// CPU) and an islands one (types confined to a few anchors, so capacities
/// fill up even on the wide platform).
struct World {
    Platform platform;
    Catalog open;
    Catalog islands;

    explicit World(Shape shape)
        : platform(make_platform(shape)), open([&] {
              Rng rng(11 + static_cast<std::uint64_t>(shape));
              return generate_catalog(platform, CatalogParams{.type_count = 24}, rng);
          }()),
          islands([&] {
              Rng rng(23 + static_cast<std::uint64_t>(shape));
              const std::size_t count = shape == Shape::wide ? 16 : 2;
              return generate_partitioned_catalog(platform, CatalogParams{.type_count = 24},
                                                  count, rng);
          }()) {}
};

/// One random activation on `world`; the instance is built by
/// PlanInstance::build from it, as the admission ladder would.
struct Activation {
    std::vector<ActiveTask> active;
    PlatformHealth health;
    std::optional<ReservationTable> reservations;
    ArrivalContext context;

    Activation(const World& world, const Catalog& catalog, std::uint64_t seed) {
        Rng rng(seed);
        const Platform& platform = world.platform;
        const Time now = rng.uniform(0.0, 50.0);
        const bool tight = rng.bernoulli(0.6);
        // Deadline = now + slack x the type's mean WCET: tight windows hold
        // about one task per anchor, loose ones many.
        const auto deadline = [&](const TaskType& type) {
            const double slack = tight ? rng.uniform(0.6, 2.5) : rng.uniform(2.0, 12.0);
            return now + slack * type.mean_wcet();
        };

        if (rng.bernoulli(0.3)) {
            std::vector<CriticalTask> critical;
            const std::size_t blocks = 1 + rng.index(3);
            for (std::size_t b = 0; b < blocks; ++b) {
                const Resource& resource = platform.resource(rng.index(platform.size()));
                const Time period = rng.uniform(10.0, 60.0);
                critical.push_back(CriticalTask{"critical" + std::to_string(b),
                                                resource.physical(), period,
                                                rng.uniform(0.0, period),
                                                rng.uniform(0.5, 0.3 * period), 1.0});
            }
            reservations.emplace(std::move(critical));
        }
        if (rng.bernoulli(0.2)) {
            const ResourceId victim = platform.resource(rng.index(platform.size())).physical();
            health.set_throttle(platform, victim, rng.uniform(1.1, 1.8));
        }

        const std::size_t task_count =
            rng.index(platform.size() > 64 ? 48 : (tight ? 14 : 28));
        std::vector<std::uint8_t> head_taken(platform.size(), 0);
        for (std::size_t j = 0; j < task_count; ++j) {
            ActiveTask task;
            task.uid = j;
            task.type = rng.index(catalog.size());
            const TaskType& type = catalog.type(task.type);
            const auto& resources = type.executable_resources();
            task.resource = resources[rng.index(resources.size())];
            task.arrival = now - rng.uniform(0.0, 10.0);
            task.absolute_deadline = deadline(type);
            if (rng.bernoulli(0.4)) {
                task.started = true;
                task.remaining_fraction = rng.uniform(0.1, 1.0);
                const Resource& resource = platform.resource(task.resource);
                // One pinned head per non-preemptable core, as in the engine.
                if (!resource.preemptable() && !head_taken[resource.physical()]) {
                    task.pinned = true;
                    head_taken[resource.physical()] = 1;
                } else if (!resource.preemptable()) {
                    task.started = false;
                    task.remaining_fraction = 1.0;
                }
            }
            active.push_back(task);
        }

        context.now = now;
        context.platform = &platform;
        context.catalog = &catalog;
        context.active = active;
        context.health = &health;
        context.reservations = reservations.has_value() ? &*reservations : nullptr;
        context.candidate.uid = 1000;
        context.candidate.type = rng.index(catalog.size());
        context.candidate.arrival = now;
        context.candidate.absolute_deadline = deadline(catalog.type(context.candidate.type));
        const std::size_t lookahead = rng.index(3);
        for (std::size_t p = 0; p < lookahead; ++p) {
            const TaskTypeId type = rng.index(catalog.size());
            context.predicted.push_back(PredictedTask{
                type, now + rng.uniform(0.0, 15.0),
                (tight ? rng.uniform(0.8, 2.5) : rng.uniform(2.0, 10.0)) *
                    catalog.type(type).mean_wcet()});
        }
    }
};

struct Tally {
    std::size_t solved = 0;
    std::size_t rejected = 0;
    Coverage coverage;
};

/// Solve every ladder rung of one activation under all six option pairs
/// with both solvers and require identical outcomes.
void check_activation(const Activation& activation, std::uint64_t seed, Tally& tally) {
    using Options = HeuristicRM::Options;
    for (std::size_t k = activation.context.predicted.size() + 1; k-- > 0;) {
        const PlanInstance instance = PlanInstance::build(activation.context, k);
        for (const auto order :
             {Options::Order::max_regret, Options::Order::edf, Options::Order::arrival}) {
            for (const auto desirability :
                 {Options::Desirability::energy, Options::Desirability::energy_density}) {
                const Options options{order, desirability};
                const auto reference = reference_map_tasks(instance, options, tally.coverage);
                const auto solved = HeuristicRM::map_tasks(instance, options);
                ASSERT_EQ(reference.has_value(), solved.has_value())
                    << "seed " << seed << " rung " << k << " order "
                    << static_cast<int>(order) << " desirability "
                    << static_cast<int>(desirability);
                if (!solved.has_value()) {
                    ++tally.rejected;
                    continue;
                }
                ++tally.solved;
                ASSERT_EQ(*reference, std::vector<ResourceId>(solved->begin(), solved->end()))
                    << "seed " << seed << " rung " << k << " order "
                    << static_cast<int>(order) << " desirability "
                    << static_cast<int>(desirability);
            }
        }
    }
}

void run_shape(Shape shape, std::uint64_t seeds) {
    const World world(shape);
    Tally tally;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
        const Catalog& catalog = seed % 2 == 0 ? world.open : world.islands;
        const Activation activation(world, catalog,
                                    seed * 7919 + static_cast<std::uint64_t>(shape));
        ASSERT_NO_FATAL_FAILURE(check_activation(activation, seed, tally));
    }
    // The instances must exercise both outcomes, real capacity crossings,
    // re-picks after failed probes and ties at infinite regret, or
    // agreement would prove little.
    EXPECT_GT(tally.solved, seeds);
    EXPECT_GT(tally.rejected, seeds / 4);
    EXPECT_GT(tally.coverage.crossings, seeds);
    EXPECT_GT(tally.coverage.repicks, 0u);
    EXPECT_GT(tally.coverage.infinite_ties, 0u);

}

TEST(HeuristicDifferential, PaperPlatformMatchesReference) { run_shape(Shape::paper, 1500); }

TEST(HeuristicDifferential, DvfsPlatformMatchesReference) { run_shape(Shape::dvfs, 1500); }

TEST(HeuristicDifferential, WidePlatformMatchesReference) { run_shape(Shape::wide, 600); }

/// The row-fill reference: every resource of the platform in turn, through
/// the task-state cost functions, as the rows were once filled.
void reference_real_row(const ArrivalContext& context, const ActiveTask& task,
                        std::vector<double>& cpm, std::vector<double>& epm,
                        std::vector<ResourceId>& executable) {
    const std::size_t n = context.platform->size();
    const TaskType& type = context.type_of(task);
    cpm.assign(n, kInfinity);
    epm.assign(n, kInfinity);
    executable.clear();
    for (ResourceId i = 0; i < n; ++i) {
        if (!type.executable_on(i)) continue;
        if (task.pinned && i != task.resource) continue;
        if (!context.health->online(i)) continue;
        cpm[i] = occupied_time(task, type, i) +
                 (context.health->throttle(i) - 1.0) * remaining_time(task, type, i);
        epm[i] = assignment_energy(task, type, i);
        executable.push_back(i);
    }
}

void reference_predicted_row(const ArrivalContext& context, const PredictedTask& predicted,
                             std::vector<double>& cpm, std::vector<double>& epm,
                             std::vector<ResourceId>& executable) {
    const std::size_t n = context.platform->size();
    const TaskType& type = context.catalog->type(predicted.type);
    cpm.assign(n, kInfinity);
    epm.assign(n, kInfinity);
    executable.clear();
    for (ResourceId i = 0; i < n; ++i) {
        if (!type.executable_on(i)) continue;
        if (!context.health->online(i)) continue;
        cpm[i] = type.wcet(i) * context.health->throttle(i);
        epm[i] = type.energy(i);
        executable.push_back(i);
    }
}

TEST(HeuristicDifferential, RowFillMatchesDenseReference) {
    const World world(Shape::dvfs);
    const Platform& platform = world.platform;
    // Which states the seeds reached: started, migrating (a started task
    // with an unpaid migration overhead) and pinned tasks, and rows over a
    // throttled core, an offline core and a DVFS operating point.
    std::size_t started = 0, migrating = 0, pinned = 0, throttled = 0, offline = 0, dvfs = 0;
    std::vector<std::size_t> points(platform.size(), 0); // operating points per anchor
    for (ResourceId i = 0; i < platform.size(); ++i) ++points[platform.resource(i).physical()];
    std::vector<double> cpm, epm;
    std::vector<ResourceId> executable;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        const Catalog& catalog = seed % 2 == 0 ? world.open : world.islands;
        Activation activation(world, catalog, seed * 104729 + 5);
        Rng rng(seed + 77);
        // A fresh mask per seed: one core offline, another throttled.
        PlatformHealth& health = activation.health;
        health = PlatformHealth();
        const ResourceId down = platform.resource(rng.index(platform.size())).physical();
        const ResourceId slow = platform.resource(rng.index(platform.size())).physical();
        health.set_online(platform, down, false);
        if (slow != down) health.set_throttle(platform, slow, rng.uniform(1.1, 2.0));
        for (ActiveTask& task : activation.active) {
            if (task.started && !task.pinned && rng.bernoulli(0.5))
                task.pending_overhead = rng.uniform(0.1, 3.0);
        }
        activation.context.active = activation.active;

        const PlanInstance instance =
            PlanInstance::build(activation.context, activation.context.predicted.size());
        const std::size_t real = activation.active.size() + 1;
        ASSERT_EQ(instance.tasks.size(), real + activation.context.predicted.size());
        for (std::size_t j = 0; j < instance.tasks.size(); ++j) {
            if (j < real) {
                const ActiveTask& task =
                    j + 1 < real ? activation.active[j] : activation.context.candidate;
                reference_real_row(activation.context, task, cpm, epm, executable);
                started += task.started ? 1 : 0;
                migrating += task.pending_overhead > 0.0 ? 1 : 0;
                pinned += task.pinned ? 1 : 0;
                for (const ResourceId i : activation.context.type_of(task).executable_resources()) {
                    throttled += health.throttle(i) > 1.0 ? 1 : 0;
                    offline += health.online(i) ? 0 : 1;
                    dvfs += points[platform.resource(i).physical()] > 1 ? 1 : 0;
                }
            } else {
                reference_predicted_row(activation.context,
                                        activation.context.predicted[j - real], cpm, epm,
                                        executable);
            }
            // Whole rows, every resource's cell included.
            const auto row_cpm = instance.cpm(j);
            const auto row_epm = instance.epm(j);
            const auto row_executable = instance.executable(j);
            ASSERT_EQ(instance.tasks[j].row, j) << "seed " << seed << " task " << j;
            ASSERT_EQ(std::vector<double>(row_cpm.begin(), row_cpm.end()), cpm)
                << "seed " << seed << " task " << j;
            ASSERT_EQ(std::vector<double>(row_epm.begin(), row_epm.end()), epm)
                << "seed " << seed << " task " << j;
            ASSERT_EQ(std::vector<ResourceId>(row_executable.begin(), row_executable.end()),
                      executable)
                << "seed " << seed << " task " << j;
        }
    }
    EXPECT_GT(started, 0u);
    EXPECT_GT(migrating, 0u);
    EXPECT_GT(pinned, 0u);
    EXPECT_GT(throttled, 0u);
    EXPECT_GT(offline, 0u);
    EXPECT_GT(dvfs, 0u);
}

} // namespace
} // namespace rmwp
