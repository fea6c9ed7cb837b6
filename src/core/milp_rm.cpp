#include "core/milp_rm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/check.hpp"

namespace rmwp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string tag(const char* prefix, std::size_t a, std::size_t b = SIZE_MAX,
                std::size_t c = SIZE_MAX) {
    std::string out = prefix;
    out += '_' + std::to_string(a);
    if (b != SIZE_MAX) out += '_' + std::to_string(b);
    if (c != SIZE_MAX) out += '_' + std::to_string(c);
    return out;
}

/// Encoding workspace for one instance.
struct Encoder {
    const PlanInstance& instance;
    milp::LinearProgram lp;

    std::size_t task_count;
    std::size_t resource_count;
    std::size_t predicted_index = SIZE_MAX; ///< index into instance.tasks
    double big_m = 0.0;

    /// x[j][i]; -1 when the pair is excluded (constraint (2) or pinning).
    std::vector<std::vector<int>> x;

    explicit Encoder(const PlanInstance& inst)
        : instance(inst),
          task_count(inst.tasks.size()),
          resource_count(inst.resource_count()) {
        for (std::size_t j = 0; j < task_count; ++j)
            if (instance.tasks[j].is_predicted) predicted_index = j;
        compute_big_m();
        make_mapping_variables();
    }

    [[nodiscard]] double tleft(std::size_t j) const {
        return instance.tasks[j].time_left(instance.now);
    }

    [[nodiscard]] double release_rel(std::size_t j) const {
        return instance.tasks[j].release - instance.now;
    }

    void compute_big_m() {
        // Larger than any feasible completion time in the window: total
        // work plus the latest release plus the window itself.
        double total = instance.window + 1.0;
        for (std::size_t j = 0; j < task_count; ++j) {
            double worst = 0.0;
            for (const ResourceId i : instance.executable(j))
                worst = std::max(worst, instance.cpm(j)[i]);
            total += worst;
            total += std::max(0.0, instance.tasks[j].release - instance.now);
        }
        big_m = 4.0 * total;
    }

    void make_mapping_variables() {
        x.assign(task_count, std::vector<int>(resource_count, -1));
        for (std::size_t j = 0; j < task_count; ++j) {
            for (const ResourceId i : instance.executable(j)) {
                // Constraint (2): a mapping that cannot meet the deadline is
                // excluded structurally.  Pinned tasks keep their (single)
                // variable regardless; their admission was already granted.
                if (!instance.tasks[j].pinned && instance.cpm(j)[i] > tleft(j)) continue;
                x[j][i] = lp.add_binary_variable(tag("x", j, i));
                lp.set_objective(x[j][i], instance.epm(j)[i]);
            }
        }
        lp.set_sense(milp::Sense::minimize);
    }

    /// True when every task has at least one admissible mapping variable.
    [[nodiscard]] bool structurally_feasible() const {
        for (std::size_t j = 0; j < task_count; ++j) {
            bool any = false;
            for (std::size_t i = 0; i < resource_count; ++i) any = any || x[j][i] >= 0;
            if (!any) return false;
        }
        return true;
    }

    void add_assignment_constraints() {
        for (std::size_t j = 0; j < task_count; ++j) {
            std::vector<milp::LinearTerm> terms;
            for (std::size_t i = 0; i < resource_count; ++i)
                if (x[j][i] >= 0) terms.push_back({x[j][i], 1.0});
            lp.add_constraint(std::move(terms), milp::Relation::equal, 1.0, tag("assign", j));
        }
    }

    /// Real tasks with a variable on resource i, EDF order with the pinned
    /// task (if on i) first.
    [[nodiscard]] std::vector<std::size_t> sorted_real_tasks(std::size_t i) const {
        std::vector<std::size_t> list;
        for (std::size_t j = 0; j < task_count; ++j) {
            if (j == predicted_index || x[j][i] < 0) continue;
            list.push_back(j);
        }
        std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
            const PlanTask& ta = instance.tasks[a];
            const PlanTask& tb = instance.tasks[b];
            const bool pa = ta.pinned && ta.pinned_resource == i;
            const bool pb = tb.pinned && tb.pinned_resource == i;
            if (pa != pb) return pa;
            if (ta.abs_deadline != tb.abs_deadline) return ta.abs_deadline < tb.abs_deadline;
            return ta.uid < tb.uid;
        });
        return list;
    }

    void add_resource_constraints(std::size_t i) {
        const std::vector<std::size_t> order = sorted_real_tasks(i);
        const bool hosts_predicted =
            predicted_index != SIZE_MAX && x[predicted_index][i] >= 0;
        const int xp = hosts_predicted ? x[predicted_index][i] : -1;
        const double dp =
            hosts_predicted ? instance.tasks[predicted_index].abs_deadline : kInf;

        // Split into SL1 / SL2 relative to the predicted deadline.  The
        // pinned task sits in SL1 by construction (it runs first).
        std::vector<std::size_t> sl1;
        std::vector<std::size_t> sl2;
        for (const std::size_t j : order) {
            const PlanTask& task = instance.tasks[j];
            const bool pinned_here = task.pinned && task.pinned_resource == i;
            if (pinned_here || task.abs_deadline <= dp) sl1.push_back(j);
            else sl2.push_back(j);
        }

        // (3)/(6): EDF prefix sums.  SL1 prefixes hold unconditionally; SL2
        // prefixes are relaxed when the predicted task is hosted here.
        std::vector<milp::LinearTerm> prefix;
        std::size_t position = 0;
        for (const std::size_t j : order) {
            prefix.push_back({x[j][i], instance.cpm(j)[i]});
            ++position;
            std::vector<milp::LinearTerm> terms = prefix;
            double rhs = tleft(j);
            const bool in_sl2 = position > sl1.size();
            if (in_sl2 && hosts_predicted) {
                terms.push_back({xp, -big_m});
                // relax: sum <= tleft_j + M * x_p  ->  sum - M x_p <= tleft_j
            }
            lp.add_constraint(std::move(terms), milp::Relation::less_equal, rhs,
                              tag("edf", i, j));
        }

        if (!hosts_predicted) return;

        const double cp_p = instance.cpm(predicted_index)[i];
        const double sp = release_rel(predicted_index);
        const double tleft_p = tleft(predicted_index);
        const bool preemptable = instance.platform->resource(i).preemptable();

        // q_i (relative to t): completion of SL1 work on this resource.
        const int q = lp.add_variable(tag("q", i), 0.0, kInf);
        {
            std::vector<milp::LinearTerm> terms{{q, -1.0}};
            for (const std::size_t j : sl1) terms.push_back({x[j][i], instance.cpm(j)[i]});
            lp.add_constraint(std::move(terms), milp::Relation::equal, 0.0, tag("qdef", i));
        }

        // The predicted task's (single) chunk.
        const int scp = lp.add_variable(tag("scp", i), 0.0, kInf);
        const int ecp = lp.add_variable(tag("ecp", i), 0.0, kInf);
        lp.add_constraint({{ecp, 1.0}, {scp, -1.0}, {xp, -cp_p}}, milp::Relation::equal, 0.0,
                          tag("pdur", i));
        // (8): scp >= sp - M(1-xp), i.e. active when hosted here.
        lp.add_constraint({{scp, 1.0}, {xp, -big_m}}, milp::Relation::greater_equal, sp - big_m,
                          tag("prel", i));
        // The predicted task queues behind SL1: scp >= q - M(1-xp).
        lp.add_constraint({{scp, 1.0}, {q, -1.0}, {xp, -big_m}}, milp::Relation::greater_equal,
                          -big_m, tag("pq", i));
        // Deadline of the predicted task.
        lp.add_constraint({{ecp, 1.0}, {xp, big_m}}, milp::Relation::less_equal,
                          tleft_p + big_m, tag("pdl", i));

        // Chunk variables for SL2 tasks: sc/ec for chunks 1 and 2.
        std::vector<std::array<int, 4>> chunk(task_count, {-1, -1, -1, -1});
        for (const std::size_t j : sl2) {
            const int sc1 = lp.add_variable(tag("sc", j, i, 1), 0.0, kInf);
            const int ec1 = lp.add_variable(tag("ec", j, i, 1), 0.0, kInf);
            const int sc2 = lp.add_variable(tag("sc", j, i, 2), 0.0, kInf);
            const int ec2 = lp.add_variable(tag("ec", j, i, 2), 0.0, kInf);
            chunk[j] = {sc1, ec1, sc2, ec2};

            // (9): chunks have non-negative length.
            lp.add_constraint({{sc1, 1.0}, {ec1, -1.0}}, milp::Relation::less_equal, 0.0,
                              tag("c9a", j, i));
            lp.add_constraint({{sc2, 1.0}, {ec2, -1.0}}, milp::Relation::less_equal, 0.0,
                              tag("c9b", j, i));
            // (10): chunk 1 precedes chunk 2.
            lp.add_constraint({{ec1, 1.0}, {sc2, -1.0}}, milp::Relation::less_equal, 0.0,
                              tag("c10", j, i));
            // (11): the chunks cover exactly the remaining work when mapped.
            lp.add_constraint(
                {{ec1, 1.0}, {sc1, -1.0}, {ec2, 1.0}, {sc2, -1.0}, {x[j][i], -instance.cpm(j)[i]}},
                milp::Relation::equal, 0.0, tag("c11", j, i));
            // No preemption on GPUs (Sec 4.1): the second chunk is empty.
            if (!preemptable)
                lp.add_constraint({{ec2, 1.0}, {sc2, -1.0}}, milp::Relation::equal, 0.0,
                                  tag("nopreempt", j, i));

            // SL2 work happens after SL1 completes (active when both x=1):
            // sc1 >= q - M(2 - xj - xp).
            lp.add_constraint({{sc1, 1.0}, {q, -1.0}, {x[j][i], -big_m}, {xp, -big_m}},
                              milp::Relation::greater_equal, -2.0 * big_m, tag("aftq", j, i));
            // (14): deadline on the final chunk.
            lp.add_constraint({{ec2, 1.0}, {x[j][i], big_m}, {xp, big_m}},
                              milp::Relation::less_equal, tleft(j) + 2.0 * big_m,
                              tag("c14", j, i));

            // Each chunk lies entirely before or after the predicted task.
            for (int k = 0; k < 2; ++k) {
                const int sck = k == 0 ? sc1 : sc2;
                const int eck = k == 0 ? ec1 : ec2;
                const int before = lp.add_binary_variable(tag("w", j, i, static_cast<std::size_t>(k)));
                // eck <= scp + M(1-before) + M(2 - xj - xp)
                lp.add_constraint({{eck, 1.0}, {scp, -1.0}, {before, big_m}, {x[j][i], big_m}, {xp, big_m}},
                                  milp::Relation::less_equal, 3.0 * big_m, tag("wb", j, i, static_cast<std::size_t>(k)));
                // sck >= ecp - M*before - M(2 - xj - xp)
                lp.add_constraint({{sck, 1.0}, {ecp, -1.0}, {before, big_m}, {x[j][i], -big_m}, {xp, -big_m}},
                                  milp::Relation::greater_equal, -2.0 * big_m,
                                  tag("wa", j, i, static_cast<std::size_t>(k)));
            }
        }

        // (12)/(13): SL2 tasks do not interleave with each other.
        for (std::size_t a = 0; a < sl2.size(); ++a) {
            for (std::size_t b = a + 1; b < sl2.size(); ++b) {
                const std::size_t j1 = sl2[a];
                const std::size_t j2 = sl2[b];
                const int z = lp.add_binary_variable(tag("z", j1, j2, i));
                for (int k1 = 0; k1 < 2; ++k1) {
                    for (int k2 = 0; k2 < 2; ++k2) {
                        const int ec_a = chunk[j1][2 * k1 + 1];
                        const int sc_b = chunk[j2][2 * k2];
                        const int ec_b = chunk[j2][2 * k2 + 1];
                        const int sc_a = chunk[j1][2 * k1];
                        // j1 before j2 when z = 1:
                        // ec_a <= sc_b + M(1-z) + M(2 - xj1 - xj2)
                        lp.add_constraint({{ec_a, 1.0}, {sc_b, -1.0}, {z, big_m},
                                           {x[j1][i], big_m}, {x[j2][i], big_m}},
                                          milp::Relation::less_equal, 3.0 * big_m,
                                          tag("ord12", j1, j2, i));
                        // j2 before j1 when z = 0:
                        // ec_b <= sc_a + M z + M(2 - xj1 - xj2)
                        lp.add_constraint({{ec_b, 1.0}, {sc_a, -1.0}, {z, -big_m},
                                           {x[j1][i], big_m}, {x[j2][i], big_m}},
                                          milp::Relation::less_equal, 2.0 * big_m,
                                          tag("ord13", j1, j2, i));
                    }
                }
            }
        }
    }

    milp::LinearProgram build() {
        add_assignment_constraints();
        for (std::size_t i = 0; i < resource_count; ++i) add_resource_constraints(i);
        return std::move(lp);
    }
};

} // namespace

milp::LinearProgram MilpRM::encode(const PlanInstance& instance) {
    Encoder encoder(instance);
    RMWP_EXPECT(encoder.structurally_feasible());
    return encoder.build();
}

std::optional<MilpRM::Result> MilpRM::optimize(const PlanInstance& instance,
                                               const milp::MilpOptions& options) {
    // The literal Sec 4.2 formulation has no notion of reserved windows or
    // DVFS operating points; use ExactRM for those extensions.
    for (const double blocked : instance.blocked_time()) RMWP_EXPECT(blocked == 0.0);
    RMWP_EXPECT(!instance.platform->has_dvfs());
    Encoder encoder(instance);
    if (!encoder.structurally_feasible()) return std::nullopt;

    // Keep the x-variable handles before the encoder gives up its program.
    const std::vector<std::vector<int>> x = encoder.x;
    const milp::LinearProgram lp = encoder.build();

    const milp::MilpSolution solved = milp::solve_milp(lp, options);
    if (solved.status != milp::SolveStatus::optimal) return std::nullopt;

    Result result;
    result.energy = solved.objective;
    result.proven_optimal = solved.proven_optimal;
    result.nodes = solved.nodes;
    result.mapping.assign(instance.tasks.size(), 0);
    for (std::size_t j = 0; j < instance.tasks.size(); ++j) {
        bool found = false;
        for (std::size_t i = 0; i < instance.resource_count(); ++i) {
            if (x[j][i] >= 0 && solved.values[static_cast<std::size_t>(x[j][i])] > 0.5) {
                result.mapping[j] = i;
                found = true;
                break;
            }
        }
        RMWP_ENSURE(found);
    }
    return result;
}

std::optional<std::span<const ResourceId>> MilpRM::solve(const PlanInstance& instance,
                                                         Purpose /*purpose*/,
                                                         bool& /*proven*/) const {
    // The Sec 4.2 formulation models a single predicted request; deeper
    // lookahead is only supported by the heuristic / branch-and-bound RMs.
    RMWP_EXPECT(instance.predicted_count <= 1);
    static thread_local std::vector<ResourceId> mapping;
    auto result = optimize(instance, options_);
    if (!result) return std::nullopt;
    mapping = std::move(result->mapping);
    return std::span<const ResourceId>(mapping);
}

} // namespace rmwp
