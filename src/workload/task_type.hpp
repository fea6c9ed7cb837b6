// A task type tau_j as defined in Sec 2: per-resource WCET c_{j,i}, average
// energy e_{j,i}, and per-resource-pair migration overheads cm_{j,k,i} /
// em_{j,k,i}.  Resources on which the type cannot execute carry
// "dummy values" (the paper's footnote 1); we encode them as +infinity so
// that any feasibility comparison naturally rejects them.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "platform/platform.hpp"
#include "util/check.hpp"

namespace rmwp {

/// Index of a task type within its Catalog.
using TaskTypeId = std::size_t;

/// Sentinel WCET/energy for "not executable on this resource".
inline constexpr double kNotExecutable = std::numeric_limits<double>::infinity();

/// Immutable description of one task type.
class TaskType {
public:
    /// wcet/energy are indexed by ResourceId; cm/em are [from][to] matrices.
    /// All four containers must agree with the same resource count N, and a
    /// type must be executable on at least one resource.
    TaskType(TaskTypeId id, std::vector<double> wcet, std::vector<double> energy,
             std::vector<std::vector<double>> migration_time,
             std::vector<std::vector<double>> migration_energy);

    [[nodiscard]] TaskTypeId id() const noexcept { return id_; }
    [[nodiscard]] std::size_t resource_count() const noexcept { return wcet_.size(); }

    // The accessors below are inline: the plan-row fill calls them per
    // (task, resource) on every admission.

    /// WCET c_{j,i}; +infinity if not executable on i.
    [[nodiscard]] double wcet(ResourceId i) const {
        RMWP_EXPECT(i < wcet_.size());
        return wcet_[i];
    }
    /// Average energy e_{j,i}; +infinity if not executable on i.
    [[nodiscard]] double energy(ResourceId i) const {
        RMWP_EXPECT(i < energy_.size());
        return energy_[i];
    }
    [[nodiscard]] bool executable_on(ResourceId i) const {
        RMWP_EXPECT(i < wcet_.size());
        return std::isfinite(wcet_[i]);
    }

    /// Migration time overhead cm_{j,k,i} for moving from k to i (0 if k==i).
    [[nodiscard]] double migration_time(ResourceId from, ResourceId to) const {
        RMWP_EXPECT(from < migration_time_.size());
        RMWP_EXPECT(to < migration_time_.size());
        return migration_time_[from][to];
    }
    /// Migration energy overhead em_{j,k,i} (0 if k==i).
    [[nodiscard]] double migration_energy(ResourceId from, ResourceId to) const {
        RMWP_EXPECT(from < migration_energy_.size());
        RMWP_EXPECT(to < migration_energy_.size());
        return migration_energy_[from][to];
    }

    /// Mean WCET over the resources the type can execute on.
    [[nodiscard]] double mean_wcet() const noexcept { return mean_wcet_; }
    /// Mean energy over the resources the type can execute on.
    [[nodiscard]] double mean_energy() const noexcept { return mean_energy_; }
    /// Smallest WCET over executable resources.
    [[nodiscard]] double min_wcet() const noexcept { return min_wcet_; }
    /// Smallest energy over executable resources.
    [[nodiscard]] double min_energy() const noexcept { return min_energy_; }

    /// Ids of the resources this type can execute on.
    [[nodiscard]] const std::vector<ResourceId>& executable_resources() const noexcept {
        return executable_;
    }

private:
    TaskTypeId id_;
    std::vector<double> wcet_;
    std::vector<double> energy_;
    std::vector<std::vector<double>> migration_time_;
    std::vector<std::vector<double>> migration_energy_;
    std::vector<ResourceId> executable_;
    double mean_wcet_ = 0.0;
    double mean_energy_ = 0.0;
    double min_wcet_ = 0.0;
    double min_energy_ = 0.0;
};

} // namespace rmwp
