#include "workload/task_type.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rmwp {

TaskType::TaskType(TaskTypeId id, std::vector<double> wcet, std::vector<double> energy,
                   std::vector<std::vector<double>> migration_time,
                   std::vector<std::vector<double>> migration_energy)
    : id_(id),
      wcet_(std::move(wcet)),
      energy_(std::move(energy)),
      migration_time_(std::move(migration_time)),
      migration_energy_(std::move(migration_energy)) {
    const std::size_t n = wcet_.size();
    RMWP_EXPECT(n > 0);
    RMWP_EXPECT(energy_.size() == n);
    RMWP_EXPECT(migration_time_.size() == n);
    RMWP_EXPECT(migration_energy_.size() == n);
    for (std::size_t from = 0; from < n; ++from) {
        RMWP_EXPECT(migration_time_[from].size() == n);
        RMWP_EXPECT(migration_energy_[from].size() == n);
        RMWP_EXPECT(migration_time_[from][from] == 0.0);
        RMWP_EXPECT(migration_energy_[from][from] == 0.0);
    }

    min_wcet_ = kNotExecutable;
    min_energy_ = kNotExecutable;
    for (std::size_t i = 0; i < n; ++i) {
        const bool wcet_ok = std::isfinite(wcet_[i]);
        const bool energy_ok = std::isfinite(energy_[i]);
        // Executability must be consistent between the two tables.
        RMWP_EXPECT(wcet_ok == energy_ok);
        if (!wcet_ok) continue;
        RMWP_EXPECT(wcet_[i] > 0.0);
        RMWP_EXPECT(energy_[i] > 0.0);
        executable_.push_back(i);
        mean_wcet_ += wcet_[i];
        mean_energy_ += energy_[i];
        min_wcet_ = std::min(min_wcet_, wcet_[i]);
        min_energy_ = std::min(min_energy_, energy_[i]);
    }
    RMWP_EXPECT(!executable_.empty()); // footnote 1: at least one resource
    mean_wcet_ /= static_cast<double>(executable_.size());
    mean_energy_ /= static_cast<double>(executable_.size());
}

} // namespace rmwp
