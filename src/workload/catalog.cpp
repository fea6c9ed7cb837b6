#include "workload/catalog.hpp"

#include <cmath>

#include "util/check.hpp"

namespace rmwp {

void CatalogParams::validate() const {
    RMWP_EXPECT(type_count > 0);
    RMWP_EXPECT(cpu_wcet_mean > 0.0 && cpu_wcet_stddev >= 0.0);
    RMWP_EXPECT(cpu_energy_mean > 0.0 && cpu_energy_stddev >= 0.0);
    RMWP_EXPECT(gpu_divisor_min >= 1.0 && gpu_divisor_min <= gpu_divisor_max);
    RMWP_EXPECT(migration_fraction_min >= 0.0);
    RMWP_EXPECT(migration_fraction_min <= migration_fraction_max);
    RMWP_EXPECT(gpu_incompatible_fraction >= 0.0 && gpu_incompatible_fraction <= 1.0);
    RMWP_EXPECT(static_energy_fraction >= 0.0 && static_energy_fraction <= 1.0);
}

Catalog::Catalog(std::vector<TaskType> types) : types_(std::move(types)) {
    RMWP_EXPECT(!types_.empty());
    const std::size_t n = types_.front().resource_count();
    for (std::size_t i = 0; i < types_.size(); ++i) {
        RMWP_EXPECT(types_[i].id() == i);
        RMWP_EXPECT(types_[i].resource_count() == n);
    }
}

const TaskType& Catalog::type(TaskTypeId id) const {
    RMWP_EXPECT(id < types_.size());
    return types_[id];
}

Catalog generate_catalog(const Platform& platform, const CatalogParams& params, Rng& rng) {
    params.validate();
    const std::size_t n = platform.size();
    RMWP_EXPECT(platform.cpu_count() > 0);

    std::vector<TaskType> types;
    types.reserve(params.type_count);

    for (TaskTypeId id = 0; id < params.type_count; ++id) {
        std::vector<double> wcet(n, kNotExecutable);
        std::vector<double> energy(n, kNotExecutable);

        // Per-CPU draws at nominal frequency; the truncation floor is ~4.4
        // sigma below the mean with the default parameters, so it virtually
        // never triggers but keeps pathological parameterisations
        // well-defined.  DVFS operating points of a core derive from the
        // core's nominal draw: time scales with 1/f and energy with f^2 (the
        // usual voltage-tracks-frequency CMOS model).
        double cpu_wcet_sum = 0.0;
        double cpu_energy_sum = 0.0;
        std::size_t cpu_count = 0;
        for (const Resource& r : platform) {
            if (r.kind() != ResourceKind::cpu || r.physical() != r.id()) continue;
            wcet[r.id()] = rng.gaussian_above(params.cpu_wcet_mean, params.cpu_wcet_stddev,
                                              params.cpu_wcet_mean * 0.01);
            energy[r.id()] = rng.gaussian_above(params.cpu_energy_mean, params.cpu_energy_stddev,
                                                params.cpu_energy_mean * 0.01);
            cpu_wcet_sum += wcet[r.id()];
            cpu_energy_sum += energy[r.id()];
            ++cpu_count;
        }
        const double s_frac = params.static_energy_fraction;
        for (const Resource& r : platform) {
            if (r.kind() != ResourceKind::cpu || r.physical() == r.id()) continue;
            const double f = r.frequency();
            wcet[r.id()] = wcet[r.physical()] / f;
            // Dynamic share scales with f^2; the static (leakage) share
            // grows with the stretched runtime.
            energy[r.id()] = energy[r.physical()] * ((1.0 - s_frac) * f * f + s_frac / f);
        }
        const double cpu_wcet_avg = cpu_wcet_sum / static_cast<double>(cpu_count);
        const double cpu_energy_avg = cpu_energy_sum / static_cast<double>(cpu_count);

        // One divisor per type, shared by time and energy ("divided by a
        // random number in range 2-10", Sec 5.1).
        const bool gpu_capable = !rng.bernoulli(params.gpu_incompatible_fraction);
        const double divisor = rng.uniform(params.gpu_divisor_min, params.gpu_divisor_max);
        for (const Resource& r : platform) {
            if (r.kind() == ResourceKind::cpu) continue;
            if (!gpu_capable) continue;
            wcet[r.id()] = cpu_wcet_avg / divisor;
            energy[r.id()] = cpu_energy_avg / divisor;
        }

        // Resource-averaged magnitudes over executable *physical* resources
        // (an operating point is not an extra resource).
        double mean_wcet = 0.0;
        double mean_energy = 0.0;
        std::size_t executable = 0;
        for (const Resource& r : platform) {
            const std::size_t i = r.id();
            if (!std::isfinite(wcet[i]) || r.physical() != i) continue;
            mean_wcet += wcet[i];
            mean_energy += energy[i];
            ++executable;
        }
        mean_wcet /= static_cast<double>(executable);
        mean_energy /= static_cast<double>(executable);

        const double time_frac =
            rng.uniform(params.migration_fraction_min, params.migration_fraction_max);
        const double energy_frac =
            rng.uniform(params.migration_fraction_min, params.migration_fraction_max);

        std::vector<std::vector<double>> cm(n, std::vector<double>(n, 0.0));
        std::vector<std::vector<double>> em(n, std::vector<double>(n, 0.0));
        for (std::size_t from = 0; from < n; ++from) {
            for (std::size_t to = 0; to < n; ++to) {
                if (from == to) continue;
                // Switching the operating point of one core moves no state.
                if (platform.resource(from).physical() == platform.resource(to).physical())
                    continue;
                cm[from][to] = time_frac * mean_wcet;
                em[from][to] = energy_frac * mean_energy;
            }
        }

        types.emplace_back(id, std::move(wcet), std::move(energy), std::move(cm), std::move(em));
    }

    return Catalog(std::move(types));
}

Catalog generate_partitioned_catalog(const Platform& platform, const CatalogParams& params,
                                     std::size_t islands, Rng& rng) {
    params.validate();
    RMWP_EXPECT(islands >= 1);
    const std::size_t n = platform.size();

    // Island of each resource: physical cores round-robin in id order,
    // operating points inherit their core's island.
    std::vector<std::size_t> island_of(n, 0);
    std::vector<std::size_t> island_cpus(islands, 0);
    std::size_t physical_index = 0;
    for (const Resource& r : platform) {
        if (r.physical() != r.id()) continue;
        island_of[r.id()] = physical_index++ % islands;
        if (r.kind() == ResourceKind::cpu) ++island_cpus[island_of[r.id()]];
    }
    for (const Resource& r : platform)
        if (r.physical() != r.id()) island_of[r.id()] = island_of[r.physical()];
    for (std::size_t g = 0; g < islands; ++g) RMWP_EXPECT(island_cpus[g] > 0);

    std::vector<TaskType> types;
    types.reserve(params.type_count);

    for (TaskTypeId id = 0; id < params.type_count; ++id) {
        const std::size_t island = id % islands;
        std::vector<double> wcet(n, kNotExecutable);
        std::vector<double> energy(n, kNotExecutable);

        // Same per-CPU draws and DVFS derivation as generate_catalog, over
        // the island's CPUs only.
        double cpu_wcet_sum = 0.0;
        double cpu_energy_sum = 0.0;
        std::size_t cpu_count = 0;
        for (const Resource& r : platform) {
            if (island_of[r.id()] != island) continue;
            if (r.kind() != ResourceKind::cpu || r.physical() != r.id()) continue;
            wcet[r.id()] = rng.gaussian_above(params.cpu_wcet_mean, params.cpu_wcet_stddev,
                                              params.cpu_wcet_mean * 0.01);
            energy[r.id()] = rng.gaussian_above(params.cpu_energy_mean, params.cpu_energy_stddev,
                                                params.cpu_energy_mean * 0.01);
            cpu_wcet_sum += wcet[r.id()];
            cpu_energy_sum += energy[r.id()];
            ++cpu_count;
        }
        const double s_frac = params.static_energy_fraction;
        for (const Resource& r : platform) {
            if (island_of[r.id()] != island) continue;
            if (r.kind() != ResourceKind::cpu || r.physical() == r.id()) continue;
            const double f = r.frequency();
            wcet[r.id()] = wcet[r.physical()] / f;
            energy[r.id()] = energy[r.physical()] * ((1.0 - s_frac) * f * f + s_frac / f);
        }
        const double cpu_wcet_avg = cpu_wcet_sum / static_cast<double>(cpu_count);
        const double cpu_energy_avg = cpu_energy_sum / static_cast<double>(cpu_count);

        const bool gpu_capable = !rng.bernoulli(params.gpu_incompatible_fraction);
        const double divisor = rng.uniform(params.gpu_divisor_min, params.gpu_divisor_max);
        for (const Resource& r : platform) {
            if (island_of[r.id()] != island) continue;
            if (r.kind() == ResourceKind::cpu || !gpu_capable) continue;
            wcet[r.id()] = cpu_wcet_avg / divisor;
            energy[r.id()] = cpu_energy_avg / divisor;
        }

        double mean_wcet = 0.0;
        double mean_energy = 0.0;
        std::size_t executable = 0;
        for (const Resource& r : platform) {
            const std::size_t i = r.id();
            if (!std::isfinite(wcet[i]) || r.physical() != i) continue;
            mean_wcet += wcet[i];
            mean_energy += energy[i];
            ++executable;
        }
        RMWP_ENSURE(executable > 0);
        mean_wcet /= static_cast<double>(executable);
        mean_energy /= static_cast<double>(executable);

        const double time_frac =
            rng.uniform(params.migration_fraction_min, params.migration_fraction_max);
        const double energy_frac =
            rng.uniform(params.migration_fraction_min, params.migration_fraction_max);

        // Migration only ever happens within the island; cross-island cells
        // stay 0 and are never consulted (the target is not executable).
        std::vector<std::vector<double>> cm(n, std::vector<double>(n, 0.0));
        std::vector<std::vector<double>> em(n, std::vector<double>(n, 0.0));
        for (std::size_t from = 0; from < n; ++from) {
            for (std::size_t to = 0; to < n; ++to) {
                if (from == to) continue;
                if (!std::isfinite(wcet[from]) || !std::isfinite(wcet[to])) continue;
                if (platform.resource(from).physical() == platform.resource(to).physical())
                    continue;
                cm[from][to] = time_frac * mean_wcet;
                em[from][to] = energy_frac * mean_energy;
            }
        }

        types.emplace_back(id, std::move(wcet), std::move(energy), std::move(cm), std::move(em));
    }

    return Catalog(std::move(types));
}

Catalog make_motivational_catalog(double migration_time, double migration_energy) {
    const std::size_t n = 3;
    std::vector<std::vector<double>> time(n, std::vector<double>(n, migration_time));
    std::vector<std::vector<double>> energy(n, std::vector<double>(n, migration_energy));
    for (std::size_t i = 0; i < n; ++i) time[i][i] = energy[i][i] = 0.0;
    std::vector<TaskType> types;
    types.emplace_back(0, std::vector<double>{8.0, 12.0, 5.0},
                       std::vector<double>{7.3, 8.4, 2.0}, time, energy);
    types.emplace_back(1, std::vector<double>{7.0, 8.5, 3.0},
                       std::vector<double>{6.2, 7.5, 1.5}, time, energy);
    return Catalog(std::move(types));
}

} // namespace rmwp
