#include "metrics/trace_result.hpp"

#include <bit>
#include <cstdint>
#include <iterator>
#include <sstream>

namespace rmwp {
namespace {

/// The list's guard: the binding names every member of TraceResult, so it
/// stops compiling when a member is added, and the check ties each list
/// entry to the member at its position.
consteval bool fields_cover_members() {
    TraceResult r;
    auto& [requests, accepted, rejected, completed, deadline_misses, aborted, fault_aborted,
           total_energy, migration_energy, migrations, critical_energy, activations,
           plans_with_prediction, decision_seconds, audit_checks, audit_differential_checks,
           audit_differential_gaps, resource_outages, throttle_events, rescue_activations,
           rescued, rescue_migrations, rescue_decision_seconds, degraded_energy,
           reference_energy, obs_metrics] = r;
    (void)obs_metrics;
    const void* const members[] = {
        &requests,          &accepted,           &rejected,
        &completed,         &deadline_misses,    &aborted,
        &fault_aborted,     &total_energy,       &migration_energy,
        &migrations,        &critical_energy,    &activations,
        &plans_with_prediction, &decision_seconds, &audit_checks,
        &audit_differential_checks, &audit_differential_gaps, &resource_outages,
        &throttle_events,   &rescue_activations, &rescued,
        &rescue_migrations, &rescue_decision_seconds, &degraded_energy,
        &reference_energy};
    std::size_t i = 0;
    bool in_order = true;
    for_each_trace_result_field([&](const auto& field) {
        in_order = in_order && i < std::size(members) && &(r.*field.member) == members[i];
        ++i;
    });
    return in_order && i == std::size(members);
}
static_assert(fields_cover_members(),
              "kTraceResultFields must list every TraceResult member but obs_metrics, "
              "in declared order");

// Exact comparisons throughout, doubles compared bit for bit: the parallel
// engine promises bit-identical simulation state, not approximately-equal
// state, so any drift here is a determinism bug worth failing on.
bool same(std::size_t a, std::size_t b) noexcept { return a == b; }
bool same(double a, double b) noexcept {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// `on_difference(field)` for each non-host field on which `a` and `b` differ.
template <typename OnDifference>
void for_each_difference(const TraceResult& a, const TraceResult& b,
                         OnDifference&& on_difference) {
    for_each_trace_result_field([&](const auto& field) {
        if (!field.host && !same(a.*field.member, b.*field.member)) on_difference(field);
    });
}

} // namespace

bool equivalent_ignoring_host_time(const TraceResult& a, const TraceResult& b) noexcept {
    bool equivalent = true;
    for_each_difference(a, b, [&](const auto&) { equivalent = false; });
    return equivalent;
}

std::string describe_differences(const TraceResult& a, const TraceResult& b) {
    std::ostringstream out;
    out << std::hexfloat;
    for_each_difference(a, b, [&](const auto& field) {
        out << field.name << ": " << a.*field.member << " vs " << b.*field.member << '\n';
    });
    return out.str();
}

} // namespace rmwp
