// A deliberately weak baseline manager: greedy, non-replanning admission.
//
// The paper's RM re-maps and re-schedules the whole active set at every
// arrival (Sec 2).  This baseline does what a naive runtime would do
// instead: existing tasks stay exactly where they are, and only the
// arriving task is placed — on the cheapest resource where it fits under
// EDF, else rejected.  No migration, no reshuffling, no prediction.
//
// Comparing {baseline, heuristic} x {pred off, on} separates the two
// mechanisms the paper bundles: how much acceptance comes from full
// replanning, and how much from lookahead (bench_baseline).
#pragma once

#include "core/manager.hpp"
#include "core/plan_instance.hpp"

namespace rmwp {

class BaselineRM final : public ResourceManager {
public:
    BaselineRM() = default;

    /// Admission over the shared BatchPlanner base: one plan rebuild per
    /// batch, bit-identical decisions to deciding the items one at a time.
    void decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) override;
    [[nodiscard]] std::string name() const override { return "baseline"; }
};

} // namespace rmwp
