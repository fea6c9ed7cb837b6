// The paper's motivational example (Sec 3, Table 1, Fig 1), reproduced
// end to end on the real library:
//   (a) no prediction      -> tau_2 is rejected (acceptance 1/2);
//   (b) accurate prediction-> both tasks accepted (acceptance 2/2);
//   (c) wrong arrival time -> both accepted either way, but the predicted
//       mapping wastes energy (8.8 J vs 3.5 J).
// It also demonstrates how to hand-build a catalog and write a custom
// Predictor.
#include <iostream>
#include <vector>

#include "core/heuristic_rm.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace rmwp;

/// A deliberately wrong oracle: predicts the next request's arrival at a
/// fixed (possibly incorrect) time while keeping type and deadline truthful.
class FixedArrivalPredictor final : public Predictor {
public:
    explicit FixedArrivalPredictor(Time claimed_arrival) : claimed_(claimed_arrival) {}

    [[nodiscard]] std::string name() const override { return "fixed-arrival"; }
    void observe(const Trace&, std::size_t) override {}
    [[nodiscard]] std::optional<PredictedTask> predict_next(const Trace& trace, std::size_t index,
                                                            Time now) override {
        if (index + 1 >= trace.size()) return std::nullopt;
        const Request& next = trace.request(index + 1);
        return PredictedTask{next.type, std::max(claimed_, now), next.relative_deadline};
    }

private:
    Time claimed_;
};

TraceResult run(const Platform& platform, const Catalog& catalog, const Trace& trace,
                Predictor& predictor) {
    HeuristicRM rm;
    return simulate_trace(platform, catalog, trace, rm, predictor);
}

} // namespace

int main() {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_motivational_catalog();

    // tau_1 at t=0 with d=8; tau_2 with d=5, arriving at t=1 (scenarios a/b)
    // or t=3 (scenario c).
    const Trace arrives_at_1({Request{0.0, 0, 8.0}, Request{1.0, 1, 5.0}});
    const Trace arrives_at_3({Request{0.0, 0, 8.0}, Request{3.0, 1, 5.0}});

    Table table({"scenario", "accepted", "rejected", "energy (J)"});

    {
        NullPredictor off;
        const TraceResult r = run(platform, catalog, arrives_at_1, off);
        table.row().cell("(a) no prediction, tau2 at t=1").cell(r.accepted).cell(r.rejected).cell(
            r.total_energy, 1);
    }
    {
        FixedArrivalPredictor accurate(1.0);
        const TraceResult r = run(platform, catalog, arrives_at_1, accurate);
        table.row().cell("(b) accurate prediction").cell(r.accepted).cell(r.rejected).cell(
            r.total_energy, 1);
    }
    {
        FixedArrivalPredictor wrong(1.0); // claims t=1, the task comes at t=3
        const TraceResult r = run(platform, catalog, arrives_at_3, wrong);
        table.row().cell("(c) wrong prediction, tau2 at t=3").cell(r.accepted).cell(r.rejected).cell(
            r.total_energy, 1);
    }
    {
        NullPredictor off;
        const TraceResult r = run(platform, catalog, arrives_at_3, off);
        table.row().cell("(c') no prediction, tau2 at t=3").cell(r.accepted).cell(r.rejected).cell(
            r.total_energy, 1);
    }

    table.print(std::cout);
    std::cout << "\nExpected from the paper: (a) rejects tau2; (b) accepts both;\n"
                 "(c) accepts both at 8.8 J while (c') accepts both at only 3.5 J —\n"
                 "an inaccurate prediction can be harmful.\n";
    return 0;
}
