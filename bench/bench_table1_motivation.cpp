// E1 — Table 1 / Fig 1 (Sec 3): the motivational scenarios, regenerated.
//
// Paper's rows:
//   (a) RM without prediction, tau2 at t=1 -> tau2 rejected (acceptance 1/2)
//   (b) RM with accurate prediction        -> both accepted (acceptance 2/2)
//   (c) prediction says t=1, tau2 at t=3   -> both accepted, 8.8 J
//   (c') no prediction, tau2 at t=3        -> both accepted, 3.5 J
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace rmwp;

Catalog make_table1_catalog() {
    const std::size_t n = 3;
    const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
    std::vector<TaskType> types;
    types.emplace_back(0, std::vector<double>{8.0, 12.0, 5.0},
                       std::vector<double>{7.3, 8.4, 2.0}, zero, zero);
    types.emplace_back(1, std::vector<double>{7.0, 8.5, 3.0},
                       std::vector<double>{6.2, 7.5, 1.5}, zero, zero);
    return Catalog(std::move(types));
}

class FixedArrivalPredictor final : public Predictor {
public:
    explicit FixedArrivalPredictor(Time claimed_arrival) : claimed_(claimed_arrival) {}
    [[nodiscard]] std::string name() const override { return "fixed"; }
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

} // namespace

int main() {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = make_table1_catalog();
    const Trace at1({Request{0.0, 0, 8.0}, Request{1.0, 1, 5.0}});
    const Trace at3({Request{0.0, 0, 8.0}, Request{3.0, 1, 5.0}});

    std::cout << "E1: Table 1 / Fig 1 motivational scenarios (paper Sec 3)\n\n";

    bench::Report report("table1_motivation");

    for (const char* rm_name : {"heuristic", "exact"}) {
        Table table({"scenario", "accepted/total", "energy (J)", "paper"});
        auto run_case = [&](const char* label, const Trace& trace, Predictor& predictor,
                            const char* paper) {
            const bench::WallTimer timer;
            TraceResult result;
            if (std::string(rm_name) == "heuristic") {
                HeuristicRM rm;
                result = simulate_trace(platform, catalog, trace, rm, predictor);
            } else {
                ExactRM rm;
                result = simulate_trace(platform, catalog, trace, rm, predictor);
            }
            report.add_cell_results(std::string(rm_name) + "/" + label, {&result, 1},
                                    timer.elapsed_ms(), 1);
            table.row()
                .cell(label)
                .cell(std::to_string(result.accepted) + "/" + std::to_string(result.requests))
                .cell(result.total_energy, 1)
                .cell(paper);
        };

        NullPredictor off;
        FixedArrivalPredictor accurate(1.0);
        FixedArrivalPredictor wrong(1.0);
        NullPredictor off2;
        run_case("(a)  no prediction, tau2@1", at1, off, "1/2 accepted");
        run_case("(b)  accurate prediction", at1, accurate, "2/2 accepted");
        run_case("(c)  wrong prediction, tau2@3", at3, wrong, "2/2, 8.8 J");
        run_case("(c') no prediction,  tau2@3", at3, off2, "2/2, 3.5 J");

        std::cout << "resource manager: " << rm_name << '\n';
        table.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}
