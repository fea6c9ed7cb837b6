// The prediction substrate.
//
// The paper does not propose a predictor; it abstracts prediction into two
// accuracy knobs (task-type accuracy and arrival-time NRMSE, Sec 5.4) plus a
// runtime-overhead knob (Sec 5.5), citing the authors' earlier work [12, 13]
// for concrete methods.  We implement:
//   * OraclePredictor — perfectly accurate (the "predictor on" rows);
//   * NoisyPredictor  — dialable type accuracy and arrival-time NRMSE;
//   * OnlinePredictor — an actual runtime predictor (first-order Markov
//     chain over task types + phase-aware interarrival estimation), in the
//     spirit of [12, 13], exercising the same interface end to end;
//   * NullPredictor   — prediction disabled.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/manager.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/trace.hpp"

namespace rmwp {

/// One prediction source bound to one run.  The engine calls
/// observe_arrival() as each request arrives (ground truth becomes visible
/// once the request is real) and predict_upcoming() when the RM wants the
/// lookahead.  simulate_trace() maps those onto the trace-based observe() /
/// predict_horizon() with the request's trace position, so trace-bound
/// predictors need only the trace-based interface.
class Predictor {
public:
    virtual ~Predictor() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Request `index` of the trace has just arrived.
    virtual void observe(const Trace& trace, std::size_t index) = 0;

    /// Predict the request after `index` (the one that just arrived).
    /// Returns nullopt when no prediction is available (end of trace, cold
    /// start, or prediction disabled).
    [[nodiscard]] virtual std::optional<PredictedTask> predict_next(const Trace& trace,
                                                                    std::size_t index,
                                                                    Time now) = 0;

    /// Predict up to `depth` upcoming requests, nearest first.  The paper's
    /// predictor is the depth-1 case; the default implementation wraps
    /// predict_next().  Predictors with a real sequence model override this
    /// (lookahead extension, see bench_lookahead).
    [[nodiscard]] virtual std::vector<PredictedTask> predict_horizon(const Trace& trace,
                                                                     std::size_t index, Time now,
                                                                     std::size_t depth) {
        std::vector<PredictedTask> horizon;
        if (depth == 0) return horizon;
        if (auto predicted = predict_next(trace, index, now)) horizon.push_back(*predicted);
        return horizon;
    }

    /// Runtime cost of producing one prediction; the simulator delays the
    /// RM's decision by this much (Sec 5.5).
    [[nodiscard]] virtual Time overhead() const noexcept { return 0.0; }

    // Streaming variants, the engine's interface (DESIGN.md §11): no trace
    // vector is needed and requests are observed one at a time.  The
    // defaults mean "prediction unavailable": trace-bound predictors
    // (oracle, noisy) need the future and cannot stream, so serve restricts
    // --predictor to the kinds that override these (off, online).

    /// A request has just arrived.  Streaming counterpart of observe().
    virtual void observe_arrival(const Request& request) { (void)request; }

    /// Predict up to `depth` upcoming requests, nearest first, from state
    /// accumulated via observe_arrival().  Streaming counterpart of
    /// predict_horizon().
    [[nodiscard]] virtual std::vector<PredictedTask> predict_upcoming(Time now,
                                                                      std::size_t depth) {
        (void)now;
        (void)depth;
        return {};
    }
};

/// Prediction disabled: predict_next is always empty and has no overhead.
class NullPredictor final : public Predictor {
public:
    [[nodiscard]] std::string name() const override { return "off"; }
    void observe(const Trace&, std::size_t) override {}
    [[nodiscard]] std::optional<PredictedTask> predict_next(const Trace&, std::size_t,
                                                            Time) override {
        return std::nullopt;
    }
};

/// Declarative predictor configuration used by the experiment harness.
struct PredictorSpec {
    enum class Kind { none, oracle, noisy, online };
    Kind kind = Kind::none;
    /// P(task type predicted correctly) — Fig 4a's axis.
    double type_accuracy = 1.0;
    /// Normalised RMSE of the arrival-time prediction — 1 minus Fig 4b's axis.
    double time_nrmse = 0.0;
    /// Decision delay per activation — Fig 5's axis (absolute time).
    Time overhead = 0.0;
    /// Additional decision delay expressed as a fraction of the trace's mean
    /// interarrival time (Fig 5 sweeps this coefficient); resolved to an
    /// absolute overhead per trace by the experiment runner.
    double overhead_interarrival_coeff = 0.0;
    /// How many upcoming requests the RM plans with (1 = the paper's
    /// single-step tau_p; larger values are the lookahead extension).
    std::size_t lookahead = 1;

    [[nodiscard]] static PredictorSpec off() { return {}; }
    [[nodiscard]] static PredictorSpec perfect(Time overhead = 0.0) {
        PredictorSpec spec;
        spec.kind = Kind::oracle;
        spec.overhead = overhead;
        return spec;
    }

    [[nodiscard]] std::string label() const;
};

/// Instantiate the predictor described by `spec` for one trace run.
[[nodiscard]] std::unique_ptr<Predictor> make_predictor(const PredictorSpec& spec,
                                                        const Catalog& catalog, Rng rng);

} // namespace rmwp
