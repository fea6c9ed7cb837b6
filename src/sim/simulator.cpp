// Trace driver: feeds one whole trace through the engine's single entry
// point, SimEngine::stream_arrival_batch (see sim/engine.hpp and DESIGN.md
// §11), and owns the activation policy.
#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <span>
#include <vector>

#include "sim/engine.hpp"

namespace rmwp {
namespace {

/// Hands a trace-bound predictor (oracle, noisy) its position in the trace.
/// The engine speaks only the streaming interface; the driver feeds every
/// request once, in trace order, so the n-th observed arrival is request n.
/// Forwarding predict_horizon also keeps the online predictor's trace-end
/// cap (no prediction past the last request).
class TracePositionPredictor final : public Predictor {
public:
    TracePositionPredictor(Predictor& inner, const Trace& trace) : inner_(inner), trace_(trace) {}

    [[nodiscard]] std::string name() const override { return inner_.name(); }
    void observe(const Trace& trace, std::size_t index) override { inner_.observe(trace, index); }
    [[nodiscard]] std::optional<PredictedTask> predict_next(const Trace& trace, std::size_t index,
                                                            Time now) override {
        return inner_.predict_next(trace, index, now);
    }
    [[nodiscard]] Time overhead() const noexcept override { return inner_.overhead(); }

    void observe_arrival(const Request&) override { inner_.observe(trace_, observed_++); }
    [[nodiscard]] std::vector<PredictedTask> predict_upcoming(Time now,
                                                              std::size_t depth) override {
        return inner_.predict_horizon(trace_, observed_ - 1, now, depth);
    }

private:
    Predictor& inner_;
    const Trace& trace_;
    std::size_t observed_ = 0;
};

TraceResult run_trace(const Platform& platform, const Catalog& catalog, const Trace& trace,
                      ResourceManager& rm, Predictor& predictor,
                      const ReservationTable* reservations, const SimOptions& options) {
    TracePositionPredictor positioned(predictor, trace);
    SimEngine engine(platform, catalog, rm, positioned, reservations, options);
    const Time period = options.activation_period;

    if (period <= 0.0) {
        // The paper's protocol: the manager wakes at every arrival.
        for (std::size_t j = 0; j < trace.size(); ++j) {
            const StreamArrival arrival{trace.request(j), static_cast<TaskUid>(j)};
            engine.stream_arrival_batch(std::span(&arrival, 1), arrival.request.arrival);
        }
        return engine.finish_stream();
    }

    // Periodic activation: an arrival's wake-up is its arrival rounded up to
    // the period, merged into the latest wake-up set when within kTimeEps of
    // it.  A wake-up decides every request that arrived up to and including
    // its instant, in arrival order; one that no request awaits is skipped.
    std::vector<StreamArrival> group;
    std::deque<Time> wakes;
    Time latest = -1.0;
    const auto wake_next = [&] {
        if (!group.empty()) engine.stream_arrival_batch(group, wakes.front());
        group.clear();
        wakes.pop_front();
    };
    for (std::size_t j = 0; j < trace.size(); ++j) {
        const Request& request = trace.request(j);
        while (!wakes.empty() && wakes.front() < request.arrival) wake_next();
        group.push_back(StreamArrival{request, static_cast<TaskUid>(j)});
        const Time boundary = std::max(std::ceil(request.arrival / period) * period,
                                       request.arrival);
        if (boundary > latest + kTimeEps) {
            wakes.push_back(boundary);
            latest = boundary;
        }
    }
    while (!wakes.empty()) wake_next();
    // Rounding can merge an arrival into a wake-up that already passed; with
    // no later one set, it is decided at its own arrival.
    if (!group.empty()) engine.stream_arrival_batch(group, group.back().request.arrival);
    return engine.finish_stream();
}

} // namespace

TraceResult simulate_trace(const Platform& platform, const Catalog& catalog, const Trace& trace,
                           ResourceManager& rm, Predictor& predictor, const SimOptions& options) {
    return run_trace(platform, catalog, trace, rm, predictor, nullptr, options);
}

TraceResult simulate_trace(const Platform& platform, const Catalog& catalog, const Trace& trace,
                           ResourceManager& rm, Predictor& predictor,
                           const ReservationTable& reservations, const SimOptions& options) {
    return run_trace(platform, catalog, trace, rm, predictor, &reservations, options);
}

} // namespace rmwp
