// An actual runtime predictor, in the spirit of the authors' prior work on
// workload prediction [12, 13]: low inference overhead, learned online.
//
//  * Task type: a first-order Markov chain over type ids with add-one
//    smoothing; the predicted identity is the most frequent successor of
//    the type that just arrived (falls back to the global mode while cold).
//  * Arrival time: a two-phase interarrival estimator.  Observed gaps are
//    softly clustered into two regimes ("fast" bursts vs "slow" lulls) by an
//    online 2-means; the next gap is predicted as the EWMA of the regime the
//    most recent gap belonged to.  With the paper's unimodal Gaussian gaps
//    the two regimes converge and the estimator degrades gracefully to a
//    plain EWMA; on bimodal streams it tracks phase switches.
//  * Deadline: per-type EWMA of the observed relative deadline, with a
//    global EWMA fallback while a type is cold.
#pragma once

#include <iosfwd>
#include <vector>

#include "predict/predictor.hpp"

namespace rmwp {

/// Online 2-means over interarrival gaps with per-regime EWMA prediction.
class TwoPhaseInterarrivalEstimator {
public:
    explicit TwoPhaseInterarrivalEstimator(double ewma_alpha = 0.2);

    void observe(double gap);
    /// Predicted next gap; meaningful after >= 1 observation.
    [[nodiscard]] double predict() const noexcept;
    [[nodiscard]] std::size_t observations() const noexcept { return count_; }

    /// Bit-exact state serialization for checkpointing (DESIGN.md §11).
    void save(std::ostream& os) const;
    void load(std::istream& is);

private:
    double alpha_;
    double centers_[2] = {0.0, 0.0};
    double ewma_[2] = {0.0, 0.0};
    double global_ewma_ = 0.0;
    std::size_t center_count_[2] = {0, 0};
    int last_phase_ = 0;
    std::size_t count_ = 0;
};

/// First-order Markov chain over task-type ids.
class MarkovTypeChain {
public:
    explicit MarkovTypeChain(std::size_t type_count);

    void observe(TaskTypeId from, TaskTypeId to);
    void observe_first(TaskTypeId first);
    /// Most likely successor of `from` (the smallest id on ties); global
    /// mode when `from` is cold.  O(1): observe keeps both argmaxes.
    [[nodiscard]] TaskTypeId predict(TaskTypeId from) const;

    /// Bit-exact state serialization for checkpointing (DESIGN.md §11).
    void save(std::ostream& os) const;
    void load(std::istream& is);

private:
    std::size_t type_count_;
    std::vector<std::vector<std::uint32_t>> transition_; ///< [from][to] counts
    std::vector<std::uint32_t> marginal_;                ///< overall type counts
    std::vector<TaskTypeId> row_mode_; ///< [from] first argmax of transition_[from]
    TaskTypeId marginal_mode_ = 0;     ///< first argmax of marginal_
};

class OnlinePredictor final : public Predictor {
public:
    OnlinePredictor(const Catalog& catalog, Time overhead = 0.0, double ewma_alpha = 0.2);

    [[nodiscard]] std::string name() const override { return "online"; }
    void observe(const Trace& trace, std::size_t index) override;
    [[nodiscard]] std::optional<PredictedTask> predict_next(const Trace& trace, std::size_t index,
                                                            Time now) override;
    /// Markov-chain rollout: step k's type is the most likely successor of
    /// step k-1's, arrivals accumulate the current gap estimate.
    [[nodiscard]] std::vector<PredictedTask> predict_horizon(const Trace& trace,
                                                             std::size_t index, Time now,
                                                             std::size_t depth) override;
    [[nodiscard]] Time overhead() const noexcept override { return overhead_; }

    // Streaming interface (serve mode): the trace-based overrides above are
    // thin adapters over these, so batch and streaming use stay bit-identical
    // given the same arrival sequence.
    void observe_arrival(const Request& request) override;
    [[nodiscard]] std::vector<PredictedTask> predict_upcoming(Time now,
                                                              std::size_t depth) override;

    /// Fraction of type predictions that turned out correct so far.
    [[nodiscard]] double realized_type_accuracy() const noexcept;

    /// Self-scoring counters behind realized_type_accuracy(): identity
    /// predictions issued, and the subset the next arrival proved correct.
    /// Monotone over a run — serve's rolling-window stats difference them.
    [[nodiscard]] std::size_t type_predictions() const noexcept { return type_predictions_; }
    [[nodiscard]] std::size_t type_hits() const noexcept { return type_hits_; }

    /// Bit-exact model-state serialization for crash-safe checkpointing
    /// (DESIGN.md §11).  restore() throws std::runtime_error on a malformed
    /// stream or a type-count mismatch with this predictor's catalog.
    void save(std::ostream& os) const;
    void restore(std::istream& is);

private:
    /// Shared rollout core: the batch path anchors at trace.request(index),
    /// the streaming path at the most recent observed request.
    [[nodiscard]] std::vector<PredictedTask> rollout(const Request& anchor, Time now,
                                                     std::size_t depth);

    MarkovTypeChain chain_;
    TwoPhaseInterarrivalEstimator interarrival_;
    std::vector<double> type_deadline_ewma_;
    std::vector<bool> type_deadline_seen_;
    double global_deadline_ewma_ = 0.0;
    bool global_deadline_seen_ = false;
    double ewma_alpha_;
    Time overhead_;

    // Self-scoring of the identity predictions.
    std::size_t type_predictions_ = 0;
    std::size_t type_hits_ = 0;
    TaskTypeId last_predicted_type_ = 0;
    bool have_last_prediction_ = false;

    // Streaming state: the most recent observed request (the batch path
    // reads the previous request from the trace; the streaming path cannot).
    Request last_request_{};
    bool have_last_request_ = false;
};

} // namespace rmwp
