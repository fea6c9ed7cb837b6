#include "predict/online.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/check.hpp"
#include "util/hexfloat.hpp"

namespace rmwp {
namespace {

constexpr const char* kCheckpointContext = "predictor checkpoint";

/// Count `to` once more in `counts`, keeping `mode` its first argmax:
/// only the incremented cell can overtake, and it does when it now
/// exceeds the mode or ties it from a smaller id.
void count_and_track_mode(std::vector<std::uint32_t>& counts, TaskTypeId to, TaskTypeId& mode) {
    ++counts[to];
    if (counts[to] > counts[mode] || (counts[to] == counts[mode] && to < mode)) mode = to;
}

/// The first argmax of `counts`, as std::max_element finds it.
TaskTypeId first_mode(const std::vector<std::uint32_t>& counts) {
    return static_cast<TaskTypeId>(std::max_element(counts.begin(), counts.end()) -
                                   counts.begin());
}

} // namespace

TwoPhaseInterarrivalEstimator::TwoPhaseInterarrivalEstimator(double ewma_alpha)
    : alpha_(ewma_alpha) {
    RMWP_EXPECT(ewma_alpha > 0.0 && ewma_alpha <= 1.0);
}

void TwoPhaseInterarrivalEstimator::observe(double gap) {
    RMWP_EXPECT(gap >= 0.0);
    if (count_ == 0) {
        // Seed both regimes around the first observation, slightly apart so
        // the assignment step can separate a bimodal stream.
        centers_[0] = gap * 0.5;
        centers_[1] = gap * 1.5;
        ewma_[0] = gap;
        ewma_[1] = gap;
        global_ewma_ = gap;
    }
    ++count_;

    const int phase = std::abs(gap - centers_[0]) <= std::abs(gap - centers_[1]) ? 0 : 1;
    ++center_count_[phase];
    const double step = 1.0 / static_cast<double>(center_count_[phase]);
    centers_[phase] += step * (gap - centers_[phase]);
    ewma_[phase] += alpha_ * (gap - ewma_[phase]);
    global_ewma_ += alpha_ * (gap - global_ewma_);
    last_phase_ = phase;
}

void TwoPhaseInterarrivalEstimator::save(std::ostream& os) const {
    put_f64(os, alpha_);
    for (double center : centers_) put_f64(os, center);
    for (double e : ewma_) put_f64(os, e);
    put_f64(os, global_ewma_);
    os << center_count_[0] << ' ' << center_count_[1] << ' ' << last_phase_ << ' ' << count_
       << '\n';
}

void TwoPhaseInterarrivalEstimator::load(std::istream& is) {
    alpha_ = get_f64(is, kCheckpointContext);
    for (double& center : centers_) center = get_f64(is, kCheckpointContext);
    for (double& e : ewma_) e = get_f64(is, kCheckpointContext);
    global_ewma_ = get_f64(is, kCheckpointContext);
    center_count_[0] = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    center_count_[1] = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    last_phase_ = static_cast<int>(get_u64(is, kCheckpointContext));
    count_ = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    if (last_phase_ != 0 && last_phase_ != 1)
        throw std::runtime_error("predictor checkpoint: bad interarrival phase");
}

double TwoPhaseInterarrivalEstimator::predict() const noexcept {
    // On a unimodal stream the two "regimes" are just the two halves of one
    // distribution; following the last draw's half would bias the estimate.
    // Only trust the phase model when the regimes are genuinely separated.
    const double spread = std::abs(centers_[1] - centers_[0]);
    const double scale = 0.5 * (centers_[0] + centers_[1]);
    if (scale <= 0.0 || spread < scale) return global_ewma_;
    return ewma_[last_phase_];
}

MarkovTypeChain::MarkovTypeChain(std::size_t type_count)
    : type_count_(type_count),
      transition_(type_count, std::vector<std::uint32_t>(type_count, 0)),
      marginal_(type_count, 0),
      row_mode_(type_count, 0) {
    RMWP_EXPECT(type_count > 0);
}

void MarkovTypeChain::observe(TaskTypeId from, TaskTypeId to) {
    RMWP_EXPECT(from < type_count_ && to < type_count_);
    count_and_track_mode(transition_[from], to, row_mode_[from]);
    count_and_track_mode(marginal_, to, marginal_mode_);
}

void MarkovTypeChain::observe_first(TaskTypeId first) {
    RMWP_EXPECT(first < type_count_);
    count_and_track_mode(marginal_, first, marginal_mode_);
}

void MarkovTypeChain::save(std::ostream& os) const {
    os << type_count_ << '\n';
    for (const auto& row : transition_) {
        for (std::size_t to = 0; to < type_count_; ++to)
            os << row[to] << (to + 1 < type_count_ ? ' ' : '\n');
    }
    for (std::size_t to = 0; to < type_count_; ++to)
        os << marginal_[to] << (to + 1 < type_count_ ? ' ' : '\n');
}

void MarkovTypeChain::load(std::istream& is) {
    const auto count = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    if (count != type_count_)
        throw std::runtime_error("predictor checkpoint: type count mismatch (checkpoint has " +
                                 std::to_string(count) + ", catalog has " +
                                 std::to_string(type_count_) + ")");
    for (auto& row : transition_)
        for (auto& cell : row) cell = static_cast<std::uint32_t>(get_u64(is, kCheckpointContext));
    for (auto& cell : marginal_) cell = static_cast<std::uint32_t>(get_u64(is, kCheckpointContext));
    // The modes are derived state, so the checkpoint does not carry them.
    for (std::size_t from = 0; from < type_count_; ++from)
        row_mode_[from] = first_mode(transition_[from]);
    marginal_mode_ = first_mode(marginal_);
}

TaskTypeId MarkovTypeChain::predict(TaskTypeId from) const {
    RMWP_EXPECT(from < type_count_);
    const TaskTypeId row_best = row_mode_[from];
    if (transition_[from][row_best] > 0) return row_best;
    return marginal_mode_; // cold row: fall back to the global mode
}

OnlinePredictor::OnlinePredictor(const Catalog& catalog, Time overhead, double ewma_alpha)
    : chain_(catalog.size()),
      interarrival_(ewma_alpha),
      type_deadline_ewma_(catalog.size(), 0.0),
      type_deadline_seen_(catalog.size(), false),
      ewma_alpha_(ewma_alpha),
      overhead_(overhead) {
    RMWP_EXPECT(overhead >= 0.0);
}

void OnlinePredictor::observe(const Trace& trace, std::size_t index) {
    observe_arrival(trace.request(index));
}

void OnlinePredictor::observe_arrival(const Request& request) {
    if (have_last_prediction_) {
        ++type_predictions_;
        if (last_predicted_type_ == request.type) ++type_hits_;
        have_last_prediction_ = false;
    }

    if (!have_last_request_) {
        chain_.observe_first(request.type);
    } else {
        chain_.observe(last_request_.type, request.type);
        interarrival_.observe(request.arrival - last_request_.arrival);
    }
    last_request_ = request;
    have_last_request_ = true;

    if (!type_deadline_seen_[request.type]) {
        type_deadline_ewma_[request.type] = request.relative_deadline;
        type_deadline_seen_[request.type] = true;
    } else {
        type_deadline_ewma_[request.type] +=
            ewma_alpha_ * (request.relative_deadline - type_deadline_ewma_[request.type]);
    }
    if (!global_deadline_seen_) {
        global_deadline_ewma_ = request.relative_deadline;
        global_deadline_seen_ = true;
    } else {
        global_deadline_ewma_ += ewma_alpha_ * (request.relative_deadline - global_deadline_ewma_);
    }
}

std::optional<PredictedTask> OnlinePredictor::predict_next(const Trace& trace, std::size_t index,
                                                           Time now) {
    // Trace-bound adapter: the batch caller knows the trace ends, so no
    // prediction is offered past the last request.
    if (index + 1 >= trace.size()) return std::nullopt;
    auto horizon = rollout(trace.request(index), now, 1);
    if (horizon.empty()) return std::nullopt;
    return horizon.front();
}

std::vector<PredictedTask> OnlinePredictor::predict_horizon(const Trace& trace,
                                                            std::size_t index, Time now,
                                                            std::size_t depth) {
    if (index + 1 >= trace.size()) return {};
    return rollout(trace.request(index), now, std::min(depth, trace.size() - index - 1));
}

std::vector<PredictedTask> OnlinePredictor::predict_upcoming(Time now, std::size_t depth) {
    if (!have_last_request_) return {};
    return rollout(last_request_, now, depth);
}

std::vector<PredictedTask> OnlinePredictor::rollout(const Request& anchor, Time now,
                                                    std::size_t depth) {
    std::vector<PredictedTask> horizon;
    if (depth == 0) return horizon;
    // Cold start: without at least one observed gap there is no timing model.
    if (interarrival_.observations() == 0) return horizon;

    // Markov-chain rollout anchored at `anchor`.
    TaskTypeId type = anchor.type;
    Time arrival = anchor.arrival;
    const double gap = interarrival_.predict();
    for (std::size_t k = 1; k <= depth; ++k) {
        type = chain_.predict(type);
        arrival += gap;
        const double deadline = type_deadline_seen_[type] ? type_deadline_ewma_[type]
                                                          : global_deadline_ewma_;
        if (deadline <= 0.0) break;
        horizon.push_back(PredictedTask{type, std::max(arrival, now), deadline});
        if (k == 1) {
            last_predicted_type_ = type;
            have_last_prediction_ = true;
        }
    }
    return horizon;
}

void OnlinePredictor::save(std::ostream& os) const {
    os << "RMWP-ONLINE-PREDICTOR 1\n";
    chain_.save(os);
    interarrival_.save(os);
    os << type_deadline_ewma_.size() << '\n';
    for (std::size_t t = 0; t < type_deadline_ewma_.size(); ++t) {
        os << (type_deadline_seen_[t] ? 1 : 0) << ' ';
        put_f64(os, type_deadline_ewma_[t]);
    }
    os << (global_deadline_seen_ ? 1 : 0) << ' ';
    put_f64(os, global_deadline_ewma_);
    put_f64(os, ewma_alpha_);
    put_f64(os, overhead_);
    os << type_predictions_ << ' ' << type_hits_ << ' ' << last_predicted_type_ << ' '
       << (have_last_prediction_ ? 1 : 0) << '\n';
    os << (have_last_request_ ? 1 : 0) << ' ' << last_request_.type << ' ';
    put_f64(os, last_request_.arrival);
    put_f64(os, last_request_.relative_deadline);
}

void OnlinePredictor::restore(std::istream& is) {
    std::string magic, version;
    if (!(is >> magic >> version) || magic != "RMWP-ONLINE-PREDICTOR" || version != "1")
        throw std::runtime_error("predictor checkpoint: bad header");
    chain_.load(is);
    interarrival_.load(is);
    const auto type_count = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    if (type_count != type_deadline_ewma_.size())
        throw std::runtime_error("predictor checkpoint: deadline table size mismatch");
    for (std::size_t t = 0; t < type_count; ++t) {
        type_deadline_seen_[t] = get_u64(is, kCheckpointContext) != 0;
        type_deadline_ewma_[t] = get_f64(is, kCheckpointContext);
    }
    global_deadline_seen_ = get_u64(is, kCheckpointContext) != 0;
    global_deadline_ewma_ = get_f64(is, kCheckpointContext);
    ewma_alpha_ = get_f64(is, kCheckpointContext);
    overhead_ = get_f64(is, kCheckpointContext);
    type_predictions_ = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    type_hits_ = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    last_predicted_type_ = static_cast<TaskTypeId>(get_u64(is, kCheckpointContext));
    have_last_prediction_ = get_u64(is, kCheckpointContext) != 0;
    have_last_request_ = get_u64(is, kCheckpointContext) != 0;
    last_request_.type = static_cast<TaskTypeId>(get_u64(is, kCheckpointContext));
    last_request_.arrival = get_f64(is, kCheckpointContext);
    last_request_.relative_deadline = get_f64(is, kCheckpointContext);
}

double OnlinePredictor::realized_type_accuracy() const noexcept {
    if (type_predictions_ == 0) return 0.0;
    return static_cast<double>(type_hits_) / static_cast<double>(type_predictions_);
}

} // namespace rmwp
