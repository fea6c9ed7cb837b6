// Tests for the prediction substrate: oracle truthfulness, calibrated noise
// (the Fig 4 knobs), the online Markov/two-phase predictor, and the spec
// factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <tuple>
#include <vector>

#include "predict/noisy.hpp"
#include "predict/online.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "util/stats.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

struct PredictWorld {
    Platform platform = make_paper_platform();
    Catalog catalog;
    Trace trace;

    static Catalog make_world_catalog(const Platform& platform, std::uint64_t seed) {
        CatalogParams params;
        params.type_count = 20;
        Rng catalog_rng = Rng(seed).derive(1);
        return generate_catalog(platform, params, catalog_rng);
    }

    explicit PredictWorld(std::uint64_t seed = 1, std::size_t length = 2000)
        : catalog(make_world_catalog(platform, seed)) {
        TraceGenParams trace_params;
        trace_params.length = length;
        Rng trace_rng = Rng(seed).derive(2);
        trace = generate_trace(catalog, trace_params, trace_rng);
    }
};

TEST(Oracle, ReturnsGroundTruth) {
    const PredictWorld setup;
    OraclePredictor oracle;
    for (std::size_t j = 0; j + 1 < 50; ++j) {
        const auto predicted = oracle.predict_next(setup.trace, j, setup.trace.request(j).arrival);
        ASSERT_TRUE(predicted.has_value());
        const Request& next = setup.trace.request(j + 1);
        EXPECT_EQ(predicted->type, next.type);
        EXPECT_DOUBLE_EQ(predicted->arrival, next.arrival);
        EXPECT_DOUBLE_EQ(predicted->relative_deadline, next.relative_deadline);
    }
}

TEST(Oracle, NoPredictionAtEndOfTrace) {
    const PredictWorld setup;
    OraclePredictor oracle;
    EXPECT_FALSE(oracle.predict_next(setup.trace, setup.trace.size() - 1, 0.0).has_value());
}

TEST(Oracle, ClampsArrivalToNow) {
    const PredictWorld setup;
    OraclePredictor oracle;
    const Time late_now = setup.trace.request(1).arrival + 100.0;
    const auto predicted = oracle.predict_next(setup.trace, 0, late_now);
    ASSERT_TRUE(predicted.has_value());
    EXPECT_DOUBLE_EQ(predicted->arrival, late_now);
}

TEST(Oracle, OverheadPassthrough) {
    OraclePredictor oracle(0.25);
    EXPECT_DOUBLE_EQ(oracle.overhead(), 0.25);
}

TEST(Noisy, TypeAccuracyIsCalibrated) {
    const PredictWorld setup;
    NoisyPredictor predictor(setup.catalog, /*type_accuracy=*/0.75, /*time_nrmse=*/0.0,
                             Rng(99));
    std::size_t hits = 0;
    std::size_t total = 0;
    for (std::size_t j = 0; j + 1 < setup.trace.size(); ++j) {
        const auto predicted = predictor.predict_next(setup.trace, j, 0.0);
        ASSERT_TRUE(predicted.has_value());
        ++total;
        if (predicted->type == setup.trace.request(j + 1).type) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / static_cast<double>(total), 0.75, 0.03);
}

TEST(Noisy, WrongTypeIsNeverTheTruth) {
    // With accuracy 0, the predicted identity must always differ.
    const PredictWorld setup;
    NoisyPredictor predictor(setup.catalog, 0.0, 0.0, Rng(100));
    for (std::size_t j = 0; j + 1 < 300; ++j) {
        const auto predicted = predictor.predict_next(setup.trace, j, 0.0);
        ASSERT_TRUE(predicted.has_value());
        EXPECT_NE(predicted->type, setup.trace.request(j + 1).type);
    }
}

TEST(Noisy, ArrivalNrmseIsCalibrated) {
    const PredictWorld setup;
    const double dialed = 0.25;
    NoisyPredictor predictor(setup.catalog, 1.0, dialed, Rng(101));
    std::vector<double> predicted_times;
    std::vector<double> actual_times;
    for (std::size_t j = 0; j + 1 < setup.trace.size(); ++j) {
        const auto predicted = predictor.predict_next(setup.trace, j, 0.0);
        ASSERT_TRUE(predicted.has_value());
        predicted_times.push_back(predicted->arrival);
        actual_times.push_back(setup.trace.request(j + 1).arrival);
    }
    // Sec 5.4 definition: RMSE over the trace normalised by the mean
    // interarrival time.
    const double realized =
        rmse(predicted_times, actual_times) / setup.trace.mean_interarrival();
    EXPECT_NEAR(realized, dialed, 0.03);
}

TEST(Noisy, DeadlineStaysTruthful) {
    const PredictWorld setup;
    NoisyPredictor predictor(setup.catalog, 0.5, 0.5, Rng(102));
    for (std::size_t j = 0; j + 1 < 100; ++j) {
        const auto predicted = predictor.predict_next(setup.trace, j, 0.0);
        ASSERT_TRUE(predicted.has_value());
        EXPECT_DOUBLE_EQ(predicted->relative_deadline,
                         setup.trace.request(j + 1).relative_deadline);
    }
}

TEST(Noisy, ArrivalNeverBeforeNow) {
    const PredictWorld setup;
    NoisyPredictor predictor(setup.catalog, 1.0, 2.0, Rng(103)); // huge noise
    for (std::size_t j = 0; j + 1 < 500; ++j) {
        const Time now = setup.trace.request(j).arrival;
        const auto predicted = predictor.predict_next(setup.trace, j, now);
        ASSERT_TRUE(predicted.has_value());
        EXPECT_GE(predicted->arrival, now);
    }
}

TEST(Null, NeverPredicts) {
    const PredictWorld setup;
    NullPredictor predictor;
    EXPECT_FALSE(predictor.predict_next(setup.trace, 0, 0.0).has_value());
    EXPECT_DOUBLE_EQ(predictor.overhead(), 0.0);
}

TEST(TwoPhaseEstimator, ConvergesOnUnimodalStream) {
    TwoPhaseInterarrivalEstimator estimator;
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) estimator.observe(rng.gaussian_above(6.0, 2.0, 0.1));
    EXPECT_NEAR(estimator.predict(), 6.0, 1.0);
}

TEST(TwoPhaseEstimator, TracksAlternatingPhases) {
    // Gaps alternate between a burst regime (~2) and a lull regime (~20) in
    // blocks; after the blocks stabilise, predictions should follow the
    // current regime, not the global mean (~11).
    TwoPhaseInterarrivalEstimator estimator;
    Rng rng(8);
    double burst_error = 0.0;
    double lull_error = 0.0;
    int scored = 0;
    for (int block = 0; block < 40; ++block) {
        const bool burst = block % 2 == 0;
        for (int i = 0; i < 25; ++i) {
            const double gap = burst ? rng.gaussian_above(2.0, 0.2, 0.1)
                                     : rng.gaussian_above(20.0, 2.0, 0.1);
            estimator.observe(gap);
            if (block >= 10 && i >= 1) { // warm, and within-block
                const double prediction = estimator.predict();
                if (burst) burst_error += std::abs(prediction - 2.0);
                else lull_error += std::abs(prediction - 20.0);
                ++scored;
            }
        }
    }
    ASSERT_GT(scored, 0);
    // Mean in-regime error far below the 9-unit error a global mean incurs.
    EXPECT_LT((burst_error + lull_error) / scored, 3.0);
}

TEST(MarkovChain, LearnsDeterministicCycle) {
    MarkovTypeChain chain(4);
    chain.observe_first(0);
    for (int round = 0; round < 10; ++round)
        for (TaskTypeId t = 0; t < 4; ++t) chain.observe(t, (t + 1) % 4);
    for (TaskTypeId t = 0; t < 4; ++t) EXPECT_EQ(chain.predict(t), (t + 1) % 4);
}

TEST(MarkovChain, ColdRowFallsBackToGlobalMode) {
    MarkovTypeChain chain(5);
    chain.observe_first(2);
    chain.observe(2, 2);
    chain.observe(2, 2);
    // Row 4 never seen: the global mode (type 2) is predicted.
    EXPECT_EQ(chain.predict(4), 2u);
}

TEST(MarkovChain, PredictionIsTheFirstArgmaxOfTheCounts) {
    // Few types and a short stream keep counts tied often, so the
    // smallest-id tie rule is exercised, cold rows included; a save/load
    // round trip must rebuild the same modes.
    constexpr std::size_t kTypes = 5;
    MarkovTypeChain chain(kTypes);
    std::vector<std::vector<std::uint32_t>> rows(kTypes, std::vector<std::uint32_t>(kTypes, 0));
    std::vector<std::uint32_t> marginal(kTypes, 0);
    const auto first_argmax = [](const std::vector<std::uint32_t>& counts) {
        return static_cast<TaskTypeId>(std::max_element(counts.begin(), counts.end()) -
                                       counts.begin());
    };
    const auto expect_matches = [&](const MarkovTypeChain& model, int step) {
        for (TaskTypeId from = 0; from < kTypes; ++from) {
            const TaskTypeId expected =
                rows[from][first_argmax(rows[from])] > 0 ? first_argmax(rows[from])
                                                         : first_argmax(marginal);
            EXPECT_EQ(model.predict(from), expected) << "step " << step << " from " << from;
        }
    };
    Rng rng(7);
    TaskTypeId last = rng.index(kTypes);
    chain.observe_first(last);
    ++marginal[last];
    for (int step = 0; step < 300; ++step) {
        const TaskTypeId next = rng.index(kTypes);
        chain.observe(last, next);
        ++rows[last][next];
        ++marginal[next];
        last = next;
        expect_matches(chain, step);
    }
    std::stringstream saved;
    chain.save(saved);
    MarkovTypeChain restored(kTypes);
    restored.load(saved);
    expect_matches(restored, -1);
}

TEST(Online, LearnsPatternedStream) {
    // Types follow a cycle; the online predictor should reach high realized
    // type accuracy.
    const PredictWorld setup;
    std::vector<Request> requests;
    Time arrival = 0.0;
    Rng rng(9);
    for (std::size_t j = 0; j < 600; ++j) {
        if (j > 0) arrival += rng.gaussian_above(6.0, 1.0, 0.5);
        requests.push_back(Request{arrival, j % 5, 30.0});
    }
    const Trace trace(std::move(requests));

    OnlinePredictor predictor(setup.catalog);
    for (std::size_t j = 0; j + 1 < trace.size(); ++j) {
        predictor.observe(trace, j);
        std::ignore = predictor.predict_next(trace, j, trace.request(j).arrival);
    }
    predictor.observe(trace, trace.size() - 1);
    EXPECT_GT(predictor.realized_type_accuracy(), 0.9);
}

TEST(Online, ColdStartYieldsNoPrediction) {
    const PredictWorld setup;
    OnlinePredictor predictor(setup.catalog);
    predictor.observe(setup.trace, 0);
    EXPECT_FALSE(predictor.predict_next(setup.trace, 0, 0.0).has_value());
}

TEST(Factory, BuildsEveryKind) {
    const PredictWorld setup;
    for (const PredictorSpec::Kind kind :
         {PredictorSpec::Kind::none, PredictorSpec::Kind::oracle, PredictorSpec::Kind::noisy,
          PredictorSpec::Kind::online}) {
        PredictorSpec spec;
        spec.kind = kind;
        const auto predictor = make_predictor(spec, setup.catalog, Rng(1));
        ASSERT_NE(predictor, nullptr);
        EXPECT_FALSE(predictor->name().empty());
    }
    EXPECT_EQ(PredictorSpec::off().label(), "off");
    EXPECT_EQ(PredictorSpec::perfect().label(), "on");
}

} // namespace
} // namespace rmwp
