#include "online/predictor.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "testing/builders.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace drep::online {
namespace {

using workload::Request;

TEST(PredictorConfig, ValidateRejectsOutOfRangeFields) {
  PredictorConfig config;
  EXPECT_NO_THROW(config.validate());
  config.window = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.alpha = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.alpha = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.hot_factor = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.cold_factor = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.cold_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    config = {};
    config.hot_factor = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << bad;
  }
}

TEST(ClassifyRates, ThresholdsAgainstTheMean) {
  PredictorConfig config;  // hot > 2×mean, cold < 0.5×mean
  // mean = 4: 10 > 8 is hot, 1 < 2 is cold, the rest warm.
  const std::vector<double> rates = {10.0, 1.0, 3.0, 2.0};
  const std::vector<Heat> classes = classify_rates(rates, config);
  EXPECT_EQ(classes[0], Heat::kHot);
  EXPECT_EQ(classes[1], Heat::kCold);
  EXPECT_EQ(classes[2], Heat::kWarm);
  EXPECT_EQ(classes[3], Heat::kWarm);
}

TEST(ClassifyRates, AllZeroRatesClassifyWarm) {
  const std::vector<double> rates(5, 0.0);
  for (const Heat heat : classify_rates(rates, PredictorConfig{}))
    EXPECT_EQ(heat, Heat::kWarm);
}

TEST(ClassifyRates, ScaleInvariant) {
  PredictorConfig config;
  util::Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> rates(8);
    for (double& r : rates) r = rng.uniform_real(0.0, 50.0);
    std::vector<double> scaled = rates;
    const double c = rng.uniform_real(0.01, 100.0);
    for (double& r : scaled) r *= c;
    EXPECT_EQ(classify_rates(rates, config), classify_rates(scaled, config));
  }
}

TEST(Predictor, WarmBeforeTheFirstWindowCloses) {
  PredictorConfig config;
  config.window = 16;
  Predictor predictor(config, 3);
  for (int n = 0; n < 15; ++n)
    EXPECT_FALSE(predictor.observe({0, 0, false}));
  EXPECT_EQ(predictor.windows_closed(), 0u);
  for (core::ObjectId k = 0; k < 3; ++k)
    EXPECT_EQ(predictor.heat(k), Heat::kWarm);
  EXPECT_TRUE(predictor.observe({0, 0, false}));  // the 16th closes it
  EXPECT_EQ(predictor.windows_closed(), 1u);
}

TEST(Predictor, EwmaFoldMatchesHandComputation) {
  PredictorConfig config;
  config.window = 4;
  config.alpha = 0.5;
  Predictor predictor(config, 2);
  // Window 1: object 0 seen 3 times, object 1 once.
  for (int n = 0; n < 3; ++n) (void)predictor.observe({0, 0, false});
  (void)predictor.observe({0, 1, true});
  EXPECT_DOUBLE_EQ(predictor.rate(0), 1.5);  // 0.5·3 + 0.5·0
  EXPECT_DOUBLE_EQ(predictor.rate(1), 0.5);
  // Window 2: object 1 takes all four requests.
  for (int n = 0; n < 4; ++n) (void)predictor.observe({1, 1, false});
  EXPECT_DOUBLE_EQ(predictor.rate(0), 0.75);  // 0.5·0 + 0.5·1.5
  EXPECT_DOUBLE_EQ(predictor.rate(1), 2.25);  // 0.5·4 + 0.5·0.5
}

TEST(Predictor, SkewedStreamClassifiesTheHotObject) {
  PredictorConfig config;
  config.window = 32;
  Predictor predictor(config, 8);
  // Object 0 gets 25 of every 32 requests; the rest share one each.
  for (int window = 0; window < 4; ++window) {
    for (int n = 0; n < 25; ++n) (void)predictor.observe({0, 0, false});
    for (core::ObjectId k = 1; k < 8; ++k)
      (void)predictor.observe({0, k, false});
  }
  EXPECT_EQ(predictor.heat(0), Heat::kHot);
  for (core::ObjectId k = 1; k < 8; ++k)
    EXPECT_EQ(predictor.heat(k), Heat::kCold) << "object " << k;
}

// The predictor is a pure function of the observed sequence: two instances
// fed the same seeded trace agree on every rate and class at every step.
TEST(Predictor, DeterministicAcrossInstances) {
  const core::Problem p = testing::small_random_problem(5);
  util::Rng rng(42);
  const auto trace = workload::build_trace(p, rng);
  PredictorConfig config;
  config.window = 37;
  Predictor a(config, p.objects());
  Predictor b(config, p.objects());
  for (const Request& request : trace) {
    EXPECT_EQ(a.observe(request), b.observe(request));
  }
  EXPECT_EQ(a.windows_closed(), b.windows_closed());
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    EXPECT_DOUBLE_EQ(a.rate(k), b.rate(k));
    EXPECT_EQ(a.heat(k), b.heat(k));
  }
  EXPECT_EQ(a.windows_closed(), trace.size() / config.window);
}

}  // namespace
}  // namespace drep::online
