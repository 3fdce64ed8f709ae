#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace drep::util {
namespace {

TEST(RunningStats, EmptySampleIsZeroed) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(4.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 4.5);
  EXPECT_DOUBLE_EQ(stats.max(), 4.5);
}

TEST(RunningStats, KnownSample) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Population variance is 4; the unbiased sample variance is 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, NegativeValues) {
  RunningStats stats;
  stats.add(-3.0);
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
  EXPECT_DOUBLE_EQ(stats.max(), 3.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats left, right, all;
  const std::vector<double> values{1.0, 2.5, -4.0, 8.0, 0.5, 3.0, 3.0};
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i < 3 ? left : right).add(values[i]);
    all.add(values[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats stats, empty;
  stats.add(1.0);
  stats.add(2.0);
  const double mean = stats.mean();
  stats.merge(empty);
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_EQ(stats.count(), 2u);

  RunningStats target;
  target.merge(stats);
  EXPECT_DOUBLE_EQ(target.mean(), mean);
}

TEST(Quantile, MedianAndExtremes) {
  const std::vector<double> values{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 5.0);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> values{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.5);
}

TEST(Quantile, Validation) {
  const std::vector<double> empty;
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)quantile(empty, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(one, -0.1), std::invalid_argument);
  EXPECT_THROW((void)quantile(one, 1.1), std::invalid_argument);
  EXPECT_THROW((void)quantile(one, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(quantile(one, 0.99), 1.0);
}

TEST(MeanOf, ComputesAndValidates) {
  const std::vector<double> values{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(values), 2.0);
  const std::vector<double> empty;
  EXPECT_THROW((void)mean_of(empty), std::invalid_argument);
}

TEST(Summarize, MentionsAllFields) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(3.0);
  const std::string text = summarize(stats);
  EXPECT_NE(text.find("n=2"), std::string::npos);
  EXPECT_NE(text.find('2'), std::string::npos);  // mean
  EXPECT_NE(text.find('['), std::string::npos);
}

}  // namespace
}  // namespace drep::util
