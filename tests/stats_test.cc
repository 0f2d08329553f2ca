#include "util/stats.h"

#include <gtest/gtest.h>

namespace mysawh {
namespace {

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, QuantileEndpointsAndMedian) {
  const std::vector<double> v = {3.0, 1.0, 2.0, 5.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0).value(), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5).value(), 3.0);
}

TEST(StatsTest, QuantileInterpolates) {
  // Type-7 on {1,2,3,4}: q=0.5 -> 2.5.
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0}, 0.5).value(), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0}, 0.25).value(), 1.75);
}

TEST(StatsTest, QuantileErrors) {
  EXPECT_FALSE(Quantile({}, 0.5).ok());
  EXPECT_FALSE(Quantile({1.0}, -0.1).ok());
  EXPECT_FALSE(Quantile({1.0}, 1.1).ok());
}

TEST(StatsTest, QuantileMonotoneInQ) {
  const std::vector<double> v = {9.0, 1.0, 5.0, 2.0, 8.0, 4.0, 7.0};
  double previous = Quantile(v, 0.0).value();
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double current = Quantile(v, q).value();
    EXPECT_GE(current, previous - 1e-12);
    previous = current;
  }
}

TEST(StatsTest, BoxStatsSimple) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const BoxStats box = ComputeBoxStats(v).value();
  EXPECT_DOUBLE_EQ(box.median, 5.0);
  EXPECT_DOUBLE_EQ(box.q1, 3.0);
  EXPECT_DOUBLE_EQ(box.q3, 7.0);
  EXPECT_DOUBLE_EQ(box.min, 1.0);
  EXPECT_DOUBLE_EQ(box.max, 9.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(StatsTest, BoxStatsFindsOutliers) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 100.0, -50.0};
  const BoxStats box = ComputeBoxStats(v).value();
  ASSERT_EQ(box.outliers.size(), 2u);
  EXPECT_DOUBLE_EQ(box.outliers[0], -50.0);
  EXPECT_DOUBLE_EQ(box.outliers[1], 100.0);
  // Whiskers exclude the outliers.
  EXPECT_GE(box.min, -50.0 + 1.0);
  EXPECT_LE(box.max, 100.0 - 1.0);
}

TEST(StatsTest, BoxStatsEmptyFails) {
  EXPECT_FALSE(ComputeBoxStats({}).ok());
}

TEST(StatsTest, HistogramBinsHalfOpen) {
  const auto hist =
      ComputeHistogram({0.0, 0.5, 1.0, 1.5, 2.0, -1.0, 5.0}, {0.0, 1.0, 2.0})
          .value();
  ASSERT_EQ(hist.counts.size(), 2u);
  EXPECT_EQ(hist.counts[0], 2);  // 0.0, 0.5
  EXPECT_EQ(hist.counts[1], 2);  // 1.0, 1.5
  EXPECT_EQ(hist.below, 1);      // -1.0
  EXPECT_EQ(hist.above, 2);      // 2.0 (== last edge), 5.0
}

TEST(StatsTest, HistogramRejectsBadEdges) {
  EXPECT_FALSE(ComputeHistogram({1.0}, {0.0}).ok());
  EXPECT_FALSE(ComputeHistogram({1.0}, {0.0, 0.0}).ok());
  EXPECT_FALSE(ComputeHistogram({1.0}, {1.0, 0.0}).ok());
}

}  // namespace
}  // namespace mysawh
