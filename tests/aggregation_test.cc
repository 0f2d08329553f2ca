#include "series/aggregation.h"

#include <gtest/gtest.h>

#include <limits>

namespace mysawh {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(AggregationTest, MeanPerPeriod) {
  const TimeSeries daily({1, 2, 3, 4, 5, 6});
  const TimeSeries monthly = AggregateByPeriod(daily, 3, AggregateOp::kMean).value();
  ASSERT_EQ(monthly.size(), 2);
  EXPECT_DOUBLE_EQ(monthly.at(0), 2.0);
  EXPECT_DOUBLE_EQ(monthly.at(1), 5.0);
}

TEST(AggregationTest, SkipsMissingWithinPeriod) {
  const TimeSeries daily({1.0, kNaN, 3.0, kNaN, kNaN, kNaN});
  const TimeSeries monthly =
      AggregateByPeriod(daily, 3, AggregateOp::kMean).value();
  EXPECT_DOUBLE_EQ(monthly.at(0), 2.0);
  EXPECT_TRUE(monthly.IsMissing(1));
}

TEST(AggregationTest, SumMinMax) {
  const TimeSeries daily({4.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(
      AggregateByPeriod(daily, 3, AggregateOp::kSum).value().at(0), 8.0);
  EXPECT_DOUBLE_EQ(
      AggregateByPeriod(daily, 3, AggregateOp::kMin).value().at(0), 1.0);
  EXPECT_DOUBLE_EQ(
      AggregateByPeriod(daily, 3, AggregateOp::kMax).value().at(0), 4.0);
}

TEST(AggregationTest, PartialFinalBucket) {
  const TimeSeries daily({2.0, 4.0, 6.0, 10.0});
  const TimeSeries monthly =
      AggregateByPeriod(daily, 3, AggregateOp::kMean).value();
  ASSERT_EQ(monthly.size(), 2);
  EXPECT_DOUBLE_EQ(monthly.at(1), 10.0);
}

TEST(AggregationTest, EmptyInput) {
  const TimeSeries monthly =
      AggregateByPeriod(TimeSeries(std::vector<double>{}), 3, AggregateOp::kMean).value();
  EXPECT_EQ(monthly.size(), 0);
}

TEST(AggregationTest, InvalidPeriod) {
  EXPECT_FALSE(AggregateByPeriod(TimeSeries({1.0}), 0, AggregateOp::kMean).ok());
  EXPECT_FALSE(
      AggregateByPeriod(TimeSeries({1.0}), -2, AggregateOp::kMean).ok());
}

}  // namespace
}  // namespace mysawh
