#include "series/interpolation.h"

#include <gtest/gtest.h>

#include <limits>

namespace mysawh {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(InterpolationTest, LinearFillInterior) {
  TimeSeries s({1.0, kNaN, kNaN, 4.0});
  const auto report = ImputeMaxGap(&s, 5, ImputationMethod::kLinear).value();
  EXPECT_EQ(report.filled, 2);
  EXPECT_EQ(report.left_missing, 0);
  EXPECT_DOUBLE_EQ(s.at(1), 2.0);
  EXPECT_DOUBLE_EQ(s.at(2), 3.0);
}

TEST(InterpolationTest, RespectsMaxGap) {
  TimeSeries s({1.0, kNaN, kNaN, kNaN, 5.0});
  const auto report = ImputeMaxGap(&s, 2, ImputationMethod::kLinear).value();
  EXPECT_EQ(report.filled, 0);
  EXPECT_EQ(report.left_missing, 3);
  EXPECT_TRUE(s.IsMissing(2));
}

TEST(InterpolationTest, GapExactlyMaxIsFilled) {
  TimeSeries s({1.0, kNaN, kNaN, kNaN, 5.0});
  const auto report = ImputeMaxGap(&s, 3, ImputationMethod::kLinear).value();
  EXPECT_EQ(report.filled, 3);
  EXPECT_DOUBLE_EQ(s.at(2), 3.0);
}

TEST(InterpolationTest, MaxGapZeroDisables) {
  TimeSeries s({1.0, kNaN, 3.0});
  const auto report = ImputeMaxGap(&s, 0, ImputationMethod::kLinear).value();
  EXPECT_EQ(report.filled, 0);
  EXPECT_TRUE(s.IsMissing(1));
}

TEST(InterpolationTest, LeadingGapCarriesBackward) {
  TimeSeries s({kNaN, kNaN, 3.0});
  ASSERT_TRUE(ImputeMaxGap(&s, 5, ImputationMethod::kLinear).ok());
  EXPECT_DOUBLE_EQ(s.at(0), 3.0);
  EXPECT_DOUBLE_EQ(s.at(1), 3.0);
}

TEST(InterpolationTest, TrailingGapCarriesForward) {
  TimeSeries s({3.0, kNaN, kNaN});
  ASSERT_TRUE(ImputeMaxGap(&s, 5, ImputationMethod::kLinear).ok());
  EXPECT_DOUBLE_EQ(s.at(1), 3.0);
  EXPECT_DOUBLE_EQ(s.at(2), 3.0);
}

TEST(InterpolationTest, AllMissingStaysMissing) {
  TimeSeries s({kNaN, kNaN});
  const auto report = ImputeMaxGap(&s, 5, ImputationMethod::kLinear).value();
  EXPECT_EQ(report.filled, 0);
  EXPECT_EQ(report.left_missing, 2);
}

TEST(InterpolationTest, InvalidArguments) {
  TimeSeries s({1.0});
  EXPECT_FALSE(ImputeMaxGap(nullptr, 5, ImputationMethod::kLinear).ok());
  EXPECT_FALSE(ImputeMaxGap(&s, -1, ImputationMethod::kLinear).ok());
}

TEST(ImputationMethodTest, LocfCarriesForward) {
  TimeSeries s({1.0, kNaN, kNaN, 4.0});
  ASSERT_TRUE(ImputeMaxGap(&s, 5, ImputationMethod::kLocf).ok());
  EXPECT_DOUBLE_EQ(s.at(1), 1.0);
  EXPECT_DOUBLE_EQ(s.at(2), 1.0);
}

TEST(ImputationMethodTest, LocfLeadingGapCarriesBackward) {
  TimeSeries s({kNaN, 7.0});
  ASSERT_TRUE(ImputeMaxGap(&s, 5, ImputationMethod::kLocf).ok());
  EXPECT_DOUBLE_EQ(s.at(0), 7.0);
}

TEST(ImputationMethodTest, NearestPicksCloserSide) {
  TimeSeries s({1.0, kNaN, kNaN, kNaN, 9.0});
  ASSERT_TRUE(ImputeMaxGap(&s, 5, ImputationMethod::kNearest).ok());
  EXPECT_DOUBLE_EQ(s.at(1), 1.0);  // closer to the left
  EXPECT_DOUBLE_EQ(s.at(2), 1.0);  // tie resolves backward
  EXPECT_DOUBLE_EQ(s.at(3), 9.0);  // closer to the right
}

TEST(ImputationMethodTest, AllMethodsRespectMaxGap) {
  for (auto method : {ImputationMethod::kLinear, ImputationMethod::kLocf,
                      ImputationMethod::kNearest}) {
    TimeSeries s({1.0, kNaN, kNaN, kNaN, 5.0});
    const auto report = ImputeMaxGap(&s, 2, method).value();
    EXPECT_EQ(report.filled, 0);
    EXPECT_EQ(s.NumMissing(), 3);
  }
}

/// Property: after linear ImputeMaxGap(max), no remaining interior gap has
/// length <= max, and observed values are never modified.
class InterpolationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(InterpolationPropertyTest, NoShortGapsRemainAndObservedUntouched) {
  const int max_gap = GetParam();
  // Deterministic patterned series with gaps of many lengths.
  std::vector<double> values;
  for (int block = 1; block <= 8; ++block) {
    values.push_back(static_cast<double>(block));
    for (int i = 0; i < block; ++i) values.push_back(kNaN);
    values.push_back(static_cast<double>(block) + 0.5);
  }
  TimeSeries original(values);
  TimeSeries s(values);
  ASSERT_TRUE(ImputeMaxGap(&s, max_gap, ImputationMethod::kLinear).ok());
  for (const Gap& gap : FindGaps(s)) {
    EXPECT_GT(gap.length, max_gap);
  }
  for (int64_t i = 0; i < s.size(); ++i) {
    if (!original.IsMissing(i)) {
      EXPECT_DOUBLE_EQ(s.at(i), original.at(i)) << "observed value changed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MaxGaps, InterpolationPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 17));

}  // namespace
}  // namespace mysawh
