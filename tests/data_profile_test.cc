/// Golden tests of the per-cell data-quality profile: a tiny synthetic
/// cohort with known missingness and class balance must produce
/// exactly the expected statistics, and the JSON rendering must be
/// deterministic (the profile is a pure function of the partitions).

#include "core/data_profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace mysawh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Train partition with hand-designed pathologies:
///   "full"     0..9, no missing cells;
///   "half"     NaN on even rows (50% missing), odd values 1,3,5,7,9;
///   "constant" always 1.0 (zero variance).
/// Binary labels: rows 5..9 positive (50% positive rate).
Dataset MakeTrain() {
  Dataset ds = Dataset::Create({"full", "half", "constant"});
  for (int r = 0; r < 10; ++r) {
    const double half = (r % 2 == 0) ? kNaN : static_cast<double>(r);
    EXPECT_TRUE(
        ds.AddRow({static_cast<double>(r), half, 1.0}, r < 5 ? 0.0 : 1.0)
            .ok());
  }
  return ds;
}

/// Test partition: "full" shifted by +2, "half" entirely
/// missing, one positive label of five (20% positive rate).
Dataset MakeTest() {
  Dataset ds = Dataset::Create({"full", "half", "constant"});
  for (int r = 0; r < 5; ++r) {
    EXPECT_TRUE(ds.AddRow({static_cast<double>(r + 2), kNaN, 1.0},
                          r == 0 ? 1.0 : 0.0)
                    .ok());
  }
  return ds;
}

TEST(DataProfileTest, GoldenStatisticsOnKnownCohort) {
  const auto profile_or =
      ProfilePartition(MakeTrain(), MakeTest(), /*classification=*/true);
  ASSERT_TRUE(profile_or.ok()) << profile_or.status().ToString();
  const DataQualityProfile& profile = *profile_or;

  EXPECT_EQ(profile.train_rows, 10);
  EXPECT_EQ(profile.test_rows, 5);
  EXPECT_EQ(profile.num_features, 3);
  ASSERT_EQ(profile.features.size(), 3u);

  EXPECT_TRUE(profile.outcome.classification);
  EXPECT_DOUBLE_EQ(profile.outcome.mean_train, 0.5);
  EXPECT_DOUBLE_EQ(profile.outcome.mean_test, 0.2);
  EXPECT_EQ(profile.outcome.positives_train, 5);
  EXPECT_EQ(profile.outcome.positives_test, 1);
  EXPECT_DOUBLE_EQ(profile.outcome.min_train, 0.0);
  EXPECT_DOUBLE_EQ(profile.outcome.max_train, 1.0);

  const FeatureQuality& full = profile.features[0];
  EXPECT_EQ(full.name, "full");
  EXPECT_DOUBLE_EQ(full.missing_train, 0.0);
  EXPECT_DOUBLE_EQ(full.missing_test, 0.0);
  EXPECT_DOUBLE_EQ(full.mean_train, 4.5);
  EXPECT_DOUBLE_EQ(full.mean_test, 4.0);
  // Population stddev of 0..9 is sqrt(8.25).
  EXPECT_DOUBLE_EQ(full.stddev_train, std::sqrt(8.25));

  const FeatureQuality& half = profile.features[1];
  EXPECT_EQ(half.name, "half");
  EXPECT_DOUBLE_EQ(half.missing_train, 0.5);
  EXPECT_DOUBLE_EQ(half.missing_test, 1.0);
  EXPECT_DOUBLE_EQ(half.mean_train, 5.0);  // mean of 1,3,5,7,9
  EXPECT_TRUE(std::isnan(half.mean_test));

  const FeatureQuality& constant = profile.features[2];
  EXPECT_EQ(constant.name, "constant");
  EXPECT_DOUBLE_EQ(constant.stddev_train, 0.0);

  EXPECT_EQ(profile.max_missing_feature, "half");
  EXPECT_DOUBLE_EQ(profile.max_missing_train, 0.5);
}

TEST(DataProfileTest, BinOccupancyMatchesHistogramResolution) {
  const auto profile_or =
      ProfilePartition(MakeTrain(), MakeTest(), /*classification=*/true);
  ASSERT_TRUE(profile_or.ok());
  const DataQualityProfile& profile = *profile_or;

  // 10 distinct values, fewer than max_bins: one bin per value.
  EXPECT_EQ(profile.features[0].num_bins, 10);
  EXPECT_EQ(profile.features[0].occupied_bins, 10);
  EXPECT_EQ(profile.features[0].max_bin_count, 1);
  // "half": 5 present values, each its own bin; missing cells are tracked
  // by the missingness fraction, not the occupancy.
  EXPECT_EQ(profile.features[1].occupied_bins, 5);
  EXPECT_EQ(profile.features[1].max_bin_count, 1);
  // "constant": a single bin holding every row.
  EXPECT_EQ(profile.features[2].occupied_bins, profile.features[2].num_bins);
  EXPECT_EQ(profile.features[2].max_bin_count, 10);
  // Every feature fully occupies its bins here.
  EXPECT_DOUBLE_EQ(profile.mean_bin_occupancy, 1.0);
}

TEST(DataProfileTest, JsonIsDeterministicAndWellFormed) {
  const auto profile_or =
      ProfilePartition(MakeTrain(), MakeTest(), /*classification=*/true);
  ASSERT_TRUE(profile_or.ok());
  const std::string json = DataQualityJson(*profile_or);
  EXPECT_EQ(json, DataQualityJson(*profile_or));  // pure function

  EXPECT_NE(json.find("\"train_rows\":10"), std::string::npos);
  EXPECT_NE(json.find("\"positives_train\":5"), std::string::npos);
  EXPECT_NE(json.find("\"max_missing_feature\":\"half\""), std::string::npos);
  // All-missing means render as JSON null, never "nan".
  EXPECT_NE(json.find("\"mean_test\":null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(DataProfileTest, RegressionOutcomeOmitsClassCounts) {
  const auto profile_or =
      ProfilePartition(MakeTrain(), MakeTest(), /*classification=*/false);
  ASSERT_TRUE(profile_or.ok());
  EXPECT_FALSE(profile_or->outcome.classification);
  const std::string json = DataQualityJson(*profile_or);
  EXPECT_EQ(json.find("positives_train"), std::string::npos);
  EXPECT_NE(json.find("\"classification\":false"), std::string::npos);
}

TEST(DataProfileTest, RejectsMalformedPartitions) {
  const Dataset train = MakeTrain();
  Dataset empty = Dataset::Create({"full", "half", "constant"});
  EXPECT_FALSE(ProfilePartition(train, empty, true).ok());
  EXPECT_FALSE(ProfilePartition(empty, train, true).ok());
  Dataset narrow = Dataset::Create({"only"});
  EXPECT_TRUE(narrow.AddRow({1.0}, 0.0).ok());
  EXPECT_FALSE(ProfilePartition(train, narrow, true).ok());
}

}  // namespace
}  // namespace mysawh::core
