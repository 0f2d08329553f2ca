#include "data/split.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace mysawh {
namespace {

std::set<int64_t> AsSet(const std::vector<int64_t>& v) {
  return {v.begin(), v.end()};
}

TEST(TrainTestSplitTest, PartitionsAllRows) {
  Rng rng(1);
  const auto split = TrainTestSplit(100, 0.2, &rng).value();
  EXPECT_EQ(split.test.size(), 20u);
  EXPECT_EQ(split.train.size(), 80u);
  std::set<int64_t> all = AsSet(split.train);
  for (int64_t i : split.test) EXPECT_TRUE(all.insert(i).second);
  EXPECT_EQ(all.size(), 100u);
}

TEST(TrainTestSplitTest, BothSidesNonEmptyAtExtremes) {
  Rng rng(2);
  const auto tiny = TrainTestSplit(2, 0.01, &rng).value();
  EXPECT_EQ(tiny.test.size(), 1u);
  EXPECT_EQ(tiny.train.size(), 1u);
  const auto huge = TrainTestSplit(2, 0.99, &rng).value();
  EXPECT_EQ(huge.test.size(), 1u);
}

TEST(TrainTestSplitTest, InvalidInputs) {
  Rng rng(3);
  EXPECT_FALSE(TrainTestSplit(1, 0.2, &rng).ok());
  EXPECT_FALSE(TrainTestSplit(10, 0.0, &rng).ok());
  EXPECT_FALSE(TrainTestSplit(10, 1.0, &rng).ok());
}

TEST(StratifiedSplitTest, PreservesClassesOnBothSides) {
  Rng rng(7);
  std::vector<double> labels;
  for (int i = 0; i < 90; ++i) labels.push_back(0.0);
  for (int i = 0; i < 10; ++i) labels.push_back(1.0);
  const auto split = StratifiedTrainTestSplit(labels, 0.2, &rng).value();
  int64_t test_pos = 0, train_pos = 0;
  for (int64_t r : split.test) test_pos += labels[static_cast<size_t>(r)] > 0.5;
  for (int64_t r : split.train) train_pos += labels[static_cast<size_t>(r)] > 0.5;
  EXPECT_EQ(test_pos, 2);
  EXPECT_EQ(train_pos, 8);
  EXPECT_EQ(split.test.size() + split.train.size(), labels.size());
}

TEST(StratifiedSplitTest, RejectsNonIntegralLabels) {
  Rng rng(1);
  EXPECT_FALSE(StratifiedTrainTestSplit({0.5, 1.0, 0.0}, 0.3, &rng).ok());
}

class KFoldParamTest
    : public ::testing::TestWithParam<std::pair<int64_t, int>> {};

TEST_P(KFoldParamTest, FoldsPartitionRows) {
  const auto [n, k] = GetParam();
  Rng rng(11);
  const auto folds = KFoldSplit(n, k, &rng).value();
  ASSERT_EQ(folds.size(), static_cast<size_t>(k));
  std::set<int64_t> all_validation;
  for (const Fold& fold : folds) {
    EXPECT_EQ(fold.train.size() + fold.validation.size(),
              static_cast<size_t>(n));
    std::set<int64_t> train = AsSet(fold.train);
    for (int64_t v : fold.validation) {
      EXPECT_EQ(train.count(v), 0u);
      EXPECT_TRUE(all_validation.insert(v).second)
          << "row " << v << " validated twice";
    }
  }
  EXPECT_EQ(all_validation.size(), static_cast<size_t>(n));
  // Fold sizes are balanced within one row.
  size_t min_size = folds[0].validation.size(), max_size = min_size;
  for (const Fold& fold : folds) {
    min_size = std::min(min_size, fold.validation.size());
    max_size = std::max(max_size, fold.validation.size());
  }
  EXPECT_LE(max_size - min_size, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, KFoldParamTest,
    ::testing::Values(std::make_pair<int64_t, int>(10, 2),
                      std::make_pair<int64_t, int>(10, 5),
                      std::make_pair<int64_t, int>(101, 5),
                      std::make_pair<int64_t, int>(37, 7),
                      std::make_pair<int64_t, int>(5, 5)));

TEST(KFoldTest, InvalidArgs) {
  Rng rng(1);
  EXPECT_FALSE(KFoldSplit(10, 1, &rng).ok());
  EXPECT_FALSE(KFoldSplit(3, 5, &rng).ok());
}

TEST(StratifiedKFoldTest, EachFoldHasBothClasses) {
  Rng rng(13);
  std::vector<double> labels;
  for (int i = 0; i < 80; ++i) labels.push_back(0.0);
  for (int i = 0; i < 20; ++i) labels.push_back(1.0);
  const auto folds = StratifiedKFoldSplit(labels, 5, &rng).value();
  for (const Fold& fold : folds) {
    int64_t pos = 0;
    for (int64_t r : fold.validation) pos += labels[static_cast<size_t>(r)] > 0.5;
    EXPECT_EQ(pos, 4);
    EXPECT_EQ(fold.validation.size(), 20u);
  }
}

TEST(StratifiedKFoldTest, RejectsFractionalLabels) {
  Rng rng(1);
  EXPECT_FALSE(StratifiedKFoldSplit({0.0, 0.25, 1.0}, 2, &rng).ok());
}

}  // namespace
}  // namespace mysawh
