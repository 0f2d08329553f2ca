#include "data/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

namespace mysawh {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Table MakeSample() {
  Table t;
  EXPECT_TRUE(t.AddNumericColumn("x", {1.0, 2.0, kNaN}).ok());
  EXPECT_TRUE(t.AddNumericColumn("y", {0.5, -1.5, 2.5}).ok());
  EXPECT_TRUE(t.AddStringColumn("tag", {"a", "b", "c"}).ok());
  return t;
}

TEST(TableTest, Shape) {
  const Table t = MakeSample();
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.ColumnNames(), (std::vector<std::string>{"x", "y", "tag"}));
}

TEST(TableTest, DuplicateColumnRejected) {
  Table t = MakeSample();
  EXPECT_FALSE(t.AddNumericColumn("x", {1, 2, 3}).ok());
  EXPECT_FALSE(t.AddStringColumn("tag", {"", "", ""}).ok());
}

TEST(TableTest, LengthMismatchRejected) {
  Table t = MakeSample();
  EXPECT_FALSE(t.AddNumericColumn("z", {1.0}).ok());
}

TEST(TableTest, TypedAccess) {
  const Table t = MakeSample();
  EXPECT_TRUE(t.HasColumn("y"));
  EXPECT_FALSE(t.HasColumn("missing"));
  EXPECT_DOUBLE_EQ((*t.GetNumeric("y").value())[2], 2.5);
  EXPECT_EQ(t.GetColumn("tag").value()->strings()[0], "a");
  EXPECT_FALSE(t.GetNumeric("tag").ok());
  EXPECT_FALSE(t.GetColumn("nope").ok());
}

TEST(TableTest, CsvRoundTripPreservesNumericsAndMissing) {
  const std::string path = ::testing::TempDir() + "/table_roundtrip.csv";
  const Table t = MakeSample();
  ASSERT_TRUE(t.ToCsvFile(path).ok());
  const Table loaded = Table::FromCsvFile(path).value();
  EXPECT_EQ(loaded.num_rows(), 3);
  const auto& x = *loaded.GetNumeric("x").value();
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_TRUE(std::isnan(x[2]));
  EXPECT_EQ(loaded.GetColumn("tag").value()->strings()[1], "b");
  std::remove(path.c_str());
}

TEST(TableTest, CsvInferenceMixedColumnIsString) {
  const std::string path = ::testing::TempDir() + "/table_mixed.csv";
  {
    Table t;
    ASSERT_TRUE(t.AddStringColumn("mixed", {"1.5", "not-a-number"}).ok());
    ASSERT_TRUE(t.ToCsvFile(path).ok());
  }
  const Table loaded = Table::FromCsvFile(path).value();
  EXPECT_FALSE(loaded.column(0).is_numeric());
  std::remove(path.c_str());
}

TEST(TableTest, CsvRoundTripExactDoubles) {
  const std::string path = ::testing::TempDir() + "/table_exact.csv";
  Table t;
  const double tricky = 0.1 + 0.2;  // 0.30000000000000004
  ASSERT_TRUE(t.AddNumericColumn("v", {tricky, 1e-17, 12345678.9012345}).ok());
  ASSERT_TRUE(t.ToCsvFile(path).ok());
  const Table loaded = Table::FromCsvFile(path).value();
  const auto& v = *loaded.GetNumeric("v").value();
  EXPECT_DOUBLE_EQ(v[0], tricky);
  EXPECT_DOUBLE_EQ(v[1], 1e-17);
  EXPECT_DOUBLE_EQ(v[2], 12345678.9012345);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mysawh
