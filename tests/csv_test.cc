#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace mysawh {
namespace {

TEST(CsvTest, ParseBasic) {
  const auto doc = ParseCsv("a,b,c\n1,2,3\n4,5,6\n").value();
  EXPECT_EQ(doc.header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(CsvTest, ParseHandlesCrlf) {
  const auto doc = ParseCsv("a,b\r\n1,2\r\n").value();
  EXPECT_EQ(doc.header, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, QuotedFields) {
  const auto doc =
      ParseCsv("name,notes\nx,\"hello, world\"\ny,\"say \"\"hi\"\"\"\n")
          .value();
  EXPECT_EQ(doc.rows[0][1], "hello, world");
  EXPECT_EQ(doc.rows[1][1], "say \"hi\"");
}

TEST(CsvTest, WidthMismatchFails) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
}

TEST(CsvTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n").ok());
}

TEST(CsvTest, EmptyContentFails) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, SerializeQuotesWhenNeeded) {
  CsvDocument doc;
  doc.header = {"a", "b"};
  doc.rows = {{"with,comma", "with\"quote"}, {"plain", "also plain"}};
  const std::string text = CsvToString(doc);
  const auto parsed = ParseCsv(text).value();
  EXPECT_EQ(parsed.rows, doc.rows);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/csv_roundtrip_test.csv";
  CsvDocument doc;
  doc.header = {"id", "value"};
  doc.rows = {{"1", "3.5"}, {"2", ""}};
  ASSERT_TRUE(WriteCsv(path, doc).ok());
  const auto loaded = ReadCsv(path).value();
  EXPECT_EQ(loaded.header, doc.header);
  EXPECT_EQ(loaded.rows, doc.rows);
  std::remove(path.c_str());
}

TEST(CsvTest, WriteRejectsRaggedRows) {
  CsvDocument doc;
  doc.header = {"a", "b"};
  doc.rows = {{"only-one"}};
  EXPECT_FALSE(WriteCsv(::testing::TempDir() + "/ragged.csv", doc).ok());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadCsv("/nonexistent/path/file.csv").ok());
}

}  // namespace
}  // namespace mysawh
