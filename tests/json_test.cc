/// Tests of the minimal JSON reader used by `mysawh_cli report`: it must
/// round-trip everything the pipeline's own writers emit (run manifests,
/// telemetry lines, benchmark JSON) and reject malformed input cleanly.

#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace mysawh {
namespace {

TEST(JsonTest, EscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  // Whatever the escaper writes, the reader returns unchanged.
  const std::string nasty = std::string("q\"b\\n\nt\tr\r") + '\x1f' + "end";
  std::string literal = "\"";
  literal += JsonEscape(nasty);
  literal += '"';
  EXPECT_EQ(ParseJson(literal).value().string_value(), nasty);
}

TEST(JsonTest, IntegerAcceptsOnlyIntegralNumbersInRange) {
  const auto integer = [](const std::string& text, int64_t lo, int64_t hi) {
    const JsonValue value = ParseJson(text).value();
    return JsonInteger(&value, lo, hi);
  };
  EXPECT_EQ(integer("7", 0, 10), 7);
  EXPECT_EQ(integer("-3", -5, 5), -3);
  EXPECT_EQ(integer("1e3", 0, 1000), 1000);
  EXPECT_EQ(integer("0", 0, 0), 0);
  for (const char* bad : {"2.5", "7.9", "-1e300", "1e300", "1e999", "-1e999",
                          "9223372036854775808", "11", "-1", "\"3\"", "null",
                          "[1]"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(integer(bad, 0, 10).has_value());
  }
  EXPECT_EQ(integer("-9223372036854775808", INT64_MIN, INT64_MAX), INT64_MIN);
  EXPECT_FALSE(
      integer("9223372036854775808", INT64_MIN, INT64_MAX).has_value());
  EXPECT_FALSE(JsonInteger(nullptr, 0, 10).has_value());
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null").value().is_null());
  EXPECT_TRUE(ParseJson("true").value().bool_value());
  EXPECT_FALSE(ParseJson("false").value().bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("42").value().number_value(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-3.25e2").value().number_value(), -325.0);
  EXPECT_EQ(ParseJson("\"hi\"").value().string_value(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  const auto doc =
      ParseJson(R"({"cells":{"QoL-DD-fi0":{"wall_ms":12.5,"resumed":false}},)"
                R"("list":[1,2,3],"empty":[],"none":{}})");
  ASSERT_TRUE(doc.ok());
  const JsonValue* cells = doc->Find("cells");
  ASSERT_NE(cells, nullptr);
  const JsonValue* cell = cells->Find("QoL-DD-fi0");
  ASSERT_NE(cell, nullptr);
  EXPECT_DOUBLE_EQ(cell->NumberOr("wall_ms", 0.0), 12.5);
  ASSERT_NE(cell->Find("resumed"), nullptr);
  EXPECT_FALSE(cell->Find("resumed")->bool_value());
  EXPECT_EQ(doc->Find("list")->array_items().size(), 3u);
  EXPECT_TRUE(doc->Find("empty")->array_items().empty());
  EXPECT_TRUE(doc->Find("none")->object_members().empty());
}

TEST(JsonTest, PreservesObjectMemberOrder) {
  const auto doc = ParseJson(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(doc.ok());
  const auto& members = doc->object_members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonTest, DecodesStringEscapes) {
  const auto doc = ParseJson(R"("a\"b\\c\n\t\u0041\u00e9")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->string_value(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonTest, DecodesSurrogatePairs) {
  const auto doc = ParseJson(R"("\ud83d\ude00")");  // 😀 U+1F600
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->string_value(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, ParsesTelemetryLineShape) {
  const auto doc = ParseJson(
      R"({"stream":"QoL-DD-fi0/cv0/train","type":"round","round":7,)"
      R"("train":0.21387,"valid":null})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->StringOr("stream", ""), "QoL-DD-fi0/cv0/train");
  EXPECT_DOUBLE_EQ(doc->NumberOr("round", -1.0), 7.0);
  ASSERT_NE(doc->Find("valid"), nullptr);
  EXPECT_TRUE(doc->Find("valid")->is_null());
  // NumberOr falls back on null (kind mismatch), which is how the report
  // command treats NaN metric points.
  EXPECT_DOUBLE_EQ(doc->NumberOr("valid", -1.0), -1.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "01x", "\"unterm",
        "{\"a\":1} trailing", "[1 2]", "{'a':1}", "\"bad\\q\"", "nan",
        "\"\\u12\"", "+1"}) {
    const auto doc = ParseJson(bad);
    EXPECT_FALSE(doc.ok()) << "input: " << bad;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(JsonTest, RejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonTest, AccessorsFallBackOnKindMismatch) {
  const auto doc = ParseJson(R"({"s":"x","n":5})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->NumberOr("s", -1.0), -1.0);
  EXPECT_EQ(doc->StringOr("n", "fallback"), "fallback");
  EXPECT_EQ(doc->NumberOr("missing", 9.0), 9.0);
  EXPECT_EQ(doc->Find("missing"), nullptr);
  EXPECT_EQ(ParseJson("[1]").value().Find("x"), nullptr);
}

}  // namespace
}  // namespace mysawh
