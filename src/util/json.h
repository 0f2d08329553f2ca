#ifndef MYSAWH_UTIL_JSON_H_
#define MYSAWH_UTIL_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace mysawh {

/// Minimal strict JSON reader for the pipeline's own artifacts (run
/// manifests, telemetry JSONL lines). Recursive-descent over the full JSON
/// grammar with a nesting-depth cap; rejects trailing garbage, comments,
/// and unquoted keys. Object member order is preserved (the writers emit
/// deterministically ordered objects, and `mysawh_cli report` keeps that
/// order).
///
/// This is a reader for trusted, machine-written input — errors come back
/// as `InvalidArgument` with a byte offset, never as crashes, but the
/// parser does not try to outdo a full JSON library on pathological input
/// beyond the depth cap.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Value accessors; defaults returned on kind mismatch (callers verify
  /// kinds with the predicates above when the distinction matters).
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_members()
      const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Find + kind/number conveniences for the common manifest shapes.
  /// `fallback` is returned when the key is absent or the kind mismatches.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one complete JSON document. InvalidArgument (with byte offset)
/// on syntax errors, trailing non-whitespace, or nesting deeper than 64.
Result<JsonValue> ParseJson(const std::string& text);

/// `*value` as an integer when it is a finite, integral number in
/// [lo, hi]; nullopt when `value` is null, not a number, fractional, or out
/// of range. Artifact readers use it instead of casting the double, which
/// truncates fractions and is undefined out of range.
std::optional<int64_t> JsonInteger(const JsonValue* value, int64_t lo,
                                   int64_t hi);

/// The body of a JSON string literal for `text`: quotes and backslashes
/// escaped, \n, \t and \r spelled so, other control characters as \u00XX.
std::string JsonEscape(const std::string& text);

}  // namespace mysawh

#endif  // MYSAWH_UTIL_JSON_H_
