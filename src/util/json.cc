#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mysawh {

namespace {

constexpr int kMaxDepth = 64;

/// Cursor over the input with positioned error reporting.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    MYSAWH_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        MYSAWH_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::MakeString(std::move(s));
      }
      case 't':
        return ParseKeyword("true", JsonValue::MakeBool(true));
      case 'f':
        return ParseKeyword("false", JsonValue::MakeBool(false));
      case 'n':
        return ParseKeyword("null", JsonValue::MakeNull());
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseKeyword(const char* word, JsonValue value) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (!Consume(*p)) return Error("invalid literal");
    }
    return value;
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
      // Sign consumed; digits must follow.
    }
    if (pos_ >= text_.size() || !std::isdigit(
            static_cast<unsigned char>(text_[pos_]))) {
      return Error("invalid number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("invalid number exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("invalid number");
    return JsonValue::MakeNumber(value);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected string");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          MYSAWH_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
          // UTF-8 encode; surrogate pairs combine when both halves present.
          if (code >= 0xD800 && code <= 0xDBFF && pos_ + 1 < text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            pos_ += 2;
            MYSAWH_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return Error("invalid low surrogate");
            }
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return Error("truncated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    if (!Consume('[')) return Error("expected array");
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) return JsonValue::MakeArray(std::move(items));
    while (true) {
      MYSAWH_ASSIGN_OR_RETURN(JsonValue item, ParseValue(depth + 1));
      items.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return JsonValue::MakeArray(std::move(items));
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    if (!Consume('{')) return Error("expected object");
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue::MakeObject(std::move(members));
    while (true) {
      SkipWhitespace();
      MYSAWH_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      MYSAWH_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return JsonValue::MakeObject(std::move(members));
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value() : fallback;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue value;
  value.kind_ = Kind::kBool;
  value.bool_ = v;
  return value;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue value;
  value.kind_ = Kind::kNumber;
  value.number_ = v;
  return value;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue value;
  value.kind_ = Kind::kString;
  value.string_ = std::move(v);
  return value;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue value;
  value.kind_ = Kind::kArray;
  value.array_ = std::move(items);
  return value;
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue value;
  value.kind_ = Kind::kObject;
  value.object_ = std::move(members);
  return value;
}

Result<JsonValue> ParseJson(const std::string& text) {
  Parser parser(text);
  return parser.ParseDocument();
}

std::optional<int64_t> JsonInteger(const JsonValue* value, int64_t lo,
                                   int64_t hi) {
  if (value == nullptr || !value->is_number()) return std::nullopt;
  const double number = value->number_value();
  // 2^63 is the first double above every int64_t, so the cast below is
  // defined; the negated test also rejects NaN.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (!(number >= -kTwoTo63 && number < kTwoTo63) ||
      number != std::trunc(number)) {
    return std::nullopt;
  }
  const auto integer = static_cast<int64_t>(number);
  if (integer < lo || integer > hi) return std::nullopt;
  return integer;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace mysawh
