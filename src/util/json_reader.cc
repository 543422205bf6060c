#include "src/util/json_reader.h"

#include <cctype>
#include <charconv>
#include <cmath>

namespace espresso {

namespace {

// Fuzzed inputs can nest arbitrarily deep; recursion past this depth is an error, not
// a stack overflow.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult Run() {
    JsonParseResult result;
    SkipWhitespace();
    if (!ParseValue(&result.value, 0)) {
      result.error = error_;
      return result;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      result.error = Err("trailing garbage after the JSON document");
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  std::string Err(const std::string& what) {
    return "line " + std::to_string(line_) + ": " + what;
  }

  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = Err(what);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
      } else if (c != ' ' && c != '\t' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(char expected, const char* what) {
    if (AtEnd() || text_[pos_] != expected) {
      return Fail(std::string("expected ") + what);
    }
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    SkipWhitespace();
    if (AtEnd()) {
      return Fail("unexpected end of document");
    }
    out->line = line_;
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->text);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseKeyword(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') {
        return Fail("expected object key string");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWhitespace();
      if (!Consume(':', "':' after object key")) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) {
        return Fail("unterminated object");
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->items.push_back(std::move(value));
      SkipWhitespace();
      if (AtEnd()) {
        return Fail("unterminated array");
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (AtEnd()) {
        return Fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");  // RFC 8259 section 7
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) {
        return Fail("unterminated escape sequence");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed by the IR
          // writer, which escapes only control characters; lone surrogates pass
          // through as their replacement encoding).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape sequence");
      }
    }
  }

  bool ParseKeyword(JsonValue* out) {
    const std::string_view rest = text_.substr(pos_);
    if (rest.rfind("true", 0) == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      pos_ += 4;
      return true;
    }
    if (rest.rfind("false", 0) == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      pos_ += 5;
      return true;
    }
    if (rest.rfind("null", 0) == 0) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return Fail("unexpected token");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') {
      ++pos_;
    }
    // RFC 8259 integer part: a lone 0, or a nonzero digit followed by digits.
    // "01" is malformed — leading zeros are a classic smuggling vector.
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Fail("malformed number");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      bool fraction_digits = false;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        fraction_digits = true;
      }
      if (!fraction_digits) {
        return Fail("malformed number");  // "1." has no fraction digits
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) {
        ++pos_;
      }
      bool exponent_digits = false;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        exponent_digits = true;
      }
      if (!exponent_digits) {
        return Fail("malformed number");
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size() ||
        !std::isfinite(value)) {
      return Fail("number out of range");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    out->text = std::string(token);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

bool JsonValue::AsUint64(uint64_t* out) const {
  if (kind != Kind::kNumber) {
    return false;
  }
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

bool JsonValue::AsInt64(int64_t* out) const {
  if (kind != Kind::kNumber) {
    return false;
  }
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

JsonParseResult ParseJson(std::string_view text) { return Parser(text).Run(); }

}  // namespace espresso
