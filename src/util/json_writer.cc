#include "src/util/json_writer.h"

#include <charconv>
#include <cmath>

#include "src/util/logging.h"

namespace espresso {

std::string FormatDouble(double d) {
  // Shortest round-trip form; 32 chars cover the longest case
  // (-2.2250738585072014e-308 is 24 chars).
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  ESP_CHECK(ec == std::errc());
  return std::string(buf, ptr);
}

std::string JsonQuoted(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
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
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += raw;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // Value directly follows its key; no comma.
  }
  if (!scopes_.empty()) {
    if (!first_in_scope_.back()) {
      os_ << ",";
    }
    first_in_scope_.back() = false;
  }
}

void JsonWriter::BeginObject() {
  MaybeComma();
  os_ << "{";
  scopes_.push_back(Scope::kObject);
  first_in_scope_.push_back(true);
}

void JsonWriter::EndObject() {
  ESP_CHECK(!scopes_.empty() && scopes_.back() == Scope::kObject);
  scopes_.pop_back();
  first_in_scope_.pop_back();
  os_ << "}";
}

void JsonWriter::BeginArray() {
  MaybeComma();
  os_ << "[";
  scopes_.push_back(Scope::kArray);
  first_in_scope_.push_back(true);
}

void JsonWriter::EndArray() {
  ESP_CHECK(!scopes_.empty() && scopes_.back() == Scope::kArray);
  scopes_.pop_back();
  first_in_scope_.pop_back();
  os_ << "]";
}

void JsonWriter::Key(std::string_view key) {
  ESP_CHECK(!scopes_.empty() && scopes_.back() == Scope::kObject);
  MaybeComma();
  os_ << JsonQuoted(key) << ":";
  pending_key_ = true;
}

void JsonWriter::Value(std::string_view s) {
  MaybeComma();
  os_ << JsonQuoted(s);
}

void JsonWriter::Value(double d) {
  MaybeComma();
  if (!std::isfinite(d)) {
    os_ << "null";
    return;
  }
  // std::to_chars, not ostream insertion: setprecision-style manipulators are both
  // lossy (doubles need up to 17 significant digits to round-trip) and sticky (they
  // would permanently mutate the caller's stream formatting state).
  os_ << FormatDouble(d);
}

void JsonWriter::Value(int64_t i) {
  MaybeComma();
  os_ << i;
}

void JsonWriter::Value(uint64_t u) {
  MaybeComma();
  os_ << u;
}

void JsonWriter::Value(bool b) {
  MaybeComma();
  os_ << (b ? "true" : "false");
}

}  // namespace espresso
