// Minimal streaming JSON writer, used by the trace module to emit chrome://tracing files.
// Supports objects, arrays, and scalar values. JsonQuoted is the program's one JSON
// string escaper; src/util/json_reader.h is its one reader.
#ifndef SRC_UTIL_JSON_WRITER_H_
#define SRC_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace espresso {

// Shortest decimal form that round-trips to the exact same double
// (std::to_chars shortest formatting, 17 significant digits when needed).
// Callers must handle non-finite values themselves (JsonWriter maps them to null).
std::string FormatDouble(double d);

// `s` as a quoted JSON string: quote, backslash, newline, tab and carriage return get
// their two-character escapes, every other byte below 0x20 becomes a lowercase \u00xx, and
// all other bytes (UTF-8 included) pass through unchanged.
std::string JsonQuoted(std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Emits a key inside an object; must be followed by a value or Begin*.
  void Key(std::string_view key);

  void Value(std::string_view s);
  void Value(const char* s) { Value(std::string_view(s)); }
  void Value(double d);
  void Value(int64_t i);
  void Value(uint64_t u);
  void Value(int i) { Value(static_cast<int64_t>(i)); }
  void Value(bool b);

  // Convenience: Key + Value in one call.
  template <typename T>
  void Field(std::string_view key, T&& value) {
    Key(key);
    Value(std::forward<T>(value));
  }

 private:
  enum class Scope { kObject, kArray };

  void MaybeComma();

  std::ostream& os_;
  std::vector<Scope> scopes_;
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
};

}  // namespace espresso

#endif  // SRC_UTIL_JSON_WRITER_H_
