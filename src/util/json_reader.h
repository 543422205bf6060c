// Minimal JSON parser producing a small DOM; the program's one JSON reader. Every
// value remembers the line it started on so schema errors cite the offending line, and
// numbers keep their raw text so 64-bit integers round-trip exactly (a double would
// silently lose precision past 2^53). Strict by construction: no trailing commas, no
// comments, no garbage after the document, bounded nesting depth — a torn or tampered
// IR file must parse to a diagnostic, never to a crash or a half-read document.
#ifndef SRC_UTIL_JSON_READER_H_
#define SRC_UTIL_JSON_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace espresso {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  int line = 0;  // 1-based line where this value starts

  bool bool_value = false;
  double number = 0.0;    // numeric value (lossy for huge integers)
  std::string text;       // string payload, or the raw token for numbers
  std::vector<JsonValue> items;                                // arrays
  std::vector<std::pair<std::string, JsonValue>> members;      // objects, file order

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsBool() const { return kind == Kind::kBool; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Exact unsigned/signed integer reads from the raw number token. Returns false for
  // non-numbers, fractional values, or values outside the target range.
  bool AsUint64(uint64_t* out) const;
  bool AsInt64(int64_t* out) const;
};

struct JsonParseResult {
  bool ok = false;
  std::string error;  // "line N: ..." on failure
  JsonValue value;
};

// Parses one complete JSON document. Never throws; never aborts.
JsonParseResult ParseJson(std::string_view text);

}  // namespace espresso

#endif  // SRC_UTIL_JSON_READER_H_
