#include "src/util/parse_number.h"

#include <charconv>

namespace espresso {

namespace {

// std::from_chars rejects a leading '+', which the std::sto* family accepted; strip
// exactly one so existing configs keep parsing. Whitespace is NOT skipped — every
// call site trims its tokens first, and silent whitespace tolerance hides data bugs.
std::string_view StripLeadingPlus(std::string_view text) {
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);
  }
  return text;
}

template <typename T, typename... Format>
NumberParse ParseWith(std::string_view text, T* out, Format... format) {
  text = StripLeadingPlus(text);
  if (text.empty()) {
    return NumberParse::kMalformed;
  }
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value,
                                         format...);
  if (ec == std::errc::result_out_of_range) {
    return NumberParse::kOutOfRange;
  }
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return NumberParse::kMalformed;
  }
  *out = value;
  return NumberParse::kOk;
}

}  // namespace

const char* NumberParseMessage(NumberParse status) {
  switch (status) {
    case NumberParse::kOk:
      return "ok";
    case NumberParse::kMalformed:
      return "is not a number";
    case NumberParse::kOutOfRange:
      return "is out of range";
  }
  return "?";
}

NumberParse ParseDouble(std::string_view text, double* out) {
  return ParseWith(text, out, std::chars_format::general);
}

NumberParse ParseInt64(std::string_view text, int64_t* out) {
  return ParseWith(text, out);
}

NumberParse ParseUint64(std::string_view text, uint64_t* out) {
  return ParseWith(text, out);
}

}  // namespace espresso
