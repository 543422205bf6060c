// Locale-independent numeric parsing for untrusted text (config files, job
// descriptions, RPC payloads). std::stod/std::stoull have two failure modes that a
// long-lived, multi-tenant process cannot tolerate:
//
//   * their decimal handling follows the process locale — under de_DE,
//     std::stod("0.25") stops at the '.' and yields 0.0, silently corrupting every
//     fraction in every config the process parses;
//   * out-of-range input throws std::out_of_range instead of diagnosing, so a
//     hostile "1e999" becomes an exception in the middle of a parse loop.
//
// These helpers are built on std::from_chars, which is locale-independent by
// specification and reports overflow as a status, not an exception. The whole
// token must parse (trailing garbage is malformed); a single leading '+' is
// accepted for compatibility with the std::sto* call sites they replace.
#ifndef SRC_UTIL_PARSE_NUMBER_H_
#define SRC_UTIL_PARSE_NUMBER_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace espresso {

enum class NumberParse {
  kOk,
  kMalformed,    // empty, non-numeric, or trailing garbage
  kOutOfRange,   // syntactically a number, but not representable in the target type
};

// One-line suffix for a diagnostic, e.g. "is not a number" / "is out of range".
const char* NumberParseMessage(NumberParse status);

// Whole-token parses. On kOk, *out holds the value; otherwise *out is untouched.
NumberParse ParseDouble(std::string_view text, double* out);
NumberParse ParseInt64(std::string_view text, int64_t* out);
NumberParse ParseUint64(std::string_view text, uint64_t* out);

// Conveniences for call sites that only need success/failure.
std::optional<double> ParseDoubleOpt(std::string_view text);
std::optional<int64_t> ParseInt64Opt(std::string_view text);
std::optional<uint64_t> ParseUint64Opt(std::string_view text);

}  // namespace espresso

#endif  // SRC_UTIL_PARSE_NUMBER_H_
