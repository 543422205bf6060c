// Saturating unsigned arithmetic for combinatorial counters. Option-space sizes grow
// as sums of 2^slots terms; on long pipelines (or adversarial slot counts) the shift
// and the sum both overflow size_t and silently wrap, turning "astronomically many"
// into a small plausible-looking number. These helpers clamp to SIZE_MAX instead, which
// is the honest answer for a count only used as "too many to enumerate".
#ifndef SRC_UTIL_CHECKED_MATH_H_
#define SRC_UTIL_CHECKED_MATH_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace espresso {

inline constexpr size_t kSaturated = std::numeric_limits<size_t>::max();

// a + b, clamped to SIZE_MAX.
constexpr size_t SaturatingAdd(size_t a, size_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

// 2^exponent, clamped to SIZE_MAX (exponents >= bit width saturate rather than shift
// into undefined behavior).
constexpr size_t SaturatingPow2(size_t exponent) {
  constexpr size_t kBits = std::numeric_limits<size_t>::digits;
  return exponent >= kBits ? kSaturated : size_t{1} << exponent;
}

}  // namespace espresso

#endif  // SRC_UTIL_CHECKED_MATH_H_
