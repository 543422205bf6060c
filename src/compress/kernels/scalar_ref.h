// Scalar reference implementations of every kernel in KernelOps (internal header).
//
// These are the single source of truth for kernel semantics: kernels_scalar.cc wires
// them into the scalar table, the SIMD translation units call them for unaligned heads
// and sub-vector tails, and fp16.cc's public FloatToHalf/HalfToFloat delegate here.
// Everything is ESPRESSO_KERNEL_INLINE (always_inline, internal linkage) because this
// header is included into TUs compiled with different -m flags — an out-of-line copy
// chosen by the linker from the AVX2 TU would execute AVX instructions on hosts that
// dispatched to scalar precisely because they lack them.
//
// Range-based entry points take absolute [begin, end) index ranges over the full
// arrays so that counter-RNG draws and bit-pack positions use global element indices
// no matter which TU handles which slice.
#ifndef SRC_COMPRESS_KERNELS_SCALAR_REF_H_
#define SRC_COMPRESS_KERNELS_SCALAR_REF_H_

#include <cmath>
#include <cstdint>
#include <limits>

#include "src/compress/kernels/kernels.h"

namespace espresso::kernels {

// --- reductions (lane-order contract) ------------------------------------------------

// Accumulates x[i]^2 (in double) into acc[i % kReductionLanes] for i in [begin, end).
ESPRESSO_KERNEL_INLINE void RefSumSquaresLanes(const float* x, size_t begin, size_t end,
                                               double* acc) {
  for (size_t i = begin; i < end; ++i) {
    const double v = static_cast<double>(x[i]);
    acc[i % kReductionLanes] += v * v;
  }
}

ESPRESSO_KERNEL_INLINE void RefSumAbsLanes(const float* x, size_t begin, size_t end,
                                           double* acc) {
  for (size_t i = begin; i < end; ++i) {
    acc[i % kReductionLanes] += std::fabs(static_cast<double>(x[i]));
  }
}

// Ascending-lane fold, the second half of the reduction contract.
ESPRESSO_KERNEL_INLINE double RefFoldLanes(const double* acc) {
  double sum = 0.0;
  for (size_t j = 0; j < kReductionLanes; ++j) {
    sum += acc[j];
  }
  return sum;
}

// Running max of |x| over [begin, end) starting from m0. NaN-ignoring: `a > m` is
// false for NaN, so NaN elements never replace the running max (the SIMD tables use
// compare+blend, NOT maxps, whose NaN operand rules differ).
ESPRESSO_KERNEL_INLINE float RefMaxAbsRange(const float* x, size_t begin, size_t end,
                                            float m0) {
  float m = m0;
  for (size_t i = begin; i < end; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) {
      m = a;
    }
  }
  return m;
}

// --- magnitude domain ----------------------------------------------------------------

ESPRESSO_KERNEL_INLINE void RefAbsBitsRange(const float* x, size_t begin, size_t end,
                                            uint32_t* out) {
  for (size_t i = begin; i < end; ++i) {
    out[i] = MagnitudeBits(x[i]);
  }
}

ESPRESSO_KERNEL_INLINE size_t RefSelectTopK(const float* x, size_t n, uint32_t t,
                                            size_t n_fill, uint32_t* indices,
                                            float* values) {
  size_t emitted = 0;
  size_t fill = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t b = MagnitudeBits(x[i]);
    if (b > t || (b == t && fill < n_fill)) {
      fill += b == t ? 1u : 0u;
      indices[emitted] = static_cast<uint32_t>(i);
      values[emitted] = x[i];
      ++emitted;
    }
  }
  return emitted;
}

// --- quantizers ----------------------------------------------------------------------

// Truncating float->int32 with x86 cvttps2dq semantics: NaN and out-of-range inputs
// produce INT32_MIN (the "integer indefinite" value) instead of the UB a bare cast
// would be.
ESPRESSO_KERNEL_INLINE int32_t RefTruncToInt(float m) {
  if (m >= -2147483648.0f && m < 2147483648.0f) {
    return static_cast<int32_t>(m);
  }
  return std::numeric_limits<int32_t>::min();
}

ESPRESSO_KERNEL_INLINE void RefQsgdRange(const float* x, size_t begin, size_t end,
                                         float norm, int levels, uint32_t k0,
                                         uint32_t k1, uint8_t* codes) {
  const float levels_f = static_cast<float>(levels);
  for (size_t i = begin; i < end; ++i) {
    const float m = std::fabs(x[i]) / norm * levels_f;
    int32_t level = RefTruncToInt(m);
    const float frac = m - static_cast<float>(level);
    if (CounterUniform(k0, k1, static_cast<uint32_t>(i)) < frac) {
      ++level;
    }
    if (level < 0) {
      level = 0;
    }
    if (level > levels) {
      level = levels;
    }
    uint8_t code = static_cast<uint8_t>(level);
    if (x[i] < 0.0f) {
      code |= 0x80u;
    }
    codes[i] = code;
  }
}

ESPRESSO_KERNEL_INLINE void RefTernGradRange(const float* x, size_t begin, size_t end,
                                             float max_abs, uint32_t k0, uint32_t k1,
                                             uint8_t* packed) {
  for (size_t i = begin; i < end; ++i) {
    const float p = std::fabs(x[i]) / max_abs;
    uint8_t code = 0;  // kZero
    if (CounterUniform(k0, k1, static_cast<uint32_t>(i)) < p) {
      code = x[i] >= 0.0f ? uint8_t{1} : uint8_t{2};  // kPlus : kMinus
    }
    packed[i / 4] |= static_cast<uint8_t>(code << (2 * (i % 4)));
  }
}

ESPRESSO_KERNEL_INLINE void RefSignPackRange(const float* x, size_t begin, size_t end,
                                             uint8_t* packed) {
  for (size_t i = begin; i < end; ++i) {
    if (x[i] >= 0.0f) {
      packed[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    }
  }
}

// --- fp16 ----------------------------------------------------------------------------

// Round-to-nearest-even float->binary16, matching F16C's vcvtps2ph bit for bit
// (verified exhaustively over all 2^32 inputs by kernel_equivalence_test's sweep
// seeds plus a dev-time exhaustive run): overflow to inf, gradual underflow to
// subnormals, and NaNs quieted with the mantissa's top ten bits preserved.
ESPRESSO_KERNEL_INLINE uint16_t RefFloatToHalf(float value) {
  const uint32_t f = std::bit_cast<uint32_t>(value);
  const uint32_t sign = (f >> 16) & 0x8000u;
  const int32_t exponent = static_cast<int32_t>((f >> 23) & 0xFF) - 127 + 15;
  uint32_t mantissa = f & 0x7FFFFFu;

  if (exponent >= 0x1F) {
    // Overflow / inf / nan -> inf (nan is quieted, top mantissa bits kept).
    if ((f & 0x7F800000u) == 0x7F800000u && mantissa != 0) {
      return static_cast<uint16_t>(sign | 0x7E00u | (mantissa >> 13));
    }
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (exponent <= 0) {
    if (exponent < -10) {
      return static_cast<uint16_t>(sign);  // underflow to signed zero
    }
    // Subnormal: shift in the implicit leading bit, then round to nearest even.
    mantissa |= 0x800000u;
    const uint32_t shift = static_cast<uint32_t>(14 - exponent);
    uint32_t half = mantissa >> shift;
    const uint32_t remainder = mantissa & ((1u << shift) - 1);
    const uint32_t halfway = 1u << (shift - 1);
    if (remainder > halfway || (remainder == halfway && (half & 1u) != 0)) {
      ++half;
    }
    return static_cast<uint16_t>(sign | half);
  }
  // Normal: round mantissa from 23 to 10 bits, nearest even. The carry from ++half can
  // propagate into the exponent, which is the correct rounding behaviour (and can
  // produce inf on overflow of the largest finite half).
  uint32_t half = sign | (static_cast<uint32_t>(exponent) << 10) | (mantissa >> 13);
  const uint32_t remainder = mantissa & 0x1FFFu;
  if (remainder > 0x1000u || (remainder == 0x1000u && (half & 1u) != 0)) {
    ++half;
  }
  return static_cast<uint16_t>(half);
}

ESPRESSO_KERNEL_INLINE float RefHalfToFloat(uint16_t half) {
  const uint32_t sign = (static_cast<uint32_t>(half) & 0x8000u) << 16;
  const uint32_t exponent = (half >> 10) & 0x1Fu;
  uint32_t mantissa = half & 0x3FFu;

  uint32_t f = 0;
  if (exponent == 0) {
    if (mantissa == 0) {
      f = sign;  // signed zero
    } else {
      // Subnormal: normalize.
      int e = -1;
      do {
        ++e;
        mantissa <<= 1;
      } while ((mantissa & 0x400u) == 0);
      mantissa &= 0x3FFu;
      f = sign | (static_cast<uint32_t>(127 - 15 - e) << 23) | (mantissa << 13);
    }
  } else if (exponent == 0x1F) {
    // Inf / NaN. NaNs come out quiet (quiet bit forced, payload shifted up), which is
    // what vcvtph2ps produces for signaling-NaN halves — required for SIMD identity.
    f = sign | 0x7F800000u | (mantissa != 0 ? 0x00400000u : 0u) | (mantissa << 13);
  } else {
    f = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(f);
}

ESPRESSO_KERNEL_INLINE void RefFp16EncodeRange(const float* x, size_t begin, size_t end,
                                               uint16_t* out) {
  for (size_t i = begin; i < end; ++i) {
    out[i] = RefFloatToHalf(x[i]);
  }
}

ESPRESSO_KERNEL_INLINE void RefFp16DecodeAddRange(const uint16_t* in, size_t begin,
                                                  size_t end, float* out) {
  for (size_t i = begin; i < end; ++i) {
    out[i] += RefHalfToFloat(in[i]);
  }
}

}  // namespace espresso::kernels

#endif  // SRC_COMPRESS_KERNELS_SCALAR_REF_H_
