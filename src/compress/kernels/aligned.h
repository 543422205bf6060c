// Checked SIMD memory-access wrappers (internal header).
//
// check_conventions.py forbids raw unaligned load/store intrinsics inside
// src/compress/kernels/ — every access goes through these wrappers, the one sanctioned
// home of the unaligned intrinsics, each carrying the conventions:allow marker. Kernel
// inputs are caller-owned std::vector storage with no alignment guarantee.
//
// The block is gated on the compiler's own target macro, so only a TU whose -m flags
// can encode AVX2 sees the wrappers.
#ifndef SRC_COMPRESS_KERNELS_ALIGNED_H_
#define SRC_COMPRESS_KERNELS_ALIGNED_H_

#include <cstdint>

#include "src/compress/kernels/kernels.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace espresso::kernels {

#if defined(__AVX2__)

ESPRESSO_KERNEL_INLINE __m256 LoadU8f(const float* p) {
  return _mm256_loadu_ps(p);  // conventions:allow(unaligned-simd) checked wrapper
}
ESPRESSO_KERNEL_INLINE void StoreU8f(float* p, __m256 v) {
  _mm256_storeu_ps(p, v);  // conventions:allow(unaligned-simd) checked wrapper
}
ESPRESSO_KERNEL_INLINE void StoreU8i(uint32_t* p, __m256i v) {
  // conventions:allow(unaligned-simd) checked wrapper
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
ESPRESSO_KERNEL_INLINE void StoreU8h(uint16_t* p, __m128i v) {
  // conventions:allow(unaligned-simd) checked wrapper
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
ESPRESSO_KERNEL_INLINE __m128i LoadU8h(const uint16_t* p) {
  // conventions:allow(unaligned-simd) checked wrapper
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

#endif  // __AVX2__

}  // namespace espresso::kernels

#endif  // SRC_COMPRESS_KERNELS_ALIGNED_H_
