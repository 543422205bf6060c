// Checked SIMD memory-access wrappers (internal header).
//
// check_conventions.py forbids raw unaligned load/store intrinsics inside
// src/compress/kernels/ — every access goes through these wrappers. The *A variants
// assert the alignment the instruction assumes (debug builds; sanitizer legs run
// !NDEBUG); the *U variants are the one sanctioned home of the unaligned intrinsics,
// each carrying the conventions:allow marker. Kernel inputs are caller-owned
// std::vector storage with no alignment guarantee, so bodies default to *U — only
// kernel-local stack buffers earn *A.
//
// Each ISA's block is gated on the compiler's own target macros, so a TU only sees
// the wrappers its -m flags can actually encode.
#ifndef SRC_COMPRESS_KERNELS_ALIGNED_H_
#define SRC_COMPRESS_KERNELS_ALIGNED_H_

#include <cassert>
#include <cstdint>

#include "src/compress/kernels/kernels.h"

#if defined(__SSE2__) || defined(_M_X64)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace espresso::kernels {

ESPRESSO_KERNEL_INLINE bool IsAligned(const void* p, size_t align) {
  return (reinterpret_cast<uintptr_t>(p) & (align - 1)) == 0;
}

#if defined(__SSE2__) || defined(_M_X64)

ESPRESSO_KERNEL_INLINE __m128 LoadU4f(const float* p) {
  return _mm_loadu_ps(p);  // conventions:allow(unaligned-simd) checked wrapper
}
ESPRESSO_KERNEL_INLINE __m128i LoadU4i(const uint32_t* p) {
  // conventions:allow(unaligned-simd) checked wrapper
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
ESPRESSO_KERNEL_INLINE void StoreU4i(uint32_t* p, __m128i v) {
  // conventions:allow(unaligned-simd) checked wrapper
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
ESPRESSO_KERNEL_INLINE void StoreA4f(float* p, __m128 v) {
  assert(IsAligned(p, 16));
  _mm_store_ps(p, v);
}

#endif  // __SSE2__

#if defined(__AVX2__)

ESPRESSO_KERNEL_INLINE __m256 LoadU8f(const float* p) {
  return _mm256_loadu_ps(p);  // conventions:allow(unaligned-simd) checked wrapper
}
ESPRESSO_KERNEL_INLINE void StoreU8f(float* p, __m256 v) {
  _mm256_storeu_ps(p, v);  // conventions:allow(unaligned-simd) checked wrapper
}
ESPRESSO_KERNEL_INLINE __m256i LoadU8i(const uint32_t* p) {
  // conventions:allow(unaligned-simd) checked wrapper
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
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

#if defined(__ARM_NEON)

ESPRESSO_KERNEL_INLINE float32x4_t LoadN4f(const float* p) {
  return vld1q_f32(p);  // conventions:allow(unaligned-simd) checked wrapper
}
ESPRESSO_KERNEL_INLINE uint32x4_t LoadN4i(const uint32_t* p) {
  return vld1q_u32(p);  // conventions:allow(unaligned-simd) checked wrapper
}
ESPRESSO_KERNEL_INLINE void StoreN4f(float* p, float32x4_t v) {
  vst1q_f32(p, v);  // conventions:allow(unaligned-simd) checked wrapper
}

#endif  // __ARM_NEON

}  // namespace espresso::kernels

#endif  // SRC_COMPRESS_KERNELS_ALIGNED_H_
