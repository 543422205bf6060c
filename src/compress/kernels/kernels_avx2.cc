// AVX2 (+F16C) kernel table. Compiled with -mavx2 -mf16c and NOTHING more: no -mfma
// (contraction would break the mul-then-add rounding the reduction contract pins) and
// the kernels directory adds -ffp-contract=off for the same reason. Only the registry
// calls Avx2Table(), and only after __builtin_cpu_supports("avx2") — nothing here may
// leak into TUs compiled for the baseline ISA (every shared helper is always_inline).
#include "src/compress/kernels/tables.h"

#if ESPRESSO_KERNELS_X86

#include <immintrin.h>

#include <cstring>

#include "src/compress/kernels/aligned.h"
#include "src/compress/kernels/scalar_ref.h"

namespace espresso::kernels {

namespace {

constexpr int kSignMask = static_cast<int>(0x80000000u);
constexpr int kAbsMask = 0x7fffffff;

// Vector lanes of CounterMix: identical shift/multiply sequence, 32-bit lanes.
ESPRESSO_KERNEL_INLINE __m256i MixVec(__m256i v) {
  v = _mm256_xor_si256(v, _mm256_srli_epi32(v, 16));
  v = _mm256_mullo_epi32(v, _mm256_set1_epi32(static_cast<int>(0x7feb352dU)));
  v = _mm256_xor_si256(v, _mm256_srli_epi32(v, 15));
  v = _mm256_mullo_epi32(v, _mm256_set1_epi32(static_cast<int>(0x846ca68bU)));
  v = _mm256_xor_si256(v, _mm256_srli_epi32(v, 16));
  return v;
}

// CounterUniform for lanes {i, i+1, ..., i+7}: hash top-24-bits scaled by 2^-24 —
// both steps exact in float, so lanes match the scalar draws bit for bit.
ESPRESSO_KERNEL_INLINE __m256 UniformVec(uint32_t k0, uint32_t k1, size_t i) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i idx =
      _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(static_cast<uint32_t>(i))), lane);
  __m256i h = MixVec(_mm256_xor_si256(idx, _mm256_set1_epi32(static_cast<int>(k0))));
  h = MixVec(_mm256_xor_si256(h, _mm256_set1_epi32(static_cast<int>(k1))));
  const __m256 top = _mm256_cvtepi32_ps(_mm256_srli_epi32(h, 8));
  return _mm256_mul_ps(top, _mm256_set1_ps(0x1.0p-24f));
}

// --- reductions ----------------------------------------------------------------------

double Avx2SumSquares(const float* x, size_t n) {
  const size_t n8 = n & ~size_t{7};
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 v = LoadU8f(x + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(lo, lo));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(hi, hi));
  }
  alignas(32) double acc[kReductionLanes];
  _mm256_store_pd(acc, a0);
  _mm256_store_pd(acc + 4, a1);
  RefSumSquaresLanes(x, n8, n, acc);
  return RefFoldLanes(acc);
}

double Avx2SumAbs(const float* x, size_t n) {
  const size_t n8 = n & ~size_t{7};
  const __m256 absf = _mm256_castsi256_ps(_mm256_set1_epi32(kAbsMask));
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 v = _mm256_and_ps(LoadU8f(x + i), absf);
    a0 = _mm256_add_pd(a0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    a1 = _mm256_add_pd(a1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  alignas(32) double acc[kReductionLanes];
  _mm256_store_pd(acc, a0);
  _mm256_store_pd(acc + 4, a1);
  RefSumAbsLanes(x, n8, n, acc);
  return RefFoldLanes(acc);
}

float Avx2MaxAbs(const float* x, size_t n) {
  const size_t n8 = n & ~size_t{7};
  const __m256 absf = _mm256_castsi256_ps(_mm256_set1_epi32(kAbsMask));
  __m256 m = _mm256_setzero_ps();
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 a = _mm256_and_ps(LoadU8f(x + i), absf);
    // Compare+blend, not maxps: `a > m` is false for NaN lanes, exactly the scalar
    // NaN-ignoring contract, where maxps would propagate its second operand.
    const __m256 gt = _mm256_cmp_ps(a, m, _CMP_GT_OQ);
    m = _mm256_blendv_ps(m, a, gt);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, m);
  float r = 0.0f;
  for (size_t j = 0; j < 8; ++j) {
    if (lanes[j] > r) {
      r = lanes[j];
    }
  }
  return RefMaxAbsRange(x, n8, n, r);
}

// --- magnitude domain ----------------------------------------------------------------

void Avx2AbsBits(const float* x, size_t n, uint32_t* out) {
  const size_t n8 = n & ~size_t{7};
  const __m256i absi = _mm256_set1_epi32(kAbsMask);
  for (size_t i = 0; i < n8; i += 8) {
    const __m256i b = _mm256_and_si256(_mm256_castps_si256(LoadU8f(x + i)), absi);
    StoreU8i(out + i, b);
  }
  RefAbsBitsRange(x, n8, n, out);
}

// Scalar emit over [begin, end) carrying the (emitted, fill) state across blocks.
ESPRESSO_KERNEL_INLINE void EmitRange(const float* x, size_t begin, size_t end,
                                      uint32_t t, size_t n_fill, uint32_t* indices,
                                      float* values, size_t* emitted, size_t* fill) {
  for (size_t i = begin; i < end; ++i) {
    const uint32_t b = MagnitudeBits(x[i]);
    if (b > t || (b == t && *fill < n_fill)) {
      *fill += b == t ? 1u : 0u;
      indices[*emitted] = static_cast<uint32_t>(i);
      values[*emitted] = x[i];
      ++*emitted;
    }
  }
}

size_t Avx2SelectTopK(const float* x, size_t n, uint32_t t, size_t n_fill,
                      uint32_t* indices, float* values) {
  // Top-k keeps a small fraction of the tensor, so most 8-lane blocks contain nothing
  // above the threshold: one compare+movemask skips them wholesale, and only blocks
  // with a candidate fall into the stateful scalar emit (order preserved).
  const size_t n8 = n & ~size_t{7};
  const __m256i absi = _mm256_set1_epi32(kAbsMask);
  const __m256i bias = _mm256_set1_epi32(kSignMask);
  const __m256i tv = _mm256_set1_epi32(static_cast<int>(t ^ 0x80000000u));
  size_t emitted = 0;
  size_t fill = 0;
  for (size_t i = 0; i < n8; i += 8) {
    const __m256i b = _mm256_and_si256(_mm256_castps_si256(LoadU8f(x + i)), absi);
    const __m256i lt = _mm256_cmpgt_epi32(tv, _mm256_xor_si256(b, bias));  // t > b
    const int below = _mm256_movemask_ps(_mm256_castsi256_ps(lt));
    if (below == 0xFF) {
      continue;  // every lane strictly below the threshold
    }
    EmitRange(x, i, i + 8, t, n_fill, indices, values, &emitted, &fill);
  }
  EmitRange(x, n8, n, t, n_fill, indices, values, &emitted, &fill);
  return emitted;
}

// --- quantizers ----------------------------------------------------------------------

void Avx2Qsgd(const float* x, size_t n, float norm, int levels, uint32_t k0, uint32_t k1,
              uint8_t* codes) {
  const size_t n8 = n & ~size_t{7};
  const __m256 absf = _mm256_castsi256_ps(_mm256_set1_epi32(kAbsMask));
  const __m256 normv = _mm256_set1_ps(norm);
  const __m256 levelsf = _mm256_set1_ps(static_cast<float>(levels));
  const __m256i levelsi = _mm256_set1_epi32(levels);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i signbit = _mm256_set1_epi32(0x80);
  // Picks byte 0 of every dword within each 128-bit half.
  const __m256i pick = _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                        -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1, -1, -1,
                                        -1, -1, -1, -1, -1, -1);
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 v = LoadU8f(x + i);
    // Two roundings, div then mul — the exact scalar expression |x|/norm*levels.
    const __m256 m = _mm256_mul_ps(_mm256_div_ps(_mm256_and_ps(v, absf), normv), levelsf);
    __m256i level = _mm256_cvttps_epi32(m);  // NaN/out-of-range -> INT32_MIN, like Ref
    const __m256 frac = _mm256_sub_ps(m, _mm256_cvtepi32_ps(level));
    const __m256 u = UniformVec(k0, k1, i);
    const __m256i round_up = _mm256_castps_si256(_mm256_cmp_ps(u, frac, _CMP_LT_OQ));
    level = _mm256_sub_epi32(level, round_up);  // mask lanes are -1
    level = _mm256_min_epi32(_mm256_max_epi32(level, zero), levelsi);
    const __m256i neg =
        _mm256_castps_si256(_mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ));
    const __m256i code = _mm256_or_si256(level, _mm256_and_si256(neg, signbit));
    const __m256i packed = _mm256_shuffle_epi8(code, pick);
    const uint32_t lo = static_cast<uint32_t>(_mm256_extract_epi32(packed, 0));
    const uint32_t hi = static_cast<uint32_t>(_mm256_extract_epi32(packed, 4));
    std::memcpy(codes + i, &lo, 4);
    std::memcpy(codes + i + 4, &hi, 4);
  }
  RefQsgdRange(x, n8, n, norm, levels, k0, k1, codes);
}

void Avx2TernGrad(const float* x, size_t n, float max_abs, uint32_t k0, uint32_t k1,
                  uint8_t* packed) {
  const size_t n8 = n & ~size_t{7};
  const __m256 absf = _mm256_castsi256_ps(_mm256_set1_epi32(kAbsMask));
  const __m256 maxv = _mm256_set1_ps(max_abs);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 v = LoadU8f(x + i);
    const __m256 p = _mm256_div_ps(_mm256_and_ps(v, absf), maxv);
    const __m256 keep = _mm256_cmp_ps(UniformVec(k0, k1, i), p, _CMP_LT_OQ);
    const __m256 ge0 = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GE_OQ);
    const __m256i pm = _mm256_blendv_epi8(two, one, _mm256_castps_si256(ge0));
    const __m256i code = _mm256_and_si256(_mm256_castps_si256(keep), pm);
    alignas(32) uint32_t c[8];
    StoreU8i(c, code);
    // i is a multiple of 8, so the block owns packed bytes i/4 and i/4 + 1 outright.
    packed[i / 4] =
        static_cast<uint8_t>(c[0] | (c[1] << 2) | (c[2] << 4) | (c[3] << 6));
    packed[i / 4 + 1] =
        static_cast<uint8_t>(c[4] | (c[5] << 2) | (c[6] << 4) | (c[7] << 6));
  }
  RefTernGradRange(x, n8, n, max_abs, k0, k1, packed);
}

void Avx2SignPack(const float* x, size_t n, uint8_t* packed) {
  const size_t n32 = n & ~size_t{31};
  const __m256 zero = _mm256_setzero_ps();
  for (size_t i = 0; i < n32; i += 32) {
    // x >= 0 is false for NaN (ordered), matching the scalar branch; four movemasks
    // assemble 32 sign bits per 4-byte store.
    const uint32_t m0 = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(LoadU8f(x + i), zero, _CMP_GE_OQ)));
    const uint32_t m1 = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(LoadU8f(x + i + 8), zero, _CMP_GE_OQ)));
    const uint32_t m2 = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(LoadU8f(x + i + 16), zero, _CMP_GE_OQ)));
    const uint32_t m3 = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(LoadU8f(x + i + 24), zero, _CMP_GE_OQ)));
    const uint32_t m = m0 | (m1 << 8) | (m2 << 16) | (m3 << 24);
    std::memcpy(packed + i / 8, &m, 4);
  }
  RefSignPackRange(x, n32, n, packed);
}

// --- fp16 (F16C) ---------------------------------------------------------------------

void Avx2Fp16Encode(const float* x, size_t n, uint16_t* out) {
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    StoreU8h(out + i, _mm256_cvtps_ph(LoadU8f(x + i), _MM_FROUND_TO_NEAREST_INT));
  }
  RefFp16EncodeRange(x, n8, n, out);
}

void Avx2Fp16DecodeAdd(const uint16_t* in, size_t n, float* out) {
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 v = _mm256_cvtph_ps(LoadU8h(in + i));
    StoreU8f(out + i, _mm256_add_ps(LoadU8f(out + i), v));
  }
  RefFp16DecodeAddRange(in, n8, n, out);
}

}  // namespace

const KernelOps& Avx2Table() {
  static const KernelOps table = [] {
    KernelOps ops = ScalarTable();
    ops.isa = "avx2";
    ops.sum_squares = Avx2SumSquares;
    ops.sum_abs = Avx2SumAbs;
    ops.max_abs = Avx2MaxAbs;
    ops.abs_bits = Avx2AbsBits;
    ops.select_topk = Avx2SelectTopK;
    ops.qsgd_quantize = Avx2Qsgd;
    ops.terngrad_quantize = Avx2TernGrad;
    ops.sign_pack = Avx2SignPack;
    // vcvtps2ph/vcvtph2ps are F16C, a separate CPUID bit from AVX2; keep the scalar
    // entries (inherited above) on the vanishingly rare AVX2-without-F16C part.
    if (__builtin_cpu_supports("f16c")) {
      ops.fp16_encode = Avx2Fp16Encode;
      ops.fp16_decode_add = Avx2Fp16DecodeAdd;
    }
    return ops;
  }();
  return table;
}

}  // namespace espresso::kernels

#endif  // ESPRESSO_KERNELS_X86
