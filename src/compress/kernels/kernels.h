// Vectorized compressor kernels with runtime ISA dispatch (ROADMAP item #3).
//
// The five compressor hot loops (Top-k magnitude selection, QSGD normalize+quantize,
// TernGrad ternarize, EFSignSGD sign-pack, FP16 convert) funnel through the function
// table in this header. Two tables exist: the scalar reference, always, and AVX2 on
// x86-64 when ESPRESSO_SIMD is ON; the registry picks AVX2 at startup when the host
// supports it. Every AVX2 entry is BIT-IDENTICAL to the scalar reference — payloads
// memcmp equal — which is what keeps the executor equivalence matrix and the
// espresso_check corpus valid oracles across ISAs. Three contracts make
// that possible (docs/PERFORMANCE.md §Kernel registry):
//
//   1. Lane-order reduction contract: every floating-point reduction (QSGD's L2,
//      EFSignSGD's L1) accumulates into kReductionLanes strided double lanes —
//      lane j sums exactly the elements with index % kReductionLanes == j, in
//      increasing index order — and the lanes are folded in ascending lane order.
//      Scalar and SIMD implementations share this summation tree, so they share its
//      rounding, regardless of the host vector width.
//   2. Counter RNG contract: stochastic rounding draws are a pure hash of
//      (seed, element index) — CounterUniform below — instead of a stateful
//      sequential engine, so any lane can produce any element's draw independently.
//   3. Integer magnitude domain: Top-k ordering compares bits(|x|) as unsigned
//      integers (IEEE monotonicity makes this the float magnitude order for finite
//      values, with NaN sorting above +inf deterministically), so selection never
//      depends on NaN-sensitive float comparisons.
//
// Elementwise float semantics (|x| via sign-bit clear, x/y, trunc-to-int, compares
// false on NaN) are identical per IEEE 754 on every target; kernels never use FMA or
// reassociation, and the SIMD translation units are compiled without -ffast-math.
#ifndef SRC_COMPRESS_KERNELS_KERNELS_H_
#define SRC_COMPRESS_KERNELS_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace espresso::kernels {

// Lane count of the reduction contract (contract 1 above). Eight double lanes map to
// two __m256d on AVX2.
inline constexpr size_t kReductionLanes = 8;

// --- Counter RNG (contract 2) -------------------------------------------------------
//
// Two rounds of the lowbias32 integer finalizer keyed by the two halves of a 64-bit
// derived seed. 32-bit multiplies only, so the hash vectorizes on every target ISA.
// Marked always_inline: these are included into TUs built with different -m flags, and
// an out-of-line copy picked by the linker from the AVX2 TU would crash older hosts.

#define ESPRESSO_KERNEL_INLINE inline __attribute__((always_inline))

ESPRESSO_KERNEL_INLINE uint32_t CounterMix(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

ESPRESSO_KERNEL_INLINE uint32_t CounterHash(uint32_t k0, uint32_t k1, uint32_t i) {
  return CounterMix(CounterMix(i ^ k0) ^ k1);
}

// Uniform draw in [0, 1): the hash's top 24 bits scaled by 2^-24. Both steps are exact
// in float, so scalar and SIMD conversions agree bit for bit.
ESPRESSO_KERNEL_INLINE float CounterUniform(uint32_t k0, uint32_t k1, uint32_t i) {
  return static_cast<float>(CounterHash(k0, k1, i) >> 8) * 0x1.0p-24f;
}

// --- Integer magnitude domain (contract 3) ------------------------------------------

ESPRESSO_KERNEL_INLINE uint32_t MagnitudeBits(float x) {
  return std::bit_cast<uint32_t>(x) & 0x7fffffffU;
}

// --- The kernel table ----------------------------------------------------------------
//
// Raw pointers + lengths (not spans) so tables are plain aggregates a per-ISA TU can
// fill without pulling vector-typed signatures across -m boundaries.
struct KernelOps {
  const char* isa = "scalar";

  // Reductions under the lane-order contract.
  double (*sum_squares)(const float* x, size_t n) = nullptr;   // sum of double(x)^2
  double (*sum_abs)(const float* x, size_t n) = nullptr;       // sum of |double(x)|
  // Running max of |x| with NaN-ignoring semantics (m = |x| > m ? |x| : m; m0 = 0).
  float (*max_abs)(const float* x, size_t n) = nullptr;

  // Magnitude scan (Top-k). out[i] = MagnitudeBits(x[i]).
  void (*abs_bits)(const float* x, size_t n, uint32_t* out) = nullptr;
  // #{i : m[i] > t} over magnitude-bits values, unsigned integer compare.
  size_t (*count_gt_bits)(const uint32_t* m, size_t n, uint32_t t) = nullptr;
  // Ascending-index emit: every i with MagnitudeBits(x[i]) > t, plus the first n_fill
  // indices with MagnitudeBits(x[i]) == t. Writes (indices[j], values[j] = x[i]) pairs
  // and returns the emit count. Indices come out ascending by construction — the
  // nth_element + sort double materialization this replaces is gone.
  size_t (*select_topk)(const float* x, size_t n, uint32_t t, size_t n_fill,
                        uint32_t* indices, float* values) = nullptr;

  // QSGD: codes[i] = min(levels, trunc(m) + (u_i < m - trunc(m))) | sign(x[i]) << 7
  // where m = |x[i]| / norm * float(levels) and u_i = CounterUniform(k0, k1, i).
  // Out-of-range m (NaN/inf inputs) truncates to INT_MIN, clamped to [0, levels].
  void (*qsgd_quantize)(const float* x, size_t n, float norm, int levels, uint32_t k0,
                        uint32_t k1, uint8_t* codes) = nullptr;
  // TernGrad 2-bit codes, four per byte (byte i/4, bits 2*(i%4)), into ZEROED packed:
  // code = u_i < |x[i]| / max_abs ? (x[i] >= 0 ? 1 : 2) : 0.
  void (*terngrad_quantize)(const float* x, size_t n, float max_abs, uint32_t k0,
                            uint32_t k1, uint8_t* packed) = nullptr;
  // EFSignSGD: bit i of packed (byte i/8, bit i%8) set iff x[i] >= 0 (false on NaN),
  // into ZEROED packed.
  void (*sign_pack)(const float* x, size_t n, uint8_t* packed) = nullptr;

  // IEEE binary16 convert, round-to-nearest-even, NaNs quieted with the mantissa's top
  // ten bits kept (the F16C/vcvtps2ph behaviour; the scalar reference matches it).
  void (*fp16_encode)(const float* x, size_t n, uint16_t* out) = nullptr;
  void (*fp16_decode_add)(const uint16_t* in, size_t n, float* out) = nullptr;
};

// --- Registry / runtime dispatch -----------------------------------------------------

// The table the process dispatches through: SupportedOps().back() (AVX2 when the host
// has it, else scalar) unless SetActiveForTesting forces one.
const KernelOps& Active();

// The scalar reference table (always available; the equivalence oracle).
const KernelOps& Scalar();

// Every table the host can execute, scalar first: {scalar} or {scalar, avx2}. The
// kernel equivalence test sweeps these against Scalar().
const std::vector<const KernelOps*>& SupportedOps();

// Forces Active() to return *ops until called with nullptr (restores the automatic
// choice). Test/bench hook; not thread-safe against concurrent Active() dispatch.
void SetActiveForTesting(const KernelOps* ops);

// Host capability summary for bench reports: ordered feature names, e.g.
// {"sse2", "avx2", "f16c"} on a Haswell-class x86 host, {"neon"} on aarch64.
std::vector<const char*> HostIsaFeatures();

// --- Shared selection driver ---------------------------------------------------------

// Exact k-th-largest magnitude threshold (1 <= k <= n) via sampled-pivot quickselect:
// vectorized count passes through the active table, scalar compaction of the shrinking
// candidate set. Returns t such that #{i : bits > t} < k <= #{i : bits >= t}, in the
// integer magnitude domain. `scratch` is caller-leased (grow-only, reused across
// calls); on return its first n entries still hold MagnitudeBits of the input.
uint32_t SelectKthMagnitude(const KernelOps& ops, const float* x, size_t n, size_t k,
                            std::vector<uint32_t>* scratch);

// Thread-local grow-only scratch backing SelectKthMagnitude calls from stateless
// Compressor::Compress implementations (the pool-leased index workspace of the Top-k
// fix; same idiom as Random-k's shuffle pool).
std::vector<uint32_t>& ThreadScratchU32();

}  // namespace espresso::kernels

#endif  // SRC_COMPRESS_KERNELS_KERNELS_H_
