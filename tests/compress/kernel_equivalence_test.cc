// Bit-identity of the vectorized kernel layer: every table in SupportedOps() must
// produce byte-for-byte the same results as the scalar reference — reductions to the
// last double ULP, quantized codes, packed bits, fp16 words, and whole compressor
// payloads. The sweep covers the vector-width boundary lengths (0, 1, 7, 8, 31, 32,
// 33, 4095, 4097), denormals, NaNs, ±0, ±inf, and unaligned head offsets, so a tail
// loop, masked lane, or alignment assumption that diverges from scalar fails here
// before it can corrupt a payload.
#include "src/compress/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/compress/compressor.h"
#include "src/util/rng.h"
#include "tests/compress/magnitude_inputs.h"

namespace espresso::kernels {
namespace {

constexpr size_t kLengths[] = {0, 1, 7, 8, 31, 32, 33, 4095, 4097};
constexpr size_t kOffsets[] = {0, 1, 3};  // floats past a vector-aligned base
constexpr size_t kMaxOffset = 3;

// Normal draws with IEEE edge cases riveted in at fixed stride positions.
std::vector<float> MakeInput(size_t n, uint64_t seed, bool with_non_finite) {
  std::vector<float> v(n);
  Rng rng(seed);
  rng.FillNormal(v, 0.0, 1.0);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 19) {
      case 3: v[i] = 0.0f; break;
      case 5: v[i] = -0.0f; break;
      case 7: v[i] = std::numeric_limits<float>::denorm_min(); break;
      case 9: v[i] = -1e-42f; break;  // mid-range denormal
      case 11:
        if (with_non_finite) v[i] = std::numeric_limits<float>::infinity();
        break;
      case 13:
        if (with_non_finite) v[i] = -std::numeric_limits<float>::infinity();
        break;
      case 15:
        if (with_non_finite) v[i] = std::numeric_limits<float>::quiet_NaN();
        break;
      default: break;
    }
  }
  return v;
}

uint64_t Bits64(double d) { return std::bit_cast<uint64_t>(d); }
uint32_t Bits32(float f) { return std::bit_cast<uint32_t>(f); }

// memcmp equality over `bytes` bytes. An empty vector's data() may be null, and
// memcmp on a null pointer is undefined even for zero bytes, so zero bytes compare
// equal without a call.
bool SameBytes(const void* got, const void* want, size_t bytes) {
  return bytes == 0 || std::memcmp(got, want, bytes) == 0;
}

TEST(KernelEquivalence, ReductionsBitIdenticalAcrossIsasLengthsAndOffsets) {
  const KernelOps& ref = Scalar();
  for (const KernelOps* ops : SupportedOps()) {
    for (size_t n : kLengths) {
      const std::vector<float> buf = MakeInput(n + kMaxOffset, DeriveSeed(1, n), true);
      for (size_t off : kOffsets) {
        const float* x = buf.data() + off;
        EXPECT_EQ(Bits64(ops->sum_squares(x, n)), Bits64(ref.sum_squares(x, n)))
            << ops->isa << " sum_squares n=" << n << " off=" << off;
        EXPECT_EQ(Bits64(ops->sum_abs(x, n)), Bits64(ref.sum_abs(x, n)))
            << ops->isa << " sum_abs n=" << n << " off=" << off;
        EXPECT_EQ(Bits32(ops->max_abs(x, n)), Bits32(ref.max_abs(x, n)))
            << ops->isa << " max_abs n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelEquivalence, MagnitudeScanMatchesScalar) {
  const KernelOps& ref = Scalar();
  for (const KernelOps* ops : SupportedOps()) {
    for (size_t n : kLengths) {
      const std::vector<float> buf = MakeInput(n + kMaxOffset, DeriveSeed(2, n), true);
      std::vector<uint32_t> got(n + 1, 0xA5A5A5A5u);
      std::vector<uint32_t> want(n + 1, 0xA5A5A5A5u);
      for (size_t off : kOffsets) {
        const float* x = buf.data() + off;
        ref.abs_bits(x, n, want.data());
        ops->abs_bits(x, n, got.data());
        ASSERT_EQ(std::memcmp(got.data(), want.data(), (n + 1) * sizeof(uint32_t)), 0)
            << ops->isa << " abs_bits n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelEquivalence, SelectTopkMatchesScalar) {
  const KernelOps& ref = Scalar();
  for (const KernelOps* ops : SupportedOps()) {
    for (size_t n : kLengths) {
      if (n == 0) {
        continue;
      }
      const std::vector<float> buf = MakeInput(n + kMaxOffset, DeriveSeed(3, n), true);
      std::vector<uint32_t> bits(n);
      for (size_t off : kOffsets) {
        const float* x = buf.data() + off;
        ref.abs_bits(x, n, bits.data());
        for (uint32_t t : {bits[n / 2], uint32_t{0}}) {
          size_t n_gt = 0;
          size_t n_eq = 0;
          for (uint32_t b : bits) {
            n_gt += b > t ? 1 : 0;
            n_eq += b == t ? 1 : 0;
          }
          for (size_t n_fill : {size_t{0}, std::min<size_t>(2, n_eq), n_eq}) {
            std::vector<uint32_t> want_idx(n_gt + n_fill, 0xFFFFFFFFu);
            std::vector<float> want_val(n_gt + n_fill, -1.0f);
            std::vector<uint32_t> got_idx = want_idx;
            std::vector<float> got_val = want_val;
            const size_t want_count =
                ref.select_topk(x, n, t, n_fill, want_idx.data(), want_val.data());
            const size_t got_count =
                ops->select_topk(x, n, t, n_fill, got_idx.data(), got_val.data());
            ASSERT_EQ(got_count, want_count)
                << ops->isa << " select_topk n=" << n << " t=" << t;
            ASSERT_TRUE(SameBytes(got_idx.data(), want_idx.data(),
                                  want_idx.size() * sizeof(uint32_t)))
                << ops->isa << " select_topk indices n=" << n;
            ASSERT_TRUE(SameBytes(got_val.data(), want_val.data(),
                                  want_val.size() * sizeof(float)))
                << ops->isa << " select_topk values n=" << n;
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, QuantizersBitIdenticalAcrossIsas) {
  const KernelOps& ref = Scalar();
  const uint32_t k0 = 0x12345678u;
  const uint32_t k1 = 0x9ABCDEF0u;
  for (const KernelOps* ops : SupportedOps()) {
    for (size_t n : kLengths) {
      const std::vector<float> buf = MakeInput(n + kMaxOffset, DeriveSeed(4, n), true);
      for (size_t off : kOffsets) {
        const float* x = buf.data() + off;
        const float norm = static_cast<float>(std::sqrt(ref.sum_squares(x, n)));
        const float mabs = ref.max_abs(x, n);

        std::vector<uint8_t> want_codes(n + 1, 0xEE);
        std::vector<uint8_t> got_codes(n + 1, 0xEE);
        ref.qsgd_quantize(x, n, norm, 15, k0, k1, want_codes.data());
        ops->qsgd_quantize(x, n, norm, 15, k0, k1, got_codes.data());
        ASSERT_EQ(std::memcmp(got_codes.data(), want_codes.data(), n + 1), 0)
            << ops->isa << " qsgd n=" << n << " off=" << off;

        std::vector<uint8_t> want_tern((n + 3) / 4, 0);
        std::vector<uint8_t> got_tern((n + 3) / 4, 0);
        ref.terngrad_quantize(x, n, mabs, k0, k1, want_tern.data());
        ops->terngrad_quantize(x, n, mabs, k0, k1, got_tern.data());
        ASSERT_TRUE(SameBytes(got_tern.data(), want_tern.data(), want_tern.size()))
            << ops->isa << " terngrad n=" << n << " off=" << off;

        std::vector<uint8_t> want_sign((n + 7) / 8, 0);
        std::vector<uint8_t> got_sign((n + 7) / 8, 0);
        ref.sign_pack(x, n, want_sign.data());
        ops->sign_pack(x, n, got_sign.data());
        ASSERT_TRUE(SameBytes(got_sign.data(), want_sign.data(), want_sign.size()))
            << ops->isa << " sign_pack n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelEquivalence, Fp16RoundTripBitIdenticalAcrossIsas) {
  const KernelOps& ref = Scalar();
  for (const KernelOps* ops : SupportedOps()) {
    for (size_t n : kLengths) {
      const std::vector<float> buf = MakeInput(n + kMaxOffset, DeriveSeed(5, n), true);
      for (size_t off : kOffsets) {
        const float* x = buf.data() + off;
        std::vector<uint16_t> want_half(n + 1, 0xDEAD);
        std::vector<uint16_t> got_half(n + 1, 0xDEAD);
        ref.fp16_encode(x, n, want_half.data());
        ops->fp16_encode(x, n, got_half.data());
        ASSERT_EQ(std::memcmp(got_half.data(), want_half.data(),
                              (n + 1) * sizeof(uint16_t)), 0)
            << ops->isa << " fp16_encode n=" << n << " off=" << off;

        // decode_add accumulates: seed both outputs with the same nonzero pattern.
        std::vector<float> want_out(n), got_out(n);
        for (size_t i = 0; i < n; ++i) {
          want_out[i] = got_out[i] = static_cast<float>(i % 5) * 0.25f;
        }
        ref.fp16_decode_add(want_half.data(), n, want_out.data());
        ops->fp16_decode_add(got_half.data(), n, got_out.data());
        ASSERT_TRUE(SameBytes(got_out.data(), want_out.data(), n * sizeof(float)))
            << ops->isa << " fp16_decode_add n=" << n << " off=" << off;
      }
    }
  }
}

// (t, #{bits > t}) must equal a full sort's on every table, over the adversarial
// families of magnitude_inputs.h and the IEEE-edge mix of MakeInput.
TEST(KernelEquivalence, SelectKthMagnitudeIsExactOnEveryTable) {
  std::vector<uint32_t> scratch;
  for (size_t n : test_inputs::kSelectLengths) {
    std::vector<test_inputs::MagnitudeInput> inputs =
        test_inputs::AdversarialMagnitudeInputs(n, 6);
    inputs.push_back({"ieee-edge-mix", MakeInput(n, DeriveSeed(6, n), true)});
    for (const test_inputs::MagnitudeInput& input : inputs) {
      const std::vector<float>& x = input.values;
      std::vector<uint32_t> sorted(n);
      Scalar().abs_bits(x.data(), n, sorted.data());
      std::sort(sorted.begin(), sorted.end(), std::greater<uint32_t>());
      for (size_t k : test_inputs::SelectRanks(n)) {
        const uint32_t want_t = sorted[k - 1];
        const size_t want_gt = static_cast<size_t>(
            std::lower_bound(sorted.begin(), sorted.end(), want_t,
                             std::greater<uint32_t>()) -
            sorted.begin());
        for (const KernelOps* ops : SupportedOps()) {
          const KthMagnitude got = SelectKthMagnitude(*ops, x.data(), n, k, &scratch);
          ASSERT_EQ(got.t, want_t)
              << ops->isa << " " << input.family << " n=" << n << " k=" << k;
          ASSERT_EQ(got.n_gt, want_gt)
              << ops->isa << " " << input.family << " n=" << n << " k=" << k;
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(scratch[i], MagnitudeBits(x[i]))
                << ops->isa << " " << input.family << " scratch " << i;
          }
        }
      }
    }
  }
}

// --- Whole-compressor payload identity ------------------------------------------------

struct AlgoCase {
  const char* label;
  CompressorConfig config;
};

std::vector<AlgoCase> AllAlgorithms() {
  return {
      {"randomk", {.algorithm = "randomk", .ratio = 0.25}},
      {"topk", {.algorithm = "topk", .ratio = 0.25}},
      {"efsignsgd", {.algorithm = "efsignsgd"}},
      {"qsgd", {.algorithm = "qsgd", .bits = 4}},
      {"terngrad", {.algorithm = "terngrad"}},
      {"fp16", {.algorithm = "fp16"}},
      {"threshold", {.algorithm = "threshold", .threshold = 0.2}},
  };
}

void ExpectPayloadBitIdentical(const CompressedTensor& got, const CompressedTensor& want,
                               const char* label) {
  EXPECT_EQ(got.kind, want.kind) << label;
  EXPECT_EQ(got.original_elements, want.original_elements) << label;
  ASSERT_EQ(got.indices, want.indices) << label;
  ASSERT_EQ(got.values.size(), want.values.size()) << label;
  EXPECT_TRUE(SameBytes(got.values.data(), want.values.data(),
                        want.values.size() * sizeof(float)))
      << label << " values";
  ASSERT_EQ(got.bytes, want.bytes) << label;
  ASSERT_EQ(got.scales.size(), want.scales.size()) << label;
  EXPECT_TRUE(SameBytes(got.scales.data(), want.scales.data(),
                        want.scales.size() * sizeof(float)))
      << label << " scales";
}

TEST(KernelEquivalence, CompressorPayloadsIdenticalAcrossIsas) {
  for (const AlgoCase& algo : AllAlgorithms()) {
    const auto compressor = CreateCompressor(algo.config);
    for (size_t n : {size_t{1}, size_t{33}, size_t{4097}}) {
      const std::vector<float> input = MakeInput(n, DeriveSeed(7, n), false);
      SetActiveForTesting(&Scalar());
      CompressedTensor want;
      compressor->Compress(input, 42, &want);
      for (const KernelOps* ops : SupportedOps()) {
        SetActiveForTesting(ops);
        CompressedTensor got;
        compressor->Compress(input, 42, &got);
        ExpectPayloadBitIdentical(got, want,
                                  (std::string(algo.label) + "/" + ops->isa).c_str());
      }
      SetActiveForTesting(nullptr);
    }
  }
}

TEST(KernelEquivalence, RegistryExposesScalarFirstAndHostFeatures) {
  const std::vector<const KernelOps*>& tables = SupportedOps();
  ASSERT_FALSE(tables.empty());
  EXPECT_STREQ(tables[0]->isa, "scalar");
  EXPECT_EQ(tables[0], &Scalar());
  // Two tables at most: scalar, then AVX2 where the build and the cpu both have it.
  EXPECT_LE(tables.size(), 2u);
#if (defined(__x86_64__) || defined(_M_X64)) && !defined(ESPRESSO_SIMD_DISABLED)
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_STREQ(tables.back()->isa, "avx2");
  }
#endif
  // With nothing forced, Active() is the last supported table; the override wins.
  SetActiveForTesting(nullptr);
  EXPECT_EQ(&Active(), tables.back());
  SetActiveForTesting(&Scalar());
  EXPECT_EQ(&Active(), &Scalar());
  SetActiveForTesting(nullptr);
  // Feature list is host-truth; scalar builds still report the cpu's features.
  for (const char* f : HostIsaFeatures()) {
    EXPECT_NE(f, nullptr);
  }
}

}  // namespace
}  // namespace espresso::kernels
