#include "src/compress/efsignsgd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "src/util/rng.h"

namespace espresso {
namespace {

TEST(EfSignSgd, SignsPreserved) {
  EfSignSgdCompressor c;
  const std::vector<float> input = {1.0f, -2.0f, 0.5f, -0.25f};
  CompressedTensor payload;
  c.Compress(input, 0, &payload);
  std::vector<float> out(4, 0.0f);
  c.Decompress(payload, out);
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(std::signbit(out[i]), std::signbit(input[i]));
  }
}

TEST(EfSignSgd, ScaleIsMeanAbsolute) {
  EfSignSgdCompressor c;
  const std::vector<float> input = {1.0f, -2.0f, 3.0f, -4.0f};
  CompressedTensor payload;
  c.Compress(input, 0, &payload);
  ASSERT_EQ(payload.scales.size(), 1u);
  EXPECT_FLOAT_EQ(payload.scales[0], 2.5f);
}

TEST(EfSignSgd, CompressedSizeIsOneBitPerElementPlusScale) {
  EfSignSgdCompressor c;
  EXPECT_EQ(c.CompressedBytes(8), 1u + 4u);
  EXPECT_EQ(c.CompressedBytes(9), 2u + 4u);
  EXPECT_EQ(c.CompressedBytes(1024), 128u + 4u);
  // 32x reduction (minus the scale constant) as the paper's 1-bit quantization claims.
  EXPECT_LT(c.CompressedBytes(1 << 20), (1 << 20) * 4 / 30);
}

TEST(EfSignSgd, ByteSizeMatchesAnalytic) {
  EfSignSgdCompressor c;
  std::vector<float> input(1000);
  Rng rng(3);
  rng.FillNormal(input, 0.0, 1.0);
  CompressedTensor payload;
  c.Compress(input, 0, &payload);
  EXPECT_EQ(payload.ByteSize(), c.CompressedBytes(1000));
}

TEST(EfSignSgd, DecompressAddAccumulates) {
  EfSignSgdCompressor c;
  const std::vector<float> input = {1.0f, -1.0f};
  CompressedTensor payload;
  c.Compress(input, 0, &payload);
  std::vector<float> out = {10.0f, 10.0f};
  c.DecompressAdd(payload, out);
  EXPECT_FLOAT_EQ(out[0], 11.0f);
  EXPECT_FLOAT_EQ(out[1], 9.0f);
}

TEST(EfSignSgd, ZeroInputGivesZeroScale) {
  EfSignSgdCompressor c;
  const std::vector<float> input(16, 0.0f);
  CompressedTensor payload;
  c.Compress(input, 0, &payload);
  std::vector<float> out(16, 0.0f);
  c.Decompress(payload, out);
  for (float v : out) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(EfSignSgd, UnbiasedMagnitudeOnUniformSigns) {
  // For a vector of +-x, decompression reproduces it exactly.
  EfSignSgdCompressor c;
  std::vector<float> input(64);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = (i % 2 == 0) ? 0.75f : -0.75f;
  }
  CompressedTensor payload;
  c.Compress(input, 0, &payload);
  std::vector<float> out(64, 0.0f);
  c.Decompress(payload, out);
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], input[i]);
  }
}

// Reference decode, one bit at a time. -scale passes through a volatile so the compiler
// cannot fold `out[i] + -scale` into `out[i] - scale` (GCC does at -O3), which would
// flip the sign of a NaN result.
void PerBitDecompressAdd(const CompressedTensor& in, std::span<float> out) {
  const float scale = in.scales[0];
  volatile float negated = -scale;
  const float neg = negated;
  for (size_t i = 0; i < out.size(); ++i) {
    const bool positive = (in.bytes[i / 8] >> (i % 8)) & 1u;
    out[i] += positive ? scale : neg;
  }
}

// The byte-at-a-time decode matches the per-bit reference bit for bit: every length
// around the 8-element byte boundary, unaligned output spans, and scales whose sign
// flip or sum is special (signed zeros, the smallest denormal, infinities, NaN).
TEST(EfSignSgd, ByteWiseDecodeMatchesPerBitReference) {
  EfSignSgdCompressor c;
  const float scales[] = {1.5f,
                          -1.5f,
                          0.0f,
                          -0.0f,
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN()};
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 67; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(4095);
  lengths.push_back(4097);
  Rng rng(11);
  for (const size_t n : lengths) {
    CompressedTensor payload;
    payload.kind = PayloadKind::kPackedBits;
    payload.original_elements = n;
    payload.bytes.resize((n + 7) / 8);
    for (uint8_t& byte : payload.bytes) {
      byte = static_cast<uint8_t>(rng.engine()());  // the padding bits are random too
    }
    std::vector<float> base(n + 3);
    rng.FillNormal(base, 0.0, 1.0);
    for (const float scale : scales) {
      payload.scales.assign(1, scale);
      for (size_t offset = 0; offset < 4; ++offset) {
        std::vector<float> expected = base;
        std::vector<float> actual = base;
        PerBitDecompressAdd(payload, std::span<float>(expected).subspan(offset, n));
        c.DecompressAdd(payload, std::span<float>(actual).subspan(offset, n));
        ASSERT_EQ(std::memcmp(expected.data(), actual.data(), base.size() * sizeof(float)),
                  0)
            << "n " << n << " offset " << offset << " scale " << scale;
      }
    }
  }
}

}  // namespace
}  // namespace espresso
