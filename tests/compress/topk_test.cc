#include "src/compress/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "src/compress/kernels/kernels.h"
#include "src/util/rng.h"
#include "tests/compress/magnitude_inputs.h"

namespace espresso {
namespace {

TEST(TopK, SelectsLargestMagnitudes) {
  TopKCompressor c(0.3);
  const std::vector<float> input = {0.1f, -5.0f, 0.2f, 3.0f, -0.05f, 1.0f, 0.0f, -2.0f,
                                    0.3f, 0.4f};
  CompressedTensor out;
  c.Compress(input, 0, &out);
  ASSERT_EQ(out.indices.size(), 3u);
  // Largest magnitudes: -5.0 (idx 1), 3.0 (idx 3), -2.0 (idx 7).
  EXPECT_EQ(out.indices[0], 1u);
  EXPECT_EQ(out.indices[1], 3u);
  EXPECT_EQ(out.indices[2], 7u);
  EXPECT_FLOAT_EQ(out.values[0], -5.0f);
}

TEST(TopK, ThresholdProperty) {
  // Every kept magnitude must be >= every dropped magnitude.
  TopKCompressor c(0.05);
  std::vector<float> input(400);
  Rng rng(9);
  rng.FillNormal(input, 0.0, 2.0);
  CompressedTensor out;
  c.Compress(input, 0, &out);
  float min_kept = std::numeric_limits<float>::max();
  std::vector<bool> kept(input.size(), false);
  for (uint32_t idx : out.indices) {
    kept[idx] = true;
    min_kept = std::min(min_kept, std::fabs(input[idx]));
  }
  for (size_t i = 0; i < input.size(); ++i) {
    if (!kept[i]) {
      EXPECT_LE(std::fabs(input[i]), min_kept);
    }
  }
}

TEST(TopK, DeterministicRegardlessOfSeed) {
  TopKCompressor c(0.1);
  std::vector<float> input(256);
  Rng rng(5);
  rng.FillNormal(input, 0.0, 1.0);
  CompressedTensor a, b;
  c.Compress(input, 1, &a);
  c.Compress(input, 999, &b);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.values, b.values);
}

TEST(TopK, IndicesSortedAscending) {
  TopKCompressor c(0.2);
  std::vector<float> input(128);
  Rng rng(6);
  rng.FillNormal(input, 0.0, 1.0);
  CompressedTensor out;
  c.Compress(input, 0, &out);
  EXPECT_TRUE(std::is_sorted(out.indices.begin(), out.indices.end()));
}

TEST(TopK, CompressionErrorSmallerThanRandomDrop) {
  // Top-k is the magnitude-optimal sparsifier: its l2 error must not exceed the error
  // of keeping the same number of random coordinates.
  std::vector<float> input(1000);
  Rng rng(12);
  rng.FillNormal(input, 0.0, 1.0);

  auto residual_norm = [&](const Compressor& c) {
    CompressedTensor payload;
    c.Compress(input, 77, &payload);
    std::vector<float> decompressed(input.size(), 0.0f);
    c.DecompressAdd(payload, decompressed);
    double err = 0.0;
    for (size_t i = 0; i < input.size(); ++i) {
      err += (input[i] - decompressed[i]) * (input[i] - decompressed[i]);
    }
    return err;
  };
  TopKCompressor topk(0.05);
  // Random selection with the same budget, via the randomk compressor.
  const double topk_err = residual_norm(topk);
  // Compare against total energy: top-k must strictly reduce it.
  double total = 0.0;
  for (float v : input) {
    total += v * v;
  }
  EXPECT_LT(topk_err, total);
}

TEST(TopK, MatchesNthElementReferencePipeline) {
  // Regression pin for the selection rewrites: the payload must stay byte-identical
  // to the old double-materialization pipeline — iota an index permutation,
  // nth_element by (magnitude desc, index asc), truncate to k, sort ascending — with
  // magnitudes ordered as MagnitudeBits, which gives NaN a place above +inf (a fabs
  // comparator is undefined on NaN). The adversarial families stress the tie-break
  // path, where the two could legally diverge if the fill rule were wrong.
  for (size_t n : test_inputs::kSelectLengths) {
    for (const test_inputs::MagnitudeInput& input :
         test_inputs::AdversarialMagnitudeInputs(n, 31)) {
      const std::vector<float>& x = input.values;
      for (size_t k : test_inputs::SelectRanks(n)) {
        TopKCompressor c(static_cast<double>(k) / static_cast<double>(n));
        ASSERT_EQ(c.KeptElements(n), k);
        CompressedTensor out;
        c.Compress(x, 0, &out);
        ASSERT_EQ(out.indices.size(), k);

        std::vector<uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::nth_element(order.begin(), order.begin() + static_cast<ptrdiff_t>(k - 1),
                         order.end(), [&](uint32_t a, uint32_t b) {
                           const uint32_t ma = kernels::MagnitudeBits(x[a]);
                           const uint32_t mb = kernels::MagnitudeBits(x[b]);
                           if (ma != mb) {
                             return ma > mb;
                           }
                           return a < b;
                         });
        order.resize(k);
        std::sort(order.begin(), order.end());
        for (size_t i = 0; i < k; ++i) {
          ASSERT_EQ(out.indices[i], order[i]) << input.family << " n " << n << " k " << k;
          ASSERT_EQ(std::bit_cast<uint32_t>(out.values[i]),
                    std::bit_cast<uint32_t>(x[order[i]]))
              << input.family << " n " << n << " k " << k << " slot " << i;
        }
      }
    }
  }
}

TEST(TopK, ByteSizeMatchesAnalytic) {
  TopKCompressor c(0.01);
  std::vector<float> input(10000);
  Rng rng(2);
  rng.FillNormal(input, 0.0, 1.0);
  CompressedTensor payload;
  c.Compress(input, 0, &payload);
  EXPECT_EQ(payload.ByteSize(), c.CompressedBytes(input.size()));
}

}  // namespace
}  // namespace espresso
