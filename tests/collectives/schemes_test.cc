#include "src/collectives/schemes.h"

#include <gtest/gtest.h>

#include "src/collectives/primitives.h"
#include "src/compress/fp16.h"
#include "src/compress/randomk.h"
#include "src/compress/topk.h"
#include "src/util/rng.h"

namespace espresso {
namespace {

RankBuffers RandomBuffers(size_t ranks, size_t n, uint64_t seed) {
  RankBuffers buffers(ranks, std::vector<float>(n));
  for (size_t r = 0; r < ranks; ++r) {
    Rng rng(DeriveSeed(seed, r));
    rng.FillNormal(buffers[r], 0.0, 1.0);
  }
  return buffers;
}

// FP16 is (nearly) lossless for moderate values, so compressed schemes must reproduce
// the exact aggregation semantics through it.
TEST(Schemes, IndivisibleMatchesAllreduceUnderFp16) {
  Fp16Compressor c;
  RankBuffers buffers = RandomBuffers(4, 128, 1);
  const std::vector<float> expected = NaiveSum(buffers);
  SchemeContext ctx;
  CompressedIndivisibleAllgather(c, ctx, buffers);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t i = 0; i < 128; ++i) {
      EXPECT_NEAR(buffers[r][i], expected[i], 0.02f);
    }
  }
}

TEST(Schemes, DivisibleAlltoallMatchesAllreduceUnderFp16) {
  Fp16Compressor c;
  RankBuffers buffers = RandomBuffers(4, 130, 2);  // non-divisible size on purpose
  const std::vector<float> expected = NaiveSum(buffers);
  SchemeContext ctx;
  CompressedDivisibleAlltoall(c, ctx, buffers);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t i = 0; i < 130; ++i) {
      EXPECT_NEAR(buffers[r][i], expected[i], 0.02f);
    }
  }
}

TEST(Schemes, AllRanksEndIdentical) {
  TopKCompressor c(0.1);
  RankBuffers buffers = RandomBuffers(5, 200, 4);
  SchemeContext ctx;
  CompressedDivisibleAlltoall(c, ctx, buffers);
  for (size_t r = 1; r < 5; ++r) {
    EXPECT_EQ(buffers[r], buffers[0]) << "rank " << r;
  }
}

TEST(Schemes, IndivisibleAllRanksEndIdentical) {
  TopKCompressor c(0.1);
  RankBuffers buffers = RandomBuffers(5, 200, 5);
  SchemeContext ctx;
  CompressedIndivisibleAllgather(c, ctx, buffers);
  for (size_t r = 1; r < 5; ++r) {
    EXPECT_EQ(buffers[r], buffers[0]);
  }
}

TEST(Schemes, SharedSeedRandomkUsesCompressedAggregation) {
  // With shared-seed Random-k the divisible scheme skips decompress-aggregate-compress:
  // the aggregated result must still equal the per-payload decompressed sum.
  RandomKCompressor c(0.2);
  RankBuffers buffers = RandomBuffers(4, 100, 6);
  RankBuffers reference = buffers;
  SchemeContext ctx;
  ctx.seed = 77;
  const SchemeResult result = CompressedDivisibleAlltoall(c, ctx, buffers);
  // Compressed aggregation: only the initial per-part compressions happen.
  EXPECT_EQ(result.compress_calls, 4u * 4u);

  // Reference: decompress every rank's payloads and sum.
  std::vector<float> expected(100, 0.0f);
  for (size_t r = 0; r < 4; ++r) {
    const Partition part(100, 4);
    for (size_t j = 0; j < 4; ++j) {
      CompressedTensor payload;
      const std::span<const float> full(reference[r]);
      c.Compress(full.subspan(part.Offset(j), part.Length(j)), ctx.seed, &payload);
      auto range = std::span<float>(expected).subspan(part.Offset(j), part.Length(j));
      c.DecompressAdd(payload, range);
    }
  }
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(buffers[0][i], expected[i], 1e-4f);
  }
}

TEST(Schemes, TrafficDivisibleBelowIndivisibleForManyRanks) {
  // The divisible scheme's whole point: per-rank traffic stays ~constant while the
  // indivisible scheme's allgather grows with the rank count (Reason #2, Figure 5).
  TopKCompressor c(0.01);
  const size_t n = 10000;
  SchemeContext ctx;
  RankBuffers a = RandomBuffers(8, n, 7);
  const SchemeResult indivisible = CompressedIndivisibleAllgather(c, ctx, a);
  RankBuffers b = RandomBuffers(8, n, 7);
  const SchemeResult divisible = CompressedDivisibleAlltoall(c, ctx, b);
  EXPECT_LT(divisible.traffic.bytes_sent_per_rank, indivisible.traffic.bytes_sent_per_rank);
}

// A workspace's payload vectors only grow, so a call with fewer ranks than an earlier
// one leaves stale slots behind; they are not part of its traffic.
TEST(Schemes, TrafficOnAReusedWorkspaceCountsOnlyLiveRanks) {
  TopKCompressor c(0.25);
  const size_t n = 256;
  auto bytes_per_rank = [&](mem::CollectiveWorkspace& ws, size_t ranks, bool divisible) {
    SchemeContext ctx;
    ctx.workspace = &ws;
    RankBuffers buffers = RandomBuffers(ranks, n, 9);
    const SchemeResult result = divisible ? CompressedDivisibleAlltoall(c, ctx, buffers)
                                          : CompressedIndivisibleAllgather(c, ctx, buffers);
    return result.traffic.bytes_sent_per_rank;
  };
  for (const bool divisible : {false, true}) {
    mem::CollectiveWorkspace fresh;
    mem::CollectiveWorkspace reused;
    bytes_per_rank(reused, 8, divisible);
    // 4 ranks of 64 (index, value) pairs: a 512-byte payload per rank, or 16 pairs
    // (128 bytes) per part.
    const size_t expected = divisible ? 3 * 128 + 4 * 128 * 3 / 4 : 4 * 512 * 3 / 4;
    EXPECT_EQ(bytes_per_rank(fresh, 4, divisible), expected) << divisible;
    EXPECT_EQ(bytes_per_rank(reused, 4, divisible), expected) << divisible;
  }
}

TEST(Schemes, ErrorFeedbackReducesLongRunError) {
  // Synchronizing the same gradient repeatedly with EF must converge to transmitting
  // it fully; without EF the bias persists.
  TopKCompressor c(0.05);
  const size_t n = 100;
  const size_t ranks = 2;
  std::vector<float> grad(n);
  Rng rng(8);
  rng.FillNormal(grad, 0.0, 1.0);

  auto run = [&](bool use_ef) {
    std::vector<ErrorFeedback> feedback(ranks);
    std::vector<double> accumulated(n, 0.0);
    const int steps = 50;
    for (int s = 0; s < steps; ++s) {
      RankBuffers buffers(ranks, grad);
      SchemeContext ctx;
      ctx.feedback = use_ef ? &feedback : nullptr;
      ctx.tensor_id = 0;
      ctx.seed = static_cast<uint64_t>(s);
      CompressedIndivisibleAllgather(c, ctx, buffers);
      for (size_t i = 0; i < n; ++i) {
        accumulated[i] += buffers[0][i] / ranks;
      }
    }
    double err = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double target = static_cast<double>(grad[i]) * steps;
      err += (accumulated[i] - target) * (accumulated[i] - target);
    }
    return err;
  };
  EXPECT_LT(run(true), run(false) * 0.25);
}

}  // namespace
}  // namespace espresso
