// The paper's compressed schemes (Table 2, Figures 3-4) as the trainer runs them:
// SyncOption's flat options of the one-machine decision tree, executed by
// ExecuteOption on a 1 x ranks topology.
#include <gtest/gtest.h>

#include "src/collectives/primitives.h"
#include "src/compress/fp16.h"
#include "src/compress/randomk.h"
#include "src/compress/topk.h"
#include "src/ddl/strategy_executor.h"
#include "src/nn/parallel_trainer.h"
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

// Runs `scheme` over `buffers` with `config`'s compressor, feedback and seed.
void RunScheme(SyncScheme scheme, ExecutorConfig config, RankBuffers& buffers,
               uint64_t tensor_id = 0) {
  config.machines = 1;
  config.gpus_per_machine = buffers.size();
  ExecuteOption(SyncOption(scheme, buffers.size(), config.compressor), config, tensor_id,
                buffers);
}

// Forwards to `inner`, counting Compress calls.
class CountingCompressor : public Compressor {
 public:
  explicit CountingCompressor(const Compressor& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  size_t CompressedBytes(size_t elements) const override {
    return inner_.CompressedBytes(elements);
  }
  void Compress(std::span<const float> input, uint64_t seed,
                CompressedTensor* out) const override {
    ++compress_calls;
    inner_.Compress(input, seed, out);
  }
  void DecompressAdd(const CompressedTensor& in, std::span<float> out) const override {
    inner_.DecompressAdd(in, out);
  }
  bool SupportsCompressedAggregation() const override {
    return inner_.SupportsCompressedAggregation();
  }
  void AggregateCompressed(const CompressedTensor& in,
                           CompressedTensor* accum) const override {
    inner_.AggregateCompressed(in, accum);
  }

  mutable size_t compress_calls = 0;

 private:
  const Compressor& inner_;
};

// FP16 is (nearly) lossless for moderate values, so compressed schemes must reproduce
// the exact aggregation semantics through it.
TEST(Schemes, IndivisibleMatchesAllreduceUnderFp16) {
  Fp16Compressor c;
  RankBuffers buffers = RandomBuffers(4, 128, 1);
  const std::vector<float> expected = NaiveSum(buffers);
  RunScheme(SyncScheme::kCompressedIndivisible, {.compressor = &c}, buffers);
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
  RunScheme(SyncScheme::kCompressedDivisible, {.compressor = &c}, buffers);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t i = 0; i < 130; ++i) {
      EXPECT_NEAR(buffers[r][i], expected[i], 0.02f);
    }
  }
}

TEST(Schemes, AllRanksEndIdentical) {
  TopKCompressor c(0.1);
  RankBuffers buffers = RandomBuffers(5, 200, 4);
  RunScheme(SyncScheme::kCompressedDivisible, {.compressor = &c}, buffers);
  for (size_t r = 1; r < 5; ++r) {
    EXPECT_EQ(buffers[r], buffers[0]) << "rank " << r;
  }
}

TEST(Schemes, IndivisibleAllRanksEndIdentical) {
  TopKCompressor c(0.1);
  RankBuffers buffers = RandomBuffers(5, 200, 5);
  RunScheme(SyncScheme::kCompressedIndivisible, {.compressor = &c}, buffers);
  for (size_t r = 1; r < 5; ++r) {
    EXPECT_EQ(buffers[r], buffers[0]);
  }
}

TEST(Schemes, SharedSeedRandomkUsesCompressedAggregation) {
  // With shared-seed Random-k the divisible scheme skips decompress-aggregate-compress:
  // the aggregated result must still equal the per-payload decompressed sum.
  RandomKCompressor randomk(0.2);
  const CountingCompressor c(randomk);
  RankBuffers buffers = RandomBuffers(4, 100, 6);
  RankBuffers reference = buffers;
  const uint64_t seed = 77;
  RunScheme(SyncScheme::kCompressedDivisible, {.compressor = &c, .seed = seed}, buffers);
  // Compressed aggregation: only the initial per-part compressions happen.
  EXPECT_EQ(c.compress_calls, 4u * 4u);

  // Reference: decompress every rank's payloads and sum.
  std::vector<float> expected(100, 0.0f);
  for (size_t r = 0; r < 4; ++r) {
    const Partition part(100, 4);
    for (size_t j = 0; j < 4; ++j) {
      CompressedTensor payload;
      const std::span<const float> full(reference[r]);
      randomk.Compress(full.subspan(part.Offset(j), part.Length(j)), seed, &payload);
      auto range = std::span<float>(expected).subspan(part.Offset(j), part.Length(j));
      randomk.DecompressAdd(payload, range);
    }
  }
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(buffers[0][i], expected[i], 1e-4f);
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
      RunScheme(SyncScheme::kCompressedIndivisible,
                {.compressor = &c,
                 .feedback = use_ef ? &feedback : nullptr,
                 .seed = static_cast<uint64_t>(s)},
                buffers);
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
