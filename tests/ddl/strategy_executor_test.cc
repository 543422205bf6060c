#include "src/ddl/strategy_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/collectives/primitives.h"
#include "src/compress/kernels/kernels.h"
#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
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

void ExpectAllRanksEqual(const RankBuffers& buffers) {
  for (size_t r = 1; r < buffers.size(); ++r) {
    ASSERT_EQ(buffers[r].size(), buffers[0].size());
    for (size_t i = 0; i < buffers[0].size(); ++i) {
      ASSERT_EQ(buffers[r][i], buffers[0][i]) << "rank " << r << " idx " << i;
    }
  }
}

void ExpectNearNaiveSum(const RankBuffers& buffers, const std::vector<float>& expected,
                        float tolerance) {
  for (size_t r = 0; r < buffers.size(); ++r) {
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(buffers[r][i], expected[i], tolerance)
          << "rank " << r << " idx " << i;
    }
  }
}

TEST(StrategyExecutor, Fp32HierarchicalMatchesNaiveSum) {
  const ExecutorConfig config{.machines = 3, .gpus_per_machine = 2};
  RankBuffers buffers = RandomBuffers(config.ranks(), 97, 1);
  const std::vector<float> expected = NaiveSum(buffers);
  const TreeConfig tree{config.machines, config.gpus_per_machine, false};
  ExecuteOption(DefaultUncompressedOption(tree), config, 0, buffers);
  ExpectAllRanksEqual(buffers);
  ExpectNearNaiveSum(buffers, expected, 1e-4f);
}

TEST(StrategyExecutor, FlatAllreduceMatchesNaiveSum) {
  const ExecutorConfig config{.machines = 1, .gpus_per_machine = 4};
  RankBuffers buffers = RandomBuffers(4, 33, 2);
  const std::vector<float> expected = NaiveSum(buffers);
  const TreeConfig tree{1, 4, false};
  ExecuteOption(DefaultUncompressedOption(tree), config, 0, buffers);
  ExpectNearNaiveSum(buffers, expected, 1e-4f);
}

// Every candidate option of the decision algorithm must aggregate correctly. FP16 is
// near-lossless, so the executed result must match the exact sum tightly even through
// multi-stage compress/decompress pipelines.
TEST(StrategyExecutor, EveryCandidateOptionAggregatesCorrectlyUnderFp16) {
  const auto fp16 = CreateCompressor(CompressorConfig{.algorithm = "fp16"});
  ExecutorConfig config{.machines = 2, .gpus_per_machine = 2, .compressor = fp16.get()};
  const TreeConfig tree{config.machines, config.gpus_per_machine, false};
  for (const CompressionOption& option : CandidateOptions(tree)) {
    RankBuffers buffers = RandomBuffers(config.ranks(), 64, 3);
    const std::vector<float> expected = NaiveSum(buffers);
    ExecuteOption(option, config, 0, buffers);
    ExpectAllRanksEqual(buffers);
    ExpectNearNaiveSum(buffers, expected, 0.05f);
  }
}

// The semantic power test: execute EVERY structural path of the decision tree, and
// every candidate, and check aggregation, on 2 x 2 and 8 x 8 ranks and down to tensors
// with fewer elements than a partition has parts, whose zero-length parts share an
// offset. FP16 is near-lossless, so its result must match the exact sum; DGC (top-k,
// no compressed-domain aggregation) must agree across ranks. With compressed-domain
// aggregation enabled the skip paths require shared-seed Random-k; those are checked
// for rank agreement and finite values.
TEST(StrategyExecutor, EveryEnumeratedPathExecutes) {
  const auto fp16 = CreateCompressor(CompressorConfig{.algorithm = "fp16"});
  const auto dgc = CreateCompressor(CompressorConfig{.algorithm = "dgc"});
  const auto randomk =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.25});
  struct Shape {
    size_t machines;
    size_t gpus;
    std::vector<size_t> sizes;
  };
  const std::vector<Shape> shapes = {{2, 2, {48}}, {8, 8, {1, 2, 16, 37}}};
  for (const Shape& shape : shapes) {
    const TreeConfig plain{shape.machines, shape.gpus, false};
    const TreeConfig with_agg{shape.machines, shape.gpus, true};
    std::vector<CompressionOption> plain_options = EnumerateOptions(plain).options;
    for (CompressionOption& option : CandidateOptions(plain)) {
      plain_options.push_back(std::move(option));
    }
    std::vector<CompressionOption> agg_options = EnumerateOptions(with_agg).options;
    for (CompressionOption& option : CandidateOptions(with_agg)) {
      agg_options.push_back(std::move(option));
    }
    for (const size_t n : shape.sizes) {
      for (const CompressionOption& option : plain_options) {
        SCOPED_TRACE(option.label + " on " + std::to_string(shape.machines) + "x" +
                     std::to_string(shape.gpus) + ", " + std::to_string(n) + " per rank");
        ExecutorConfig config{.machines = shape.machines, .gpus_per_machine = shape.gpus,
                              .compressor = fp16.get()};
        RankBuffers buffers = RandomBuffers(config.ranks(), n, 4);
        const std::vector<float> expected = NaiveSum(buffers);
        ExecuteOption(option, config, 0, buffers);
        ExpectAllRanksEqual(buffers);
        ExpectNearNaiveSum(buffers, expected, 0.05f);

        config.compressor = dgc.get();
        buffers = RandomBuffers(config.ranks(), n, 6);
        ExecuteOption(option, config, 0, buffers);
        ExpectAllRanksEqual(buffers);
      }
      for (const CompressionOption& option : agg_options) {
        SCOPED_TRACE(option.label + " on " + std::to_string(shape.machines) + "x" +
                     std::to_string(shape.gpus) + ", " + std::to_string(n) + " per rank");
        ExecutorConfig config{.machines = shape.machines, .gpus_per_machine = shape.gpus,
                              .compressor = randomk.get()};
        RankBuffers buffers = RandomBuffers(config.ranks(), n, 5);
        ExecuteOption(option, config, 0, buffers);
        ExpectAllRanksEqual(buffers);
        for (float v : buffers[0]) {
          ASSERT_TRUE(std::isfinite(v));
        }
      }
    }
  }
}

TEST(StrategyExecutor, SkipVariantEqualsExplicitAggregation) {
  // With shared-seed Random-k, aggregating in the compressed domain (the skip path)
  // must produce exactly the decompress-aggregate result of the indivisible scheme.
  const auto randomk =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.2});
  ExecutorConfig config{.machines = 1, .gpus_per_machine = 4, .compressor = randomk.get()};
  const TreeConfig tree{1, 4, true};

  CompressionOption explicit_agg, skip_agg;
  for (const CompressionOption& option : EnumerateOptions(tree).options) {
    if (option.label == "flat[comp+agc+dec]") {
      explicit_agg = option;
    }
    if (option.label == "flat[comp+agc+aggc]") {
      skip_agg = option;
    }
  }
  ASSERT_FALSE(explicit_agg.ops.empty());
  ASSERT_FALSE(skip_agg.ops.empty());

  RankBuffers a = RandomBuffers(4, 100, 6);
  RankBuffers b = a;
  ExecuteOption(explicit_agg, config, 0, a);
  ExecuteOption(skip_agg, config, 0, b);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t i = 0; i < 100; ++i) {
      ASSERT_NEAR(a[r][i], b[r][i], 1e-5f);
    }
  }
}

TEST(StrategyExecutor, BaselineOptionsExecute) {
  const auto fp16 = CreateCompressor(CompressorConfig{.algorithm = "fp16"});
  const ClusterSpec cluster = NvlinkCluster(2, 2);
  ExecutorConfig config{.machines = 2, .gpus_per_machine = 2, .compressor = fp16.get()};
  for (const CompressionOption& option :
       {InterOnlyIndivisibleOption(cluster, Device::kGpu),
        InterOnlyDivisibleOption(cluster, Device::kGpu),
        AlltoallAlltoallOption(cluster, Device::kGpu)}) {
    RankBuffers buffers = RandomBuffers(4, 40, 7);
    const std::vector<float> expected = NaiveSum(buffers);
    ExecuteOption(option, config, 0, buffers);
    ExpectAllRanksEqual(buffers);
    ExpectNearNaiveSum(buffers, expected, 0.05f);
  }
}

TEST(StrategyExecutor, ErrorFeedbackTelescopesThroughExecutor) {
  const auto topk = CreateCompressor(CompressorConfig{.algorithm = "dgc", .ratio = 0.1});
  const ClusterSpec cluster = NvlinkCluster(2, 2);
  std::vector<ErrorFeedback> feedback(4);
  ExecutorConfig config{.machines = 2, .gpus_per_machine = 2, .compressor = topk.get(),
                        .feedback = &feedback};
  const CompressionOption option = InterOnlyIndivisibleOption(cluster, Device::kGpu);

  const size_t n = 50;
  std::vector<float> grad(n);
  Rng rng(8);
  rng.FillNormal(grad, 0.0, 1.0);

  // Synchronize the same per-rank gradient repeatedly; with EF, the accumulated
  // aggregate converges toward steps * exact-sum (nothing is lost permanently).
  std::vector<double> accumulated(n, 0.0);
  const int steps = 40;
  for (int s = 0; s < steps; ++s) {
    RankBuffers buffers(4, grad);
    config.seed = static_cast<uint64_t>(s);
    ExecuteOption(option, config, /*tensor_id=*/3, buffers);
    for (size_t i = 0; i < n; ++i) {
      accumulated[i] += buffers[0][i];
    }
  }
  double err = 0.0, energy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double target = 4.0 * grad[i] * steps;
    err += (accumulated[i] - target) * (accumulated[i] - target);
    energy += target * target;
  }
  EXPECT_LT(err, energy * 0.01);
}

TEST(StrategyExecutor, ExecuteStrategyHandlesMixedOptions) {
  const auto fp16 = CreateCompressor(CompressorConfig{.algorithm = "fp16"});
  const ClusterSpec cluster = NvlinkCluster(2, 2);
  const TreeConfig tree{2, 2, false};
  ExecutorConfig config{.machines = 2, .gpus_per_machine = 2, .compressor = fp16.get()};

  Strategy strategy;
  strategy.options = {DefaultUncompressedOption(tree),
                      InterOnlyIndivisibleOption(cluster, Device::kGpu),
                      InterOnlyDivisibleOption(cluster, Device::kCpu)};
  std::vector<RankBuffers> gradients;
  std::vector<std::vector<float>> expected;
  for (size_t t = 0; t < 3; ++t) {
    gradients.push_back(RandomBuffers(4, 30 + 7 * t, 9 + t));
    expected.push_back(NaiveSum(gradients.back()));
  }
  ExecuteStrategy(strategy, config, gradients);
  for (size_t t = 0; t < 3; ++t) {
    ExpectAllRanksEqual(gradients[t]);
    ExpectNearNaiveSum(gradients[t], expected[t], 0.05f);
  }
}

// The whole executor pipeline must not depend on the dispatched ISA: scalar-forced and
// best-table runs of the same strategy, with error feedback carried across steps, agree
// bit for bit for every compressor over the candidate and baseline options.
TEST(StrategyExecutor, StrategyExecutionIsIsaIndependent) {
  const std::vector<CompressorConfig> compressors = {
      {.algorithm = "randomk", .ratio = 0.25}, {.algorithm = "topk", .ratio = 0.25},
      {.algorithm = "efsignsgd"},              {.algorithm = "qsgd", .bits = 4},
      {.algorithm = "terngrad"},               {.algorithm = "fp16"},
      {.algorithm = "threshold", .threshold = 0.2}};
  const ClusterSpec cluster = NvlinkCluster(2, 2);
  std::vector<CompressionOption> options = CandidateOptions(TreeConfig{2, 2, false});
  options.push_back(InterOnlyIndivisibleOption(cluster, Device::kGpu));
  options.push_back(InterOnlyDivisibleOption(cluster, Device::kGpu));
  options.push_back(AlltoallAlltoallOption(cluster, Device::kGpu));
  // Odd and vector-multiple lengths, so both the SIMD bodies and the scalar tails run.
  const size_t sizes[] = {17, 96, 4096, 5000, 64};
  const size_t ranks = 4;
  const kernels::KernelOps* best = kernels::SupportedOps().back();
  for (const CompressorConfig& cc : compressors) {
    const auto compressor = CreateCompressor(cc);
    Strategy strategy;
    for (size_t t = 0; t < std::size(sizes); ++t) {
      strategy.options.push_back(options[(t * 3) % options.size()]);
    }
    std::vector<ErrorFeedback> feedback_scalar(ranks);
    std::vector<ErrorFeedback> feedback_simd(ranks);
    ExecutorWorkspace ws_scalar;
    ExecutorWorkspace ws_simd;
    for (uint64_t step = 0; step < 2; ++step) {
      std::vector<RankBuffers> scalar;
      for (size_t t = 0; t < std::size(sizes); ++t) {
        scalar.push_back(RandomBuffers(ranks, sizes[t], DeriveSeed(707 * (step + 1), t)));
      }
      std::vector<RankBuffers> simd = scalar;
      ExecutorConfig config{.machines = 2, .gpus_per_machine = 2,
                            .compressor = compressor.get(), .seed = step};
      kernels::SetActiveForTesting(&kernels::Scalar());
      config.feedback = &feedback_scalar;
      ExecuteStrategy(strategy, config, scalar, &ws_scalar);
      kernels::SetActiveForTesting(best);
      config.feedback = &feedback_simd;
      ExecuteStrategy(strategy, config, simd, &ws_simd);
      kernels::SetActiveForTesting(nullptr);
      for (size_t t = 0; t < scalar.size(); ++t) {
        for (size_t r = 0; r < ranks; ++r) {
          ASSERT_EQ(std::memcmp(scalar[t][r].data(), simd[t][r].data(),
                                scalar[t][r].size() * sizeof(float)), 0)
              << cc.algorithm << " step " << step << " tensor " << t << " rank " << r;
        }
      }
    }
  }
}

// Forwards to `inner`, counting DecompressAdd calls and recording where each
// Compress input lives.
class CountingCompressor final : public Compressor {
 public:
  explicit CountingCompressor(const Compressor& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  size_t CompressedBytes(size_t elements) const override {
    return inner_.CompressedBytes(elements);
  }
  void Compress(std::span<const float> input, uint64_t seed,
                CompressedTensor* out) const override {
    compress_inputs.push_back(input.data());
    inner_.Compress(input, seed, out);
  }
  void DecompressAdd(const CompressedTensor& in, std::span<float> out) const override {
    ++decompress_calls;
    inner_.DecompressAdd(in, out);
  }

  mutable size_t decompress_calls = 0;
  mutable std::vector<const float*> compress_inputs;

 private:
  const Compressor& inner_;
};

CompressionOption OptionLabeled(const TreeConfig& tree, const std::string& label) {
  for (const std::vector<CompressionOption>& options :
       {CandidateOptions(tree), EnumerateOptions(tree).options}) {
    for (const CompressionOption& option : options) {
      if (option.label == label) {
        return option;
      }
    }
  }
  ADD_FAILURE() << "no option " << label;
  return {};
}

// After a compressed allgather every rank holds a copy of the same payload set, so the
// Decompress op decodes it once (8 payloads) and the other 7 ranks copy the result.
// Each rank still ends with exactly the floats decoding all 8 payloads itself gives.
TEST(StrategyExecutor, ReplicatedPayloadSetIsDecodedOnce) {
  const auto efsignsgd = CreateCompressor(CompressorConfig{.algorithm = "efsignsgd"});
  const CountingCompressor counting(*efsignsgd);
  const ExecutorConfig config{.machines = 2, .gpus_per_machine = 4,
                              .compressor = &counting};
  const CompressionOption option =
      OptionLabeled(TreeConfig{config.machines, config.gpus_per_machine, false},
                    "flat[comp+agc+dec]");
  ASSERT_FALSE(option.ops.empty());
  const size_t n = 1001;
  RankBuffers buffers = RandomBuffers(config.ranks(), n, 12);

  // Reference: each rank decodes the whole gathered set, in rank order.
  std::vector<float> expected(n, 0.0f);
  for (const std::vector<float>& rank : buffers) {
    CompressedTensor payload;
    efsignsgd->Compress(rank, config.seed, &payload);
    efsignsgd->DecompressAdd(payload, expected);
  }

  ExecuteOption(option, config, 0, buffers);
  EXPECT_EQ(counting.decompress_calls, config.ranks());
  for (size_t r = 0; r < buffers.size(); ++r) {
    ASSERT_EQ(buffers[r].size(), n);
    EXPECT_EQ(std::memcmp(buffers[r].data(), expected.data(), n * sizeof(float)), 0)
        << "rank " << r;
  }
}

// The executor runs in the caller's buffers: each rank's range is compressed where the
// caller's vector holds it, and every vector comes back with the allocation it went in
// with, reduce-scatter stages included.
TEST(StrategyExecutor, RunsInTheCallersBuffers) {
  const auto fp16 = CreateCompressor(CompressorConfig{.algorithm = "fp16"});
  const CountingCompressor counting(*fp16);
  const ExecutorConfig config{.machines = 2, .gpus_per_machine = 4,
                              .compressor = &counting};
  const TreeConfig tree{config.machines, config.gpus_per_machine, false};
  ExecutorWorkspace workspace;
  for (const CompressionOption& option :
       {OptionLabeled(tree, "flat[comp+agc+dec]"), DefaultUncompressedOption(tree),
        OptionLabeled(tree, "hier[rs|comp+agc+dec|ag]")}) {
    ASSERT_FALSE(option.ops.empty());
    for (int step = 0; step < 2; ++step) {
      RankBuffers buffers = RandomBuffers(config.ranks(), 515, 13 + step);
      std::vector<const float*> before;
      for (const std::vector<float>& b : buffers) {
        before.push_back(b.data());
      }
      counting.compress_inputs.clear();
      ExecuteOption(option, config, 0, buffers, &workspace);
      ExpectAllRanksEqual(buffers);
      for (size_t r = 0; r < buffers.size(); ++r) {
        EXPECT_EQ(buffers[r].data(), before[r]) << option.label << " rank " << r;
      }
      EXPECT_EQ(counting.compress_inputs.size(), option.Compressed() ? config.ranks() : 0u);
      for (const float* input : counting.compress_inputs) {
        EXPECT_NE(std::find(before.begin(), before.end(), input), before.end())
            << option.label << ": compressed a copy, not the caller's buffer";
      }
    }
  }
}

TEST(StrategyExecutorDeathTest, CompressedOptionWithoutCompressorDies) {
  const ClusterSpec cluster = NvlinkCluster(2, 2);
  ExecutorConfig config{.machines = 2, .gpus_per_machine = 2};
  RankBuffers buffers = RandomBuffers(4, 16, 10);
  EXPECT_DEATH(
      ExecuteOption(InterOnlyIndivisibleOption(cluster, Device::kGpu), config, 0, buffers),
      "compressor");
}

}  // namespace
}  // namespace espresso
