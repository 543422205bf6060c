// Routine-level properties of the strategy executor, the one implementation of every
// collective: each flat routine pair aggregates exactly
// like NaiveSum over a sweep of rank counts and sizes (sizes below the rank count leave
// some ranks an empty shard), the hierarchical pipeline equals a global allreduce on
// every topology, the compressed rooted and inter-machine divisible schemes aggregate
// correctly, and every routine hands each caller buffer back in its own allocation.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/collectives/primitives.h"
#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/ddl/strategy_executor.h"
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

// The enumerated flat option `label` for `ranks` GPUs on one machine (empty if absent).
CompressionOption FlatOption(size_t ranks, const std::string& label) {
  for (CompressionOption& option : EnumerateOptions(TreeConfig{1, ranks, false}).options) {
    if (option.label == label) {
      return option;
    }
  }
  ADD_FAILURE() << "no option " << label << " for " << ranks << " ranks";
  return {};
}

// Each element is summed 0 + b0 + b1 + ... in rank order, as NaiveSum sums it, so the
// flat uncompressed routines must match it bit for bit on every rank.
void ExpectFlatRoutineEqualsNaiveSum(const std::string& label, size_t ranks, size_t n,
                                     uint64_t seed) {
  const CompressionOption option = FlatOption(ranks, label);
  ASSERT_FALSE(option.ops.empty());
  RankBuffers buffers = RandomBuffers(ranks, n, seed);
  const std::vector<float> expected = NaiveSum(buffers);
  ExecuteOption(option, ExecutorConfig{.machines = 1, .gpus_per_machine = ranks}, 0,
                buffers);
  for (size_t r = 0; r < ranks; ++r) {
    EXPECT_EQ(buffers[r], expected) << label << " rank " << r;
  }
}

class PrimitivesParam : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t ranks() const { return std::get<0>(GetParam()); }
  size_t n() const { return std::get<1>(GetParam()); }
};

TEST_P(PrimitivesParam, AllReduceMatchesNaiveSum) {
  ExpectFlatRoutineEqualsNaiveSum("flat[ar]", ranks(), n(), 1);
}

TEST_P(PrimitivesParam, ReduceScatterThenAllGatherEqualsAllReduce) {
  ExpectFlatRoutineEqualsNaiveSum("flat[rs+ag]", ranks(), n(), 2);
}

TEST_P(PrimitivesParam, ReduceThenBroadcastEqualsAllReduce) {
  ExpectFlatRoutineEqualsNaiveSum("flat[red+bc]", ranks(), n(), 3);
}

INSTANTIATE_TEST_SUITE_P(RanksAndSizes, PrimitivesParam,
                         ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                                              size_t{4}, size_t{8}, size_t{16}),
                                            ::testing::Values(size_t{1}, size_t{5}, size_t{64},
                                                              size_t{257})),
                         [](const auto& info) {
                           return "r" + std::to_string(std::get<0>(info.param)) + "_n" +
                                  std::to_string(std::get<1>(info.param));
                         });

class HierarchicalParam
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {
 protected:
  size_t machines() const { return std::get<0>(GetParam()); }
  size_t gpus() const { return std::get<1>(GetParam()); }
  size_t n() const { return std::get<2>(GetParam()); }
};

// The default uncompressed option: intra reduce-scatter, inter allreduce, intra
// allgather (flat allreduce when the cluster has one communication level).
TEST_P(HierarchicalParam, UncompressedEqualsGlobalAllreduce) {
  const ExecutorConfig config{.machines = machines(), .gpus_per_machine = gpus()};
  RankBuffers buffers = RandomBuffers(config.ranks(), n(), 1);
  const std::vector<float> expected = NaiveSum(buffers);
  ExecuteOption(DefaultUncompressedOption(TreeConfig{machines(), gpus(), false}), config, 0,
                buffers);
  for (size_t r = 0; r < buffers.size(); ++r) {
    for (size_t i = 0; i < n(); ++i) {
      EXPECT_NEAR(buffers[r][i], expected[i], 1e-3f) << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, HierarchicalParam,
                         ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4}),
                                            ::testing::Values(size_t{1}, size_t{2}, size_t{4}),
                                            ::testing::Values(size_t{16}, size_t{129})),
                         [](const auto& info) {
                           return "m" + std::to_string(std::get<0>(info.param)) + "_g" +
                                  std::to_string(std::get<1>(info.param)) + "_n" +
                                  std::to_string(std::get<2>(info.param));
                         });

// Inter-machine divisible compression (alltoall, aggregate, allgather) under a lossy
// compressor still leaves every replica bit-identical.
TEST(Hierarchical, CompressedDivisibleInterAllRanksIdentical) {
  const auto topk = CreateCompressor(CompressorConfig{.algorithm = "topk", .ratio = 0.2});
  const ExecutorConfig config{.machines = 4, .gpus_per_machine = 2,
                              .compressor = topk.get()};
  RankBuffers buffers = RandomBuffers(config.ranks(), 100, 3);
  ExecuteOption(InterOnlyDivisibleOption(NvlinkCluster(4, 2), Device::kGpu), config, 0,
                buffers);
  for (size_t r = 1; r < buffers.size(); ++r) {
    EXPECT_EQ(buffers[r], buffers[0]) << "rank " << r;
  }
}

// Figure 4's divisible scheme rooted at rank 0: gather the compressed tensors, aggregate
// and re-compress on the root, broadcast the result.
TEST(Schemes, DivisibleGatherMatchesAllreduceUnderFp16) {
  const auto fp16 = CreateCompressor(CompressorConfig{.algorithm = "fp16"});
  const CompressionOption option = FlatOption(3, "flat[comp+gc|dec+comp+bcc+dec]");
  ASSERT_FALSE(option.ops.empty());
  RankBuffers buffers = RandomBuffers(3, 64, 3);
  const std::vector<float> expected = NaiveSum(buffers);
  ExecuteOption(option,
                ExecutorConfig{.machines = 1, .gpus_per_machine = 3, .compressor = fp16.get()},
                0, buffers);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t i = 0; i < 64; ++i) {
      EXPECT_NEAR(buffers[r][i], expected[i], 0.02f);
    }
  }
}

std::vector<const float*> DataPointers(const RankBuffers& buffers) {
  std::vector<const float*> ptrs;
  for (const auto& b : buffers) {
    ptrs.push_back(b.data());
  }
  return ptrs;
}

// Executes the flat option `label` on a copy of `initial` and checks that every rank
// got back the allocation it passed in. Returns the aggregated buffers.
RankBuffers ExecuteInCallerBuffers(const std::string& label, const RankBuffers& initial,
                                   ExecutorWorkspace* workspace) {
  const CompressionOption option = FlatOption(initial.size(), label);
  if (option.ops.empty()) {
    return {};  // FlatOption recorded the failure
  }
  RankBuffers buffers = initial;
  const std::vector<const float*> before = DataPointers(buffers);
  ExecuteOption(option, ExecutorConfig{.machines = 1, .gpus_per_machine = initial.size()},
                0, buffers, workspace);
  EXPECT_EQ(DataPointers(buffers), before) << label;
  return buffers;
}

// A cold and a warm run through one workspace both keep the caller's storage and agree
// bit for bit.
void ExpectKeepsCallerStorage(const std::string& label, size_t ranks, size_t n,
                              uint64_t seed) {
  const RankBuffers initial = RandomBuffers(ranks, n, seed);
  ExecutorWorkspace workspace;
  const RankBuffers cold = ExecuteInCallerBuffers(label, initial, &workspace);
  const RankBuffers warm = ExecuteInCallerBuffers(label, initial, &workspace);
  EXPECT_EQ(warm, cold) << label;
}

TEST(CapacityReuse, AllReduceKeepsCallerBuffersAndResult) {
  ExpectKeepsCallerStorage("flat[ar]", 4, 97, 5);
}

TEST(CapacityReuse, AllGatherKeepsDestinationStorage) {
  ExpectKeepsCallerStorage("flat[rs+ag]", 4, 101, 1);
}

// Fewer elements than ranks: the reduce-scatter leaves the last rank an empty shard,
// and its buffer must still come back in the same allocation.
TEST(CapacityReuse, ReduceScatterKeepsShardStorage) {
  ExpectKeepsCallerStorage("flat[rs+ag]", 4, 3, 4);
}

TEST(CapacityReuse, ReduceAndBroadcastKeepDestinations) {
  ExpectKeepsCallerStorage("flat[red+bc]", 4, 64, 6);
}

// A workspace warmed by a larger tensor serves a smaller one in the caller's buffers.
TEST(CapacityReuse, AllGatherShrinkingShapeKeepsStorage) {
  ExecutorWorkspace workspace;
  ExecuteInCallerBuffers("flat[rs+ag]", RandomBuffers(4, 200, 2), &workspace);
  const RankBuffers small_initial = RandomBuffers(4, 80, 3);
  const RankBuffers small = ExecuteInCallerBuffers("flat[rs+ag]", small_initial, &workspace);
  ASSERT_EQ(small.size(), 4u);
  for (const auto& b : small) {
    EXPECT_EQ(b, NaiveSum(small_initial));
  }
}

}  // namespace
}  // namespace espresso
