// Pins the strategy executor's output on 8 x 8 ranks, at tensor sizes on both sides of
// the fan-out grain. ExecuteOption fans its ops out on the process pool when an op
// touches enough floats; every element is still summed in group order and every
// rank's compression, error feedback and decode stay its own, so the output must not
// depend on the pool's width. The constants below are the serial executor's output:
// CI runs this suite under `taskset -c 0`, `taskset -c 0-1` and on the whole host, and
// each width must reproduce them bit for bit. Re-pin only for an intended change of
// the executor's arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/ddl/strategy_executor.h"
#include "src/fault/chaos_channel.h"
#include "src/util/rng.h"

namespace espresso {
namespace {

constexpr size_t kMachines = 8;
constexpr size_t kGpus = 8;
constexpr size_t kRanks = kMachines * kGpus;
// Elements per rank: 200 x 64 ranks stays under the executor's 2^15-float grain, so
// every op runs inline; 4096 and 20011 are over it, and 20011 divides by neither 8
// nor 64, so shards, alltoall parts and the last 4096-float sum block are ragged.
constexpr size_t kSizes[] = {200, 4096, 20011};
constexpr int kSteps = 2;

// Every pruned candidate of the 8 x 8 tree plus the three named baselines.
std::vector<CompressionOption> Options(bool compressed_aggregation) {
  const ClusterSpec cluster = NvlinkCluster(kMachines, kGpus);
  std::vector<CompressionOption> options =
      CandidateOptions(TreeConfig{kMachines, kGpus, compressed_aggregation});
  options.push_back(InterOnlyIndivisibleOption(cluster, Device::kGpu));
  options.push_back(InterOnlyDivisibleOption(cluster, Device::kGpu));
  options.push_back(AlltoallAlltoallOption(cluster, Device::kGpu));
  return options;
}

// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void Mix(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Mix(const RankBuffers& buffers) {
    for (const std::vector<float>& rank : buffers) {
      Mix(rank.size());
      for (const float value : rank) {
        Mix(std::bit_cast<uint32_t>(value));
      }
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Runs kSteps steps of every option at every size through one workspace, with one
// error-feedback store per rank and size (tensor id = option index; every option of a
// step starts from the same gradients), and hashes every rank's output and every
// execution's channel tally.
uint64_t RunMatrix(const CompressorConfig& compressor_config, double momentum,
                   PayloadChannel* channel = nullptr) {
  const auto compressor = CreateCompressor(compressor_config);
  const std::vector<CompressionOption> options =
      Options(compressor->SupportsCompressedAggregation());
  ExecutorWorkspace workspace;
  Fingerprint fingerprint;
  for (const size_t n : kSizes) {
    std::vector<ErrorFeedback> feedback(kRanks, ErrorFeedback(momentum));
    ExecutorConfig config{.machines = kMachines, .gpus_per_machine = kGpus,
                          .compressor = compressor.get(), .feedback = &feedback,
                          .channel = channel};
    for (int step = 0; step < kSteps; ++step) {
      config.seed = static_cast<uint64_t>(step);
      if (channel != nullptr) {
        channel->BeginIteration(static_cast<uint64_t>(step));
      }
      RankBuffers gradients(kRanks, std::vector<float>(n));
      for (size_t r = 0; r < kRanks; ++r) {
        Rng rng(DeriveSeed(n * kSteps + static_cast<uint64_t>(step), r));
        rng.FillNormal(gradients[r], 0.0, 1.0);
      }
      for (size_t o = 0; o < options.size(); ++o) {
        RankBuffers buffers = gradients;
        const ChannelTally tally = ExecuteOption(options[o], config, o, buffers, &workspace);
        fingerprint.Mix(buffers);
        fingerprint.Mix(tally.payloads_dropped);
        fingerprint.Mix(tally.payloads_corrupted);
      }
    }
  }
  return fingerprint.value();
}

TEST(ExecutorFanout, Fp16) {
  EXPECT_EQ(RunMatrix({.algorithm = "fp16"}, 0.0), 0xebbe0885f0129825ULL);
}

TEST(ExecutorFanout, TopkWithMomentumErrorFeedback) {
  EXPECT_EQ(RunMatrix({.algorithm = "topk", .ratio = 0.05}, 0.9), 0x42ac3eebf5f1da25ULL);
}

// Every rank draws the same indices from the shared seed, so the tree's skip options
// aggregate the payloads in the compressed domain.
TEST(ExecutorFanout, SharedSeedRandomkWithCompressedAggregation) {
  EXPECT_EQ(RunMatrix({.algorithm = "randomk", .ratio = 0.05}, 0.0), 0xee4c28479574eaa5ULL);
}

TEST(ExecutorFanout, EfSignSgd) {
  EXPECT_EQ(RunMatrix({.algorithm = "efsignsgd"}, 0.0), 0xa35e777724b4b025ULL);
}

// The channel sees every first-site payload on the caller, in member order, whatever
// the width: its verdicts, the tallies and the error-feedback refunds of dropped
// payloads are pinned with the outputs.
TEST(ExecutorFanout, TopkThroughChaosChannel) {
  FaultSpec spec;
  spec.drop_probability = 0.2;
  spec.corrupt_probability = 0.2;
  const FaultInjector injector{FaultPlan(spec)};
  ChaosChannel channel(&injector);
  EXPECT_EQ(RunMatrix({.algorithm = "topk", .ratio = 0.05}, 0.0, &channel), 0xb162e7830565068dULL);
  const ChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.transmissions, 38784u);
  EXPECT_EQ(stats.delivered, 23532u);
  EXPECT_EQ(stats.dropped, 7902u);
  EXPECT_EQ(stats.corrupted, 7350u);
}

}  // namespace
}  // namespace espresso
