// The resilience policy layer end to end: dropped payloads folded into error feedback,
// retry + FP32 fallback in the executor, online re-selection under link drift, and
// convergence under sustained payload loss.
#include <gtest/gtest.h>

#include "src/collectives/primitives.h"
#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/fault/drift_monitor.h"
#include "src/fault/resilient_executor.h"
#include "src/models/model_zoo.h"
#include "src/nn/parallel_trainer.h"

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

FaultPlan DataPathPlan(double drop, double corrupt, uint64_t seed = 9) {
  FaultSpec spec;
  spec.seed = seed;
  spec.drop_probability = drop;
  spec.corrupt_probability = corrupt;
  return FaultPlan(spec);
}

TEST(Schemes, DroppedPayloadIsExcludedFromAllReplicasConsistently) {
  const size_t ranks = 4, n = 48;
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.25});
  RankBuffers buffers = RandomBuffers(ranks, n, 5);
  std::vector<ErrorFeedback> feedback(ranks);
  const ExecutorConfig config{.machines = 1, .gpus_per_machine = ranks,
                              .compressor = compressor.get(), .feedback = &feedback,
                              .seed = 11, .faults = DataPathPlan(0.5, 0.0).PayloadFaultsAt(0)};
  const ChannelTally tally = ExecuteOption(
      SyncOption(SyncScheme::kCompressedIndivisible, ranks, compressor.get()), config, 0,
      buffers);
  EXPECT_GT(tally.payloads_dropped, 0u);
  // Synchronous replicas stay bit-identical even when payloads vanish.
  for (size_t r = 1; r < ranks; ++r) {
    EXPECT_EQ(buffers[r], buffers[0]) << "rank " << r;
  }
}

TEST(Schemes, ErrorFeedbackAbsorbsDroppedPayload) {
  // With a network that drops every payload and EF on, the aggregation excludes
  // everything but the residual must carry the whole corrected gradient forward.
  const size_t ranks = 2, n = 32;
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.5});

  RankBuffers buffers = RandomBuffers(ranks, n, 6);
  const RankBuffers original = buffers;
  std::vector<ErrorFeedback> feedback(ranks);
  const ExecutorConfig config{.machines = 1, .gpus_per_machine = ranks,
                              .compressor = compressor.get(), .feedback = &feedback,
                              .seed = 3, .faults = DataPathPlan(1.0, 0.0).PayloadFaultsAt(0)};
  const ChannelTally tally = ExecuteOption(
      SyncOption(SyncScheme::kCompressedIndivisible, ranks, compressor.get()), config, 0,
      buffers);
  EXPECT_EQ(tally.payloads_dropped, ranks);
  for (size_t r = 0; r < ranks; ++r) {
    // Every payload was dropped, so every rank aggregates nothing.
    EXPECT_EQ(buffers[r], std::vector<float>(n, 0.0f)) << "rank " << r;
    // Tensor 0's whole-range residual (key 0 * 1315423911 + offset 0).
    const auto residual = feedback[r].residual(0);
    ASSERT_EQ(residual.size(), n);
    // residual = (g + 0) - decompressed + decompressed = g: nothing was lost.
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(residual[i], original[r][i], 1e-5) << "rank " << r << " idx " << i;
    }
  }
}

// The divisible scheme sends each rank's parts to their aggregators across the lossy
// network, except the part a rank aggregates itself. Dropped parts are excluded on
// every rank, in both the decompress-aggregate path (fp16) and the compressed-domain
// path (shared-seed Random-k).
TEST(Schemes, DivisibleDropsKeepReplicasIdenticalAndOwnPartsLocal) {
  const size_t ranks = 4, n = 64;
  const uint64_t seed = 5;
  for (const char* algorithm : {"fp16", "randomk"}) {
    const auto compressor =
        CreateCompressor(CompressorConfig{.algorithm = algorithm, .ratio = 0.25});
    const CompressionOption option =
        SyncOption(SyncScheme::kCompressedDivisible, ranks, compressor.get());
    auto run = [&](const FaultPlan& plan, RankBuffers& buffers) {
      std::vector<ErrorFeedback> feedback(ranks);
      const ExecutorConfig config{.machines = 1, .gpus_per_machine = ranks,
                                  .compressor = compressor.get(), .feedback = &feedback,
                                  .seed = seed, .faults = plan.PayloadFaultsAt(0)};
      return ExecuteOption(option, config, 0, buffers);
    };

    RankBuffers buffers = RandomBuffers(ranks, n, 7);
    const ChannelTally tally = run(DataPathPlan(0.3, 0.1), buffers);
    EXPECT_EQ(tally.payloads_sent, ranks * (ranks - 1)) << algorithm;
    EXPECT_GT(tally.payloads_dropped, 0u) << algorithm;
    for (size_t r = 1; r < ranks; ++r) {
      EXPECT_EQ(buffers[r], buffers[0]) << algorithm << " rank " << r;
    }

    // Every transmission dropped: part j holds only its aggregator's own part,
    // compressed once and decoded.
    buffers = RandomBuffers(ranks, n, 8);
    const RankBuffers original = buffers;
    EXPECT_EQ(run(DataPathPlan(1.0, 0.0), buffers).payloads_dropped, ranks * (ranks - 1))
        << algorithm;
    const Partition part(n, ranks);
    std::vector<float> expected(n, 0.0f);
    for (size_t j = 0; j < ranks; ++j) {
      CompressedTensor payload;
      const std::span<const float> own(original[j]);
      compressor->Compress(own.subspan(part.Offset(j), part.Length(j)), seed, &payload);
      compressor->DecompressAdd(
          payload, std::span<float>(expected).subspan(part.Offset(j), part.Length(j)));
    }
    for (size_t r = 0; r < ranks; ++r) {
      EXPECT_EQ(buffers[r], expected) << algorithm << " rank " << r;
    }
  }
}

TEST(ResilientExecutor, FallsBackToFp32WhenRetriesExhausted) {
  FaultSpec spec;
  spec.seed = 2;
  spec.collective_failure_probability = 1.0;  // every phase attempt fails
  const FaultPlan plan(spec);
  RetryPolicy policy;
  policy.max_attempts = 3;

  const ExecutorConfig config{.machines = 2, .gpus_per_machine = 2};
  const TreeConfig tree{2, 2, false};
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.1});
  ExecutorConfig comp_config = config;
  comp_config.compressor = compressor.get();

  RankBuffers buffers = RandomBuffers(config.ranks(), 40, 8);
  const std::vector<float> expected = NaiveSum(buffers);
  ResilienceReport report;
  ResilientExecuteOption(DefaultUncompressedOption(tree), comp_config, 0, buffers,
                         plan, policy, 0, &report);
  EXPECT_EQ(report.fallbacks, 1u);
  EXPECT_EQ(report.total_retries, policy.max_attempts - 1);
  // The degraded path is exact FP32 aggregation, summed 0 + g0 + g1 + ... in rank
  // order like NaiveSum, so it matches bit for bit.
  for (size_t r = 0; r < buffers.size(); ++r) {
    EXPECT_EQ(buffers[r], expected) << "rank " << r;
  }
}

TEST(ResilientExecutor, CleanPathMatchesPlainExecutor) {
  const FaultPlan plan{FaultSpec{}};  // quiet plan
  const ExecutorConfig config{.machines = 2, .gpus_per_machine = 2};
  const TreeConfig tree{2, 2, false};

  RankBuffers resilient = RandomBuffers(config.ranks(), 33, 4);
  RankBuffers plain = resilient;
  ResilienceReport report;
  ResilientExecuteOption(DefaultUncompressedOption(tree), config, 0, resilient, plan,
                         RetryPolicy{}, 0, &report);
  ExecuteOption(DefaultUncompressedOption(tree), config, 0, plain);
  EXPECT_EQ(report.clean, 1u);
  EXPECT_EQ(report.fallbacks, 0u);
  for (size_t r = 0; r < plain.size(); ++r) {
    EXPECT_EQ(resilient[r], plain[r]);
  }
}

TEST(ResilientExecutor, StrategyReportAccountsEveryTensor) {
  FaultSpec spec;
  spec.seed = 3;
  spec.collective_failure_probability = 0.4;
  const FaultPlan plan(spec);
  const ExecutorConfig config{.machines = 2, .gpus_per_machine = 2};
  const TreeConfig tree{2, 2, false};

  const size_t tensors = 12;
  const Strategy strategy = UniformStrategy(tensors, DefaultUncompressedOption(tree));
  std::vector<RankBuffers> gradients;
  for (size_t t = 0; t < tensors; ++t) {
    gradients.push_back(RandomBuffers(config.ranks(), 16, t));
  }
  const ResilienceReport report =
      ResilientExecuteStrategy(strategy, config, gradients, plan, RetryPolicy{}, 1);
  EXPECT_EQ(report.tensors, tensors);
  EXPECT_EQ(report.clean + report.retried + report.fallbacks, tensors);
  EXPECT_EQ(report.events.size(), report.total_retries + report.fallbacks);
}

TEST(DriftMonitor, QuietClusterNeverTriggers) {
  const ClusterSpec profiled = NvlinkCluster(2, 2);
  DriftMonitor monitor(DriftConfig{}, profiled);
  for (uint64_t it = 0; it < 50; ++it) {
    EXPECT_FALSE(monitor.Observe(it, profiled));
  }
  EXPECT_DOUBLE_EQ(monitor.drift(), 0.0);
}

TEST(DriftMonitor, SustainedDegradationCrossesThresholdAfterSmoothing) {
  const ClusterSpec profiled = NvlinkCluster(2, 2);
  const ClusterSpec degraded = [&]() {
    ClusterSpec c = profiled;
    c.inter = c.inter.Degraded(0.25);
    return c;
  }();
  DriftConfig config;
  config.threshold = 0.25;
  config.smoothing = 0.5;
  DriftMonitor monitor(config, profiled);
  // One observation moves the EWMA halfway: |0.5*0.25 + 0.5 - 1| = 0.375 > 0.25.
  EXPECT_TRUE(monitor.Observe(0, degraded));
  EXPECT_GT(monitor.drift(), config.threshold);
  const ClusterSpec smoothed = monitor.SmoothedCluster();
  EXPECT_LT(smoothed.inter.bytes_per_second, profiled.inter.bytes_per_second);
  EXPECT_GT(smoothed.inter.bytes_per_second, degraded.inter.bytes_per_second);
}

TEST(DriftMonitor, CooldownSuppressesBackToBackTriggers) {
  const ClusterSpec profiled = NvlinkCluster(2, 2);
  ClusterSpec degraded = profiled;
  degraded.inter = degraded.inter.Degraded(0.25);
  DriftConfig config;
  config.cooldown_iterations = 10;
  DriftMonitor monitor(config, profiled);
  EXPECT_TRUE(monitor.Observe(0, degraded));
  monitor.AcknowledgeReselection(0);
  for (uint64_t it = 1; it < 10; ++it) {
    EXPECT_FALSE(monitor.Observe(it, degraded)) << it;
  }
  EXPECT_TRUE(monitor.Observe(10, degraded));
}

TEST(OnlineReselector, InterLinkDegradationSwitchesAtLeastOneOption) {
  // The acceptance scenario: the inter-machine link degrades 4x; the re-selected
  // strategy must differ (compression gets more attractive on a slower network).
  const ModelProfile model = Vgg16();
  const ClusterSpec profiled = NvlinkCluster(4, 4);
  const CompressorConfig gc{.algorithm = "dgc", .ratio = 0.01};
  const auto compressor = CreateCompressor(gc);
  DriftConfig drift;
  drift.threshold = 0.25;
  drift.smoothing = 1.0;  // no smoothing lag in the test
  OnlineReselector reselector(model, profiled, *compressor, gc, SelectorOptions{}, drift);
  const Strategy before = reselector.strategy();

  ClusterSpec observed = profiled;
  observed.inter = observed.inter.Degraded(0.25);
  const auto event = reselector.Step(0, observed);
  ASSERT_TRUE(event.has_value());
  EXPECT_GT(event->options_changed, 0u);
  EXPECT_GT(event->drift, drift.threshold);
  // The swapped-in strategy beats the stale one under the drifted cost model.
  EXPECT_LE(event->new_iteration_time, event->stale_iteration_time + 1e-12);
  EXPECT_EQ(reselector.strategy().options.size(), before.options.size());
}

TEST(Convergence, AccuracySurvivesFivePercentPayloadDrops) {
  // With EF on and a lossy network dropping ~5% of payloads,
  // final accuracy stays within a whisker of the fault-free run.
  const Dataset all = MakeGaussianBlobs(1536, 12, 4, 2.5, 99);
  const Dataset train = Slice(all, 0, 1024);
  const Dataset test = Slice(all, 1024, 512);
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "dgc", .ratio = 0.05});

  TrainConfig config;
  config.workers = 4;
  config.hidden_dim = 24;
  config.batch_per_worker = 16;
  config.learning_rate = 0.05;
  config.epochs = 20;
  config.seed = 1234;
  config.scheme = SyncScheme::kCompressedIndivisible;
  config.compressor = compressor.get();
  const auto fault_free = TrainDataParallel(train, test, config);

  TrainConfig lossy = config;
  lossy.faults = DataPathPlan(0.05, 0.0, 2024).PayloadFaultsAt(0);
  const auto with_drops = TrainDataParallel(train, test, lossy);

  size_t total_dropped = 0;
  for (const auto& epoch : with_drops) total_dropped += epoch.payloads_dropped;
  EXPECT_GT(total_dropped, 0u);
  EXPECT_NEAR(with_drops.back().test_accuracy, fault_free.back().test_accuracy, 0.01);
}

// Satellite: the executor rejects malformed setups with clear fatal messages.
TEST(ExecutorValidation, RejectsWrongBufferCount) {
  const ExecutorConfig config{.machines = 2, .gpus_per_machine = 2};
  const TreeConfig tree{2, 2, false};
  RankBuffers buffers = RandomBuffers(3, 8, 1);  // 3 != 4 ranks
  EXPECT_DEATH(ExecuteOption(DefaultUncompressedOption(tree), config, 0, buffers),
               "rank");
}

TEST(ExecutorValidation, RejectsZeroTopology) {
  const ExecutorConfig config{.machines = 0, .gpus_per_machine = 2};
  const TreeConfig tree{2, 2, false};
  RankBuffers buffers = RandomBuffers(4, 8, 1);
  EXPECT_DEATH(ExecuteOption(DefaultUncompressedOption(tree), config, 0, buffers), "");
}

TEST(ExecutorValidation, RejectsStrategyGradientMismatch) {
  const ExecutorConfig config{.machines = 2, .gpus_per_machine = 2};
  const TreeConfig tree{2, 2, false};
  const Strategy strategy = UniformStrategy(3, DefaultUncompressedOption(tree));
  std::vector<RankBuffers> gradients(2, RandomBuffers(config.ranks(), 8, 1));
  EXPECT_DEATH(ExecuteStrategy(strategy, config, gradients), "");
}

}  // namespace
}  // namespace espresso
