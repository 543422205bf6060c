#include "src/core/timeline.h"

#include <gtest/gtest.h>

#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/models/model_zoo.h"

namespace espresso {
namespace {

// A Figure-2 style toy: three tensors, sized so interactions are easy to reason about.
ModelProfile ToyModel(double t0 = 10e-3, double t1 = 10e-3, double t2 = 10e-3) {
  ModelProfile m;
  m.name = "toy";
  m.forward_time_s = 5e-3;
  m.optimizer_time_s = 1e-3;
  m.batch_size = 1;
  m.throughput_unit = "it/s";
  m.tensors = {
      {"T0", 4 << 20, t0},  // 16 MB each
      {"T1", 4 << 20, t1},
      {"T2", 4 << 20, t2},
  };
  return m;
}

std::unique_ptr<Compressor> Dgc() {
  return CreateCompressor(CompressorConfig{.algorithm = "dgc", .ratio = 0.01});
}

TEST(Timeline, IterationAtLeastComputePlusConstants) {
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const Strategy fp32 = Fp32Strategy(model, cluster);
  const double t = evaluator.IterationTime(fp32);
  EXPECT_GE(t, model.SingleGpuIterationTime());
}

TEST(Timeline, IterationAtLeastCommunicationLowerBound) {
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = PcieCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const Strategy fp32 = Fp32Strategy(model, cluster);
  // Sum of every tensor's inter-phase op durations is a serial lower bound for the
  // inter link; the iteration can't beat it plus forward/optimizer.
  double inter = 0.0;
  for (size_t i = 0; i < model.tensors.size(); ++i) {
    for (const Op& op : fp32.options[i].ops) {
      if (op.task == ActionTask::kComm && op.phase == CommPhase::kInter) {
        inter += evaluator.OpDuration(op, model.tensors[i].elements);
      }
    }
  }
  EXPECT_GE(evaluator.IterationTime(fp32),
            model.forward_time_s + inter + model.optimizer_time_s - 1e-12);
}

TEST(Timeline, CompressionReducesIterationWhenCommBound) {
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = PcieCluster();  // strongly communication-bound
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const Strategy fp32 = Fp32Strategy(model, cluster);
  const Strategy compressed =
      UniformStrategy(3, InterOnlyIndivisibleOption(cluster, Device::kGpu));
  EXPECT_LT(evaluator.IterationTime(compressed), evaluator.IterationTime(fp32));
}

TEST(Timeline, GpuCompressionContendWithCompute) {
  // Figure 2(c): GPU compression kernels share the GPU stream with backward compute,
  // so the backward phase stretches; CPU compression does not stretch it.
  ModelProfile model = ToyModel();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);

  auto backward_end = [&](const Strategy& s) {
    const TimelineResult r = evaluator.Evaluate(s, true);
    double end = 0.0;
    for (const auto& e : r.entries) {
      if (e.kind == "compute") {
        end = std::max(end, e.end);
      }
    }
    return end;
  };
  const Strategy fp32 = Fp32Strategy(model, cluster);
  const Strategy gpu = UniformStrategy(3, InterOnlyIndivisibleOption(cluster, Device::kGpu));
  const Strategy cpu = UniformStrategy(3, InterOnlyIndivisibleOption(cluster, Device::kCpu));
  const double plain_end = backward_end(fp32);
  EXPECT_GT(backward_end(gpu), plain_end);              // GPU kernels delay compute
  EXPECT_NEAR(backward_end(cpu), plain_end, 1e-9);      // CPU path leaves compute alone
}

TEST(Timeline, ZeroCompressionCostMakesCompressionFree) {
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator real(model, cluster, *compressor);
  TimelineEvaluator free(model, cluster, *compressor, /*zero_compression_cost=*/true);
  const Strategy s = UniformStrategy(3, InterOnlyIndivisibleOption(cluster, Device::kGpu));
  EXPECT_LT(free.IterationTime(s), real.IterationTime(s));
  for (const Op& op : s.options[0].ops) {
    if (op.task != ActionTask::kComm) {
      EXPECT_EQ(free.OpDuration(op, model.tensors[0].elements), 0.0);
    }
  }
}

TEST(Timeline, EntriesCoverEveryOp) {
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const Strategy s = UniformStrategy(3, InterOnlyDivisibleOption(cluster, Device::kGpu));
  const TimelineResult r = evaluator.Evaluate(s, true);
  // 3 compute entries + 8 ops per tensor.
  EXPECT_EQ(r.entries.size(), 3u + 3u * s.options[0].ops.size());
  for (const auto& e : r.entries) {
    EXPECT_LE(e.start, e.end);
    EXPECT_LE(e.end, r.makespan + 1e-12);
  }
}

TEST(Timeline, WfbpOrderOnLinks) {
  // Tensors enter each link in backward-completion order (WFBP FIFO).
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const Strategy fp32 = Fp32Strategy(model, cluster);
  const TimelineResult r = evaluator.Evaluate(fp32, true);
  double prev_start = -1.0;
  size_t prev_tensor = 0;
  for (const auto& e : r.entries) {
    if (e.resource != "inter") {
      continue;
    }
    if (prev_start >= 0.0) {
      EXPECT_GE(e.start, prev_start);
      EXPECT_GT(e.tensor, prev_tensor);
    }
    prev_start = e.start;
    prev_tensor = e.tensor;
  }
}

TEST(Timeline, BubbleDetectionFigure9a) {
  // T0 finishes communicating long before T1's backward completes: a bubble follows
  // T0, so T0 is flagged; the tensors at the end are not.
  ModelProfile model = ToyModel(/*t0=*/1e-3, /*t1=*/100e-3, /*t2=*/1e-3);
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const Strategy fp32 = Fp32Strategy(model, cluster);
  const std::vector<bool> before = evaluator.BeforeBubble(fp32);
  ASSERT_EQ(before.size(), 3u);
  EXPECT_TRUE(before[0]);
  EXPECT_FALSE(before[2]);
}

TEST(Timeline, NoBubblesWhenCommBacklogged) {
  // On a slow network every comm queues behind the previous one: no compute-gated
  // gaps, nothing is ruled out.
  ModelProfile model = ToyModel(1e-3, 1e-3, 1e-3);
  const ClusterSpec cluster = PcieCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const std::vector<bool> before = evaluator.BeforeBubble(Fp32Strategy(model, cluster));
  for (bool b : before) {
    EXPECT_FALSE(b);
  }
}

TEST(Timeline, HostCopiesContendOnPcieOnly) {
  const ModelProfile model = ToyModel();
  const auto compressor = Dgc();
  const Strategy cpu_strategy = UniformStrategy(
      3, InterOnlyIndivisibleOption(PcieCluster(), Device::kCpu));

  TimelineEvaluator pcie(model, PcieCluster(), *compressor);
  const TimelineResult r = pcie.Evaluate(cpu_strategy, true);
  size_t host_copies = 0;
  for (const auto& e : r.entries) {
    if (e.kind == "hostcopy") {
      EXPECT_EQ(e.resource, "intra");
      ++host_copies;
    }
  }
  EXPECT_EQ(host_copies, 3u * 2u);  // one h2d per compress, one d2h per decompress

  TimelineEvaluator nvlink(model, NvlinkCluster(), *compressor);
  const Strategy nv_strategy = UniformStrategy(
      3, InterOnlyIndivisibleOption(NvlinkCluster(), Device::kCpu));
  const TimelineResult rn = nvlink.Evaluate(nv_strategy, true);
  for (const auto& e : rn.entries) {
    EXPECT_NE(e.kind, "hostcopy");
  }
}

TEST(Timeline, FlatOptionUsesSingleLinkResource) {
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  CompressionOption flat_ar;
  flat_ar.flat = true;
  Op op;
  op.task = ActionTask::kComm;
  op.phase = CommPhase::kFlat;
  op.routine = Routine::kAllreduce;
  flat_ar.ops = {op};
  const TimelineResult r = evaluator.Evaluate(UniformStrategy(3, flat_ar), true);
  for (const auto& e : r.entries) {
    if (e.kind != "compute") {
      EXPECT_EQ(e.resource, "inter");  // flat collectives bottleneck on the NIC
    }
  }
}

TEST(Timeline, DeterministicEvaluation) {
  const ModelProfile model = BertBase();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const Strategy s = HiPressStrategy(model, cluster, *compressor);
  EXPECT_EQ(evaluator.IterationTime(s), evaluator.IterationTime(s));
}

TEST(Timeline, EvalContextReuseIsByteIdentical) {
  // The selector's hot loop reuses one EvalContext across thousands of simulations;
  // results must match the context-free path exactly, for every strategy shape.
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = PcieCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  TimelineEvaluator::EvalContext ctx;
  const std::vector<CompressionOption> candidates =
      CandidateOptions(TreeConfig{cluster.machines, cluster.gpus_per_machine,
                                  compressor->SupportsCompressedAggregation()});
  for (const CompressionOption& option : candidates) {
    const Strategy s = UniformStrategy(model.tensors.size(), option);
    EXPECT_EQ(evaluator.IterationTime(s, &ctx), evaluator.IterationTime(s))
        << option.label;
    // Re-running on the warm context (engine Reset() path) stays identical.
    EXPECT_EQ(evaluator.IterationTime(s, &ctx), evaluator.IterationTime(s, &ctx))
        << option.label;
  }
}

// The candidate set for one cluster: every pruned candidate plus its CPU variant, so
// PCIe schedules carry host copies in the prefix and in the resumed suffix.
std::vector<CompressionOption> CandidatesWithCpuVariants(const ClusterSpec& cluster,
                                                         const Compressor& compressor) {
  std::vector<CompressionOption> candidates =
      CandidateOptions(TreeConfig{cluster.machines, cluster.gpus_per_machine,
                                  compressor.SupportsCompressedAggregation()});
  const size_t gpu_count = candidates.size();
  for (size_t j = 0; j < gpu_count; ++j) {
    if (candidates[j].Compressed()) {
      candidates.push_back(candidates[j].WithDevice(Device::kCpu));
    }
  }
  return candidates;
}

// A base strategy mixing every candidate, so no index has a trivial prefix.
Strategy MixedStrategy(size_t tensors, const std::vector<CompressionOption>& candidates) {
  Strategy s;
  for (size_t t = 0; t < tensors; ++t) {
    s.options.push_back(candidates[(t * 5 + t / 7) % candidates.size()]);
  }
  return s;
}

TEST(Timeline, ScoreWithOptionMatchesSubstitutionWithoutMutation) {
  // The single-substitution score of candidate c at index i — ResumeWithOption from a
  // checkpoint advanced to i — must equal F(base with options[i] = c) as a double, and
  // must leave the caller's strategy untouched: the selector scores candidates
  // concurrently against one shared base and checkpoint.
  struct Case {
    const char* name;
    ModelProfile model;
    ClusterSpec cluster;
    bool zero_compression_cost;
    ResourceScales scales;
    bool fp32_base;
  };
  const ResourceScales degraded{.gpu = 0.7, .cpu = 0.45, .intra = 0.9, .inter = 0.6};
  const std::vector<Case> cases = {
      {"toy-nvlink", ToyModel(), NvlinkCluster(), false, {}, true},
      {"gpt2-pcie", Gpt2(), PcieCluster(), false, {}, false},
      {"gpt2-nvlink", Gpt2(), NvlinkCluster(), false, {}, false},
      {"gpt2-pcie-degraded", Gpt2(), PcieCluster(), false, degraded, false},
      {"gpt2-pcie-zero-cost", Gpt2(), PcieCluster(), true, {}, false},
  };
  const auto compressor = Dgc();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TimelineEvaluator evaluator(c.model, c.cluster, *compressor, c.zero_compression_cost);
    evaluator.SetResourceScales(c.scales);
    const std::vector<CompressionOption> candidates =
        CandidatesWithCpuVariants(c.cluster, *compressor);
    ASSERT_GE(candidates.size(), 2u);
    const Strategy base = c.fp32_base ? Fp32Strategy(c.model, c.cluster)
                                      : MixedStrategy(c.model.tensors.size(), candidates);
    const Strategy before = base;
    TimelineEvaluator::EvalContext ctx;
    TimelineEvaluator::Checkpoint checkpoint;
    for (size_t i = 0; i < base.size(); ++i) {
      evaluator.AdvanceCheckpoint(base, i, &checkpoint);
      ASSERT_EQ(checkpoint.index(), i);
      for (const CompressionOption& candidate : candidates) {
        Strategy substituted = base;
        substituted.options[i] = candidate;
        EXPECT_EQ(evaluator.ResumeWithOption(checkpoint, base, candidate, &ctx),
                  evaluator.IterationTime(substituted))
            << "tensor " << i << " candidate " << candidate.label;
      }
    }
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base.options[i], before.options[i]) << "base mutated at " << i;
    }
  }
}

TEST(Timeline, CheckpointAdvancesInPlaceAcrossASweep) {
  // A refinement sweep: ascending indices, and between advances the base changes only
  // at the checkpoint's own index. Every resume must match a checkpoint rebuilt from
  // scratch and a full simulation; advancing counts no simulation, and each resume
  // counts exactly one.
  const ModelProfile model = Gpt2();
  const ClusterSpec cluster = PcieCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const std::vector<CompressionOption> candidates =
      CandidatesWithCpuVariants(cluster, *compressor);
  Strategy base = MixedStrategy(model.tensors.size(), candidates);
  TimelineEvaluator::EvalContext ctx;
  TimelineEvaluator::Checkpoint checkpoint;
  for (size_t i = 0; i < base.size(); ++i) {
    uint64_t simulations = evaluator.simulations();
    evaluator.AdvanceCheckpoint(base, i, &checkpoint);
    TimelineEvaluator::Checkpoint rebuilt;
    evaluator.AdvanceCheckpoint(base, i, &rebuilt);
    EXPECT_EQ(evaluator.simulations(), simulations);
    for (size_t j = i % 3; j < candidates.size(); j += 3) {
      const CompressionOption& candidate = candidates[j];
      simulations = evaluator.simulations();
      const double resumed = evaluator.ResumeWithOption(checkpoint, base, candidate, &ctx);
      EXPECT_EQ(evaluator.simulations(), simulations + 1);
      EXPECT_EQ(resumed, evaluator.ResumeWithOption(rebuilt, base, candidate, &ctx))
          << "tensor " << i << " candidate " << candidate.label;
      Strategy substituted = base;
      substituted.options[i] = candidate;
      EXPECT_EQ(resumed, evaluator.IterationTime(substituted))
          << "tensor " << i << " candidate " << candidate.label;
    }
    base.options[i] = candidates[(i * 3 + 1) % candidates.size()];
  }
}

TEST(Timeline, CheckpointRebuildsWhenItsPrefixOrScalesChange) {
  const ModelProfile model = Gpt2();
  const ClusterSpec cluster = PcieCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const std::vector<CompressionOption> candidates =
      CandidatesWithCpuVariants(cluster, *compressor);
  Strategy base = MixedStrategy(model.tensors.size(), candidates);
  const CompressionOption& candidate = candidates.back();
  auto full = [&](const Strategy& s, size_t i) {
    Strategy substituted = s;
    substituted.options[i] = candidate;
    return evaluator.IterationTime(substituted);
  };
  TimelineEvaluator::Checkpoint checkpoint;
  evaluator.AdvanceCheckpoint(base, 40, &checkpoint);
  EXPECT_EQ(evaluator.ResumeWithOption(checkpoint, base, candidate, nullptr), full(base, 40));

  // An option below the checkpoint's index changes: a later index must rebuild.
  base.options[3] = candidates[(base.options[3] == candidates[0]) ? 1 : 0];
  evaluator.AdvanceCheckpoint(base, 60, &checkpoint);
  EXPECT_EQ(evaluator.ResumeWithOption(checkpoint, base, candidate, nullptr), full(base, 60));

  // An earlier index rebuilds too.
  evaluator.AdvanceCheckpoint(base, 10, &checkpoint);
  EXPECT_EQ(evaluator.ResumeWithOption(checkpoint, base, candidate, nullptr), full(base, 10));

  // New resource scales: the stopped engine was timed under the old ones.
  evaluator.SetResourceScales(ResourceScales{.gpu = 0.5, .cpu = 1.0, .intra = 0.8, .inter = 1.0});
  evaluator.AdvanceCheckpoint(base, 20, &checkpoint);
  EXPECT_EQ(evaluator.ResumeWithOption(checkpoint, base, candidate, nullptr), full(base, 20));
}

TEST(TimelineDeathTest, ResumeRejectsACheckpointFromOtherScales) {
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const Strategy base = Fp32Strategy(model, cluster);
  TimelineEvaluator::Checkpoint checkpoint;
  evaluator.AdvanceCheckpoint(base, 1, &checkpoint);
  evaluator.SetResourceScales(ResourceScales{.gpu = 0.5});
  EXPECT_DEATH(evaluator.ResumeWithOption(checkpoint, base, base.options[1], nullptr),
               "resource scales");
}

TEST(Timeline, ScoreWithOverridesMatchesMaterializedStrategy) {
  const ModelProfile model = ToyModel();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Dgc();
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const std::vector<CompressionOption> candidates =
      CandidateOptions(TreeConfig{cluster.machines, cluster.gpus_per_machine,
                                  compressor->SupportsCompressedAggregation()});
  ASSERT_GE(candidates.size(), 2u);
  const Strategy base = UniformStrategy(model.tensors.size(), candidates[0]);
  const CompressionOption moved = candidates[1].WithDevice(Device::kCpu);
  // Override tensors 0 and 2, leave 1 on the base option (null slot).
  std::vector<const CompressionOption*> overrides(base.size(), nullptr);
  overrides[0] = &moved;
  overrides[2] = &moved;
  Strategy materialized = base;
  materialized.options[0] = moved;
  materialized.options[2] = moved;
  EXPECT_EQ(evaluator.ScoreWithOverrides(base, overrides.data()),
            evaluator.IterationTime(materialized));
}

}  // namespace
}  // namespace espresso
