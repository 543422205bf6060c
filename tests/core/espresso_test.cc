#include "src/core/espresso.h"

#include <gtest/gtest.h>

#include <map>

#include "src/core/baselines.h"
#include "src/models/model_zoo.h"

namespace espresso {
namespace {

std::unique_ptr<Compressor> Make(const std::string& algo) {
  return CreateCompressor(CompressorConfig{.algorithm = algo, .ratio = 0.01});
}

TEST(Espresso, NeverWorseThanFp32) {
  // GetBestOption always keeps the current (initially uncompressed) assignment as a
  // candidate, so the selected strategy can only improve on FP32.
  for (const char* algo : {"dgc", "randomk", "efsignsgd"}) {
    const ModelProfile model = Gpt2();
    const ClusterSpec cluster = NvlinkCluster();
    const auto compressor = Make(algo);
    EspressoSelector selector(model, cluster, *compressor);
    const SelectionResult result = selector.Select();
    const double fp32 =
        selector.evaluator().IterationTime(Fp32Strategy(model, cluster));
    EXPECT_LE(result.iteration_time, fp32 + 1e-12) << algo;
  }
}

TEST(Espresso, OffloadNeverHurts) {
  const ModelProfile model = BertBase();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Make("randomk");
  EspressoSelector selector(model, cluster, *compressor);
  const Strategy gpu_only = selector.SelectGpuCompression();
  const Strategy offloaded = selector.OffloadToCpu(gpu_only);
  EXPECT_LE(selector.evaluator().IterationTime(offloaded),
            selector.evaluator().IterationTime(gpu_only) + 1e-12);
}

TEST(Espresso, OffloadOnlyChangesDevices) {
  const ModelProfile model = Gpt2();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Make("efsignsgd");
  EspressoSelector selector(model, cluster, *compressor);
  const Strategy gpu_only = selector.SelectGpuCompression();
  const Strategy offloaded = selector.OffloadToCpu(gpu_only);
  ASSERT_EQ(offloaded.size(), gpu_only.size());
  for (size_t i = 0; i < gpu_only.size(); ++i) {
    EXPECT_EQ(offloaded.options[i].ops.size(), gpu_only.options[i].ops.size());
    for (size_t k = 0; k < gpu_only.options[i].ops.size(); ++k) {
      const Op& a = gpu_only.options[i].ops[k];
      const Op& b = offloaded.options[i].ops[k];
      EXPECT_EQ(a.task, b.task);
      EXPECT_EQ(a.routine, b.routine);
      EXPECT_EQ(a.phase, b.phase);
      EXPECT_EQ(a.domain_fraction, b.domain_fraction);
    }
  }
}

TEST(Espresso, OffloadRespectsLemma1PrefixOrder) {
  // Within each (size, option) group, the offloaded tensors must be exactly the ones
  // farthest from the output layer (smallest backward index) — a prefix in backward
  // order (Lemma 1).
  const ModelProfile model = BertBase();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Make("randomk");
  EspressoSelector selector(model, cluster, *compressor);
  const Strategy gpu_only = selector.SelectGpuCompression();
  const Strategy offloaded = selector.OffloadToCpu(gpu_only);

  std::map<std::pair<size_t, std::string>, std::vector<size_t>> groups;
  for (size_t i = 0; i < gpu_only.size(); ++i) {
    if (gpu_only.options[i].Compressed() && gpu_only.options[i].UsesDevice(Device::kGpu)) {
      groups[{model.tensors[i].elements, gpu_only.options[i].label}].push_back(i);
    }
  }
  for (const auto& [key, members] : groups) {
    bool seen_gpu = false;
    for (size_t idx : members) {  // ascending backward index = descending distance
      const bool on_cpu = offloaded.options[idx].UsesDevice(Device::kCpu);
      if (!on_cpu) {
        seen_gpu = true;
      } else {
        EXPECT_FALSE(seen_gpu) << "non-prefix offload at tensor " << idx;
      }
    }
  }
}

TEST(Espresso, SelectionIsDeterministic) {
  const ModelProfile model = Lstm();
  const ClusterSpec cluster = PcieCluster();
  const auto compressor = Make("efsignsgd");
  EspressoSelector a(model, cluster, *compressor);
  EspressoSelector b(model, cluster, *compressor);
  EXPECT_EQ(a.Select().iteration_time, b.Select().iteration_time);
}

TEST(Espresso, ForceCompressAllCompressesEverything) {
  const ModelProfile model = Lstm();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Make("dgc");
  SelectorOptions options;
  options.force_compress_all = true;
  options.enable_cpu_offload = false;
  EspressoSelector selector(model, cluster, *compressor, options);
  const SelectionResult result = selector.Select();
  EXPECT_EQ(result.strategy.CompressedTensorCount(), model.tensors.size());
}

TEST(Espresso, ForceCpuPutsEverythingOnCpu) {
  const ModelProfile model = Lstm();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Make("efsignsgd");
  SelectorOptions options;
  options.force_cpu = true;
  EspressoSelector selector(model, cluster, *compressor, options);
  const SelectionResult result = selector.Select();
  EXPECT_EQ(result.strategy.TensorsOnDevice(Device::kGpu), 0u);
}

TEST(Espresso, MyopicNoWorseThanFp32ButNoBetterThanFull) {
  const ModelProfile model = Vgg16();
  const ClusterSpec cluster = PcieCluster();
  const auto compressor = Make("randomk");

  EspressoSelector full(model, cluster, *compressor);
  SelectorOptions myopic_options;
  myopic_options.myopic = true;
  EspressoSelector myopic(model, cluster, *compressor, myopic_options);
  EXPECT_LE(full.Select().iteration_time, myopic.Select().iteration_time + 1e-12);
}

TEST(Espresso, ReportsStageTimings) {
  const ModelProfile model = Lstm();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Make("dgc");
  EspressoSelector selector(model, cluster, *compressor);
  const SelectionResult result = selector.Select();
  EXPECT_GT(result.telemetry.algorithm1_seconds, 0.0);
  EXPECT_GT(result.telemetry.evaluations, 0u);
  EXPECT_GT(result.iteration_time, 0.0);
}

TEST(Espresso, RestrictedCandidatesAreRespected) {
  const ModelProfile model = Lstm();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Make("dgc");
  SelectorOptions options;
  options.candidates = {DefaultUncompressedOption(TreeConfig{8, 8, false}),
                        InterOnlyIndivisibleOption(cluster, Device::kGpu)};
  options.enable_cpu_offload = false;
  EspressoSelector selector(model, cluster, *compressor, options);
  const SelectionResult result = selector.Select();
  for (const auto& option : result.strategy.options) {
    const bool allowed = option == options.candidates[0] || option == options.candidates[1];
    EXPECT_TRUE(allowed) << option.Describe();
  }
}

TEST(EspressoDeathTest, RejectsContentDependentCompressors) {
  // §4.3's applicability requirement: selection needs a deterministic compression
  // ratio. Threshold sparsification is execution-only.
  const ModelProfile model = Lstm();
  const ClusterSpec cluster = NvlinkCluster();
  const auto threshold = CreateCompressor(
      CompressorConfig{.algorithm = "threshold", .threshold = 0.1});
  EXPECT_DEATH(EspressoSelector(model, cluster, *threshold), "content-dependent");
}

}  // namespace
}  // namespace espresso
