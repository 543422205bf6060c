// Near-optimality validation (§5.2.4): on models small enough for exhaustive search,
// Espresso's greedy strategy lands within a few percent of the true optimum over the
// same candidate space; on the real models it lands within 15% of the Upper Bound
// (Figure 14 reports <10% of an even looser bound on the paper's testbed).
#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/espresso.h"
#include "src/ddl/experiment.h"
#include "src/models/model_zoo.h"

namespace espresso {
namespace {

ModelProfile SmallModel(size_t tensors, uint64_t seed) {
  ModelProfile m;
  m.name = "small" + std::to_string(seed);
  m.forward_time_s = 5e-3;
  m.optimizer_time_s = 1e-3;
  m.batch_size = 1;
  m.throughput_unit = "it/s";
  for (size_t i = 0; i < tensors; ++i) {
    // Mixed sizes and compute times keyed off the seed for variety.
    const size_t elements = (1u << 20) << ((seed + i) % 3);
    m.tensors.push_back({"T" + std::to_string(i), elements,
                         2e-3 * static_cast<double>((seed + i) % 4 + 1)});
  }
  return m;
}

class NearOptimality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NearOptimality, WithinTenPercentOfBruteForce) {
  const ModelProfile model = SmallModel(3, GetParam());
  const ClusterSpec cluster = GetParam() % 2 == 0 ? NvlinkCluster() : PcieCluster();
  const auto compressor = CreateCompressor(
      CompressorConfig{.algorithm = GetParam() % 3 == 0 ? "efsignsgd" : "dgc",
                       .ratio = 0.01});

  EspressoSelector selector(model, cluster, *compressor);
  const SelectionResult espresso = selector.Select();

  // Brute force over the same all-GPU candidate space as Algorithm 1. The full Espresso
  // pipeline can legitimately beat it (Algorithm 2 adds CPU devices the space lacks),
  // but the GPU stage alone cannot, and the final result must stay within 10%.
  const TreeConfig config{cluster.machines, cluster.gpus_per_machine,
                          compressor->SupportsCompressedAggregation()};
  const auto brute =
      BruteForceStrategy(selector.evaluator(), CandidateOptions(config), 1u << 20);
  ASSERT_TRUE(brute.has_value());
  const Strategy gpu_stage = selector.SelectGpuCompression();
  EXPECT_LE(brute->iteration_time,
            selector.evaluator().IterationTime(gpu_stage) + 1e-12);
  EXPECT_LE(espresso.iteration_time, brute->iteration_time * 1.10)
      << "Espresso " << espresso.iteration_time << " vs optimal " << brute->iteration_time;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NearOptimality, ::testing::Range<uint64_t>(0, 8));

TEST(NearOptimality, RealModelsWithinFifteenPercentOfUpperBound) {
  struct Case {
    const char* model;
    const char* algorithm;
    bool pcie;
  };
  for (const Case& c : {Case{"gpt2", "efsignsgd", false}, Case{"bert-base", "randomk", false},
                        Case{"ugatit", "dgc", false}, Case{"vgg16", "randomk", true},
                        Case{"lstm", "efsignsgd", true}}) {
    const ModelProfile model = GetModel(c.model);
    const ClusterSpec cluster = c.pcie ? PcieCluster() : NvlinkCluster();
    const auto compressor =
        CreateCompressor(CompressorConfig{.algorithm = c.algorithm, .ratio = 0.01});
    const double espresso =
        RunScheme(model, cluster, *compressor, Scheme::kEspresso).iteration_time_s;
    const double bound =
        RunScheme(model, cluster, *compressor, Scheme::kUpperBound).iteration_time_s;
    EXPECT_LE(espresso, bound * 1.15) << c.model;
  }
}

TEST(NearOptimality, SelectionTimeOrdersOfMagnitudeBelowBruteForce) {
  // Table 5's punchline: milliseconds vs >24h.
  const ModelProfile model = Gpt2();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "efsignsgd", .ratio = 0.01});
  EspressoSelector selector(model, cluster, *compressor);
  const SelectionResult result = selector.Select();
  const double selection_seconds = result.telemetry.total_seconds;
#ifdef ESPRESSO_VERIFY_SCHEDULES
  // Verification builds audit every simulated timeline, so the wall-clock claim is
  // about the production configuration only; keep a loose sanity bound here.
  EXPECT_LT(selection_seconds, 120.0);
#else
  EXPECT_LT(selection_seconds, 5.0);
#endif

  const double per_eval = selection_seconds /
                          static_cast<double>(std::max<uint64_t>(1, result.telemetry.evaluations));
  const double brute = EstimateBruteForceSeconds(per_eval, 8, model.tensors.size());
  EXPECT_GT(brute, 24.0 * 3600.0);
}

}  // namespace
}  // namespace espresso
