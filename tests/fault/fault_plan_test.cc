// Determinism and range guarantees of the fault schedule, plus its effect on the
// timeline: the same seed must reproduce the same faults and the same F(S).
#include "src/fault/fault_plan.h"

#include <gtest/gtest.h>

#include "src/core/espresso.h"
#include "src/models/model_zoo.h"

namespace espresso {
namespace {

FaultSpec BusySpec(uint64_t seed) {
  FaultSpec spec;
  spec.seed = seed;
  spec.straggler_probability = 0.3;
  spec.straggler_slowdown = 2.0;
  spec.inter_bandwidth_factor = 0.5;
  spec.intra_bandwidth_factor = 0.8;
  spec.link_jitter = 0.2;
  spec.inter_extra_latency_s = 1e-5;
  spec.cpu_contention_probability = 0.25;
  spec.cpu_slowdown = 3.0;
  spec.drop_probability = 0.05;
  spec.corrupt_probability = 0.02;
  spec.collective_failure_probability = 0.1;
  return spec;
}

TEST(FaultPlan, SameSeedSameSchedule) {
  const FaultPlan a(BusySpec(7));
  const FaultPlan b(BusySpec(7));
  for (uint64_t it = 0; it < 200; ++it) {
    const IterationFaults fa = a.AtIteration(it);
    const IterationFaults fb = b.AtIteration(it);
    EXPECT_EQ(fa.straggler_active, fb.straggler_active) << it;
    EXPECT_EQ(fa.cpu_contention_active, fb.cpu_contention_active) << it;
    EXPECT_EQ(fa.compute_slowdown, fb.compute_slowdown) << it;
    EXPECT_EQ(fa.cpu_slowdown, fb.cpu_slowdown) << it;
    EXPECT_EQ(fa.inter_bandwidth_factor, fb.inter_bandwidth_factor) << it;
    EXPECT_EQ(fa.intra_bandwidth_factor, fb.intra_bandwidth_factor) << it;
    EXPECT_EQ(fa.inter_extra_latency_s, fb.inter_extra_latency_s) << it;
  }
}

TEST(FaultPlan, IterationDrawsAreOrderIndependent) {
  const FaultPlan plan(BusySpec(11));
  const IterationFaults forward = plan.AtIteration(42);
  plan.AtIteration(0);
  plan.AtIteration(99);
  const IterationFaults again = plan.AtIteration(42);
  EXPECT_EQ(forward.straggler_active, again.straggler_active);
  EXPECT_EQ(forward.inter_bandwidth_factor, again.inter_bandwidth_factor);
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  const FaultPlan a(BusySpec(1));
  const FaultPlan b(BusySpec(2));
  size_t differing = 0;
  for (uint64_t it = 0; it < 100; ++it) {
    if (a.AtIteration(it).inter_bandwidth_factor !=
        b.AtIteration(it).inter_bandwidth_factor) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 80u);
}

TEST(FaultPlan, JitterStaysWithinBounds) {
  const FaultSpec spec = BusySpec(3);
  const FaultPlan plan(spec);
  for (uint64_t it = 0; it < 500; ++it) {
    const IterationFaults f = plan.AtIteration(it);
    EXPECT_GE(f.compute_slowdown, 1.0);
    EXPECT_GE(f.cpu_slowdown, 1.0);
    EXPECT_GT(f.inter_bandwidth_factor, 0.0);
    EXPECT_GE(f.inter_bandwidth_factor,
              spec.inter_bandwidth_factor * (1.0 - spec.link_jitter) - 1e-12);
    EXPECT_LE(f.inter_bandwidth_factor,
              spec.inter_bandwidth_factor * (1.0 + spec.link_jitter) + 1e-12);
    EXPECT_GE(f.intra_bandwidth_factor,
              spec.intra_bandwidth_factor * (1.0 - spec.link_jitter) - 1e-12);
    EXPECT_LE(f.intra_bandwidth_factor,
              spec.intra_bandwidth_factor * (1.0 + spec.link_jitter) + 1e-12);
  }
}

TEST(FaultPlan, StragglerFrequencyTracksProbability) {
  const FaultPlan plan(BusySpec(17));
  size_t stragglers = 0;
  const size_t iterations = 2000;
  for (uint64_t it = 0; it < iterations; ++it) {
    if (plan.AtIteration(it).straggler_active) ++stragglers;
  }
  const double rate = static_cast<double>(stragglers) / iterations;
  EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(FaultPlan, PayloadDrawDeterministicAndDecorrelated) {
  const uint64_t seed = 23;  // every payload and collective-phase draw goes through it
  EXPECT_EQ(PayloadDraw(seed, 5, 2, 9, 1), PayloadDraw(seed, 5, 2, 9, 1));
  // Neighbouring coordinates must not produce the same draw.
  EXPECT_NE(PayloadDraw(seed, 5, 2, 9, 1), PayloadDraw(seed, 5, 2, 9, 2));
  EXPECT_NE(PayloadDraw(seed, 5, 2, 9, 1), PayloadDraw(seed, 5, 3, 9, 1));
  EXPECT_NE(PayloadDraw(seed, 5, 2, 9, 1), PayloadDraw(seed, 6, 2, 9, 1));
  EXPECT_NE(PayloadDraw(seed, 5, 2, 9, 1), PayloadDraw(seed, 5, 2, 10, 1));
}

TEST(FaultPlan, QuietPlanIsNeutral) {
  const FaultPlan quiet{FaultSpec{}};
  EXPECT_TRUE(quiet.Quiet());
  const IterationFaults f = quiet.AtIteration(123);
  EXPECT_FALSE(f.straggler_active);
  EXPECT_EQ(f.compute_slowdown, 1.0);
  EXPECT_EQ(f.inter_bandwidth_factor, 1.0);
  EXPECT_FALSE(FaultPlan(BusySpec(1)).Quiet());
}

TEST(FaultPlan, RejectsOutOfRangeSpec) {
  FaultSpec bad;
  bad.drop_probability = 1.5;
  EXPECT_DEATH(FaultPlan{bad}, "");
  FaultSpec slow;
  slow.straggler_slowdown = 0.5;
  EXPECT_DEATH(FaultPlan{slow}, "slowdown");
}

TEST(FaultPlan, FromConfigParsesAndRangeChecks) {
  const ConfigFile config = ConfigFile::ParseString(
      "[faults]\n"
      "seed = 99\n"
      "straggler_probability = 0.2\n"
      "straggler_slowdown = 3\n"
      "drop_probability = 1.7\n");  // out of range -> fallback 0 + warning
  ASSERT_TRUE(config.ok());
  const FaultPlan plan = FaultPlan::FromConfig(config);
  EXPECT_EQ(plan.spec().seed, 99u);
  EXPECT_DOUBLE_EQ(plan.spec().straggler_probability, 0.2);
  EXPECT_DOUBLE_EQ(plan.spec().straggler_slowdown, 3.0);
  EXPECT_DOUBLE_EQ(plan.spec().drop_probability, 0.0);
  ASSERT_EQ(config.warnings().size(), 1u);
  EXPECT_NE(config.warnings()[0].find("drop_probability"), std::string::npos);

  // A seed that does not parse warns and falls back, like every other [faults] key.
  const ConfigFile bad_seed = ConfigFile::ParseString("[faults]\nseed = abc\n");
  ASSERT_TRUE(bad_seed.ok());
  EXPECT_EQ(FaultPlan::FromConfig(bad_seed).spec().seed, 42u);
  ASSERT_EQ(bad_seed.warnings().size(), 1u);
  EXPECT_NE(bad_seed.warnings()[0].find("seed = abc"), std::string::npos)
      << bad_seed.warnings()[0];
}

// The acceptance bar for the chaos harness: a seeded fault schedule must yield a
// bit-identical perturbed iteration time, run to run.
TEST(FaultPlan, SameSeedSamePerturbedIterationTime) {
  const ModelProfile model = Vgg16();
  const ClusterSpec cluster = NvlinkCluster(4, 4);
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.01});
  const Strategy strategy = UniformStrategy(
      model.tensors.size(), DefaultUncompressedOption(TreeConfig{4, 4, false}));

  auto run = [&]() {
    const FaultPlan plan(BusySpec(77));
    double total = 0.0;
    for (uint64_t it = 0; it < 5; ++it) {
      TimelineEvaluator evaluator(model, cluster, *compressor);
      evaluator.SetResourceScales(FaultPlan::ScalesFor(plan.AtIteration(it)));
      total += evaluator.IterationTime(strategy);
    }
    return total;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultPlan, StragglerSlowsTheIterationDown) {
  const ModelProfile model = Vgg16();
  const ClusterSpec cluster = NvlinkCluster(4, 4);
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.01});
  const Strategy strategy = UniformStrategy(
      model.tensors.size(), DefaultUncompressedOption(TreeConfig{4, 4, false}));

  TimelineEvaluator clean(model, cluster, *compressor);
  const double baseline = clean.IterationTime(strategy);

  IterationFaults faults;
  faults.straggler_active = true;
  faults.compute_slowdown = 2.0;
  TimelineEvaluator slowed(model, cluster, *compressor);
  slowed.SetResourceScales(FaultPlan::ScalesFor(faults));
  EXPECT_GT(slowed.IterationTime(strategy), baseline);
}

TEST(FaultPlan, PerturbClusterDegradesLinks) {
  const ClusterSpec profiled = NvlinkCluster();
  IterationFaults faults;
  faults.inter_bandwidth_factor = 0.25;
  faults.intra_bandwidth_factor = 0.5;
  faults.inter_extra_latency_s = 1e-5;
  const ClusterSpec observed = FaultPlan::PerturbCluster(profiled, faults);
  EXPECT_DOUBLE_EQ(observed.inter.bytes_per_second,
                   profiled.inter.bytes_per_second * 0.25);
  EXPECT_DOUBLE_EQ(observed.intra.bytes_per_second,
                   profiled.intra.bytes_per_second * 0.5);
  EXPECT_DOUBLE_EQ(observed.inter.latency_s, profiled.inter.latency_s + 1e-5);
  EXPECT_EQ(observed.machines, profiled.machines);
}

}  // namespace
}  // namespace espresso
