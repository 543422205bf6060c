#include "src/analysis/strategy_linter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/costmodel/calibration.h"
#include "src/models/model_zoo.h"

namespace espresso {
namespace {

bool HasErrorRule(const DiagnosticReport& report, const char* rule) {
  return std::any_of(report.diagnostics().begin(), report.diagnostics().end(),
                     [&](const Diagnostic& d) {
                       return d.severity == Severity::kError && d.rule == rule;
                     });
}

// The linter must accept exactly what the decision tree emits: every enumerated path
// of every topology/capability combination lints clean.
TEST(StrategyLinter, AcceptsEveryEnumeratedOption) {
  const std::vector<TreeConfig> configs = {
      {8, 8, false}, {8, 8, true}, {4, 4, false}, {4, 4, true},
      {1, 8, false}, {1, 8, true}, {8, 1, false}, {2, 2, true},
  };
  for (const TreeConfig& config : configs) {
    const OptionSpace space = EnumerateOptions(config);
    ASSERT_FALSE(space.options.empty());
    for (const CompressionOption& option : space.options) {
      const DiagnosticReport report = LintOption(config, option, 0);
      EXPECT_FALSE(report.HasErrors())
          << option.Describe() << "\n"
          << report.ToString() << "(machines=" << config.machines
          << ", gpus=" << config.gpus_per_machine << ", agg="
          << config.supports_compressed_aggregation << ")";
    }
  }
}

TEST(StrategyLinter, AcceptsCandidatesAndDefaultOption) {
  for (const bool agg : {false, true}) {
    const TreeConfig config{8, 8, agg};
    for (const CompressionOption& option : CandidateOptions(config)) {
      EXPECT_FALSE(LintOption(config, option, 0).HasErrors()) << option.Describe();
    }
    EXPECT_FALSE(LintOption(config, DefaultUncompressedOption(config), 0).HasErrors());
  }
}

// One-edit mutations of legal options must be rejected. Each mutation below breaks an
// invariant no legal pipeline can satisfy, so "some error" is the exact expectation.
TEST(StrategyLinter, RejectsOneEditMutations) {
  const TreeConfig config{8, 8, true};
  const OptionSpace space = EnumerateOptions(config);
  size_t mutants = 0;
  for (const CompressionOption& option : space.options) {
    ASSERT_FALSE(LintOption(config, option, 0).HasErrors());

    // Mutation 1: duplicate the first compress op (re-compressing a compressed payload).
    for (size_t k = 0; k < option.ops.size(); ++k) {
      if (option.ops[k].task == ActionTask::kCompress) {
        CompressionOption mutant = option;
        mutant.ops.insert(mutant.ops.begin() + static_cast<long>(k), option.ops[k]);
        const DiagnosticReport report = LintOption(config, mutant, 0);
        EXPECT_TRUE(HasErrorRule(report, rules::kDoubleCompress)) << mutant.Describe();
        ++mutants;
        break;
      }
    }

    // Mutation 2: drop the last decompress (payload can never return to raw).
    for (size_t k = option.ops.size(); k-- > 0;) {
      if (option.ops[k].task == ActionTask::kDecompress) {
        CompressionOption mutant = option;
        mutant.ops.erase(mutant.ops.begin() + static_cast<long>(k));
        EXPECT_TRUE(LintOption(config, mutant, 0).HasErrors()) << mutant.Describe();
        ++mutants;
        break;
      }
    }

    // Mutation 3: flip the wire flag of the first comm op (state mismatch).
    for (size_t k = 0; k < option.ops.size(); ++k) {
      if (option.ops[k].task == ActionTask::kComm) {
        CompressionOption mutant = option;
        mutant.ops[k].compressed = !mutant.ops[k].compressed;
        const DiagnosticReport report = LintOption(config, mutant, 0);
        EXPECT_TRUE(HasErrorRule(report, rules::kCommStateMismatch)) << mutant.Describe();
        ++mutants;
        break;
      }
    }

    // Mutation 4: zero the fan_in of the first decompress.
    for (size_t k = 0; k < option.ops.size(); ++k) {
      if (option.ops[k].task == ActionTask::kDecompress) {
        CompressionOption mutant = option;
        mutant.ops[k].fan_in = 0;
        const DiagnosticReport report = LintOption(config, mutant, 0);
        EXPECT_TRUE(HasErrorRule(report, rules::kOpFractionRange)) << mutant.Describe();
        ++mutants;
        break;
      }
    }

    // Mutation 5: move the first op into the wrong phase family.
    {
      CompressionOption mutant = option;
      mutant.ops[0].phase = option.flat ? CommPhase::kInter : CommPhase::kFlat;
      const DiagnosticReport report = LintOption(config, mutant, 0);
      EXPECT_TRUE(HasErrorRule(report, rules::kFlatPhaseMix)) << mutant.Describe();
      ++mutants;
    }
  }
  EXPECT_GT(mutants, space.options.size());  // several mutants per option on average
}

TEST(StrategyLinter, MaxCompressOpsBoundaries) {
  // Find enumerated options at 1 and 2 compress ops and check both sides of the limit.
  const TreeConfig unlimited{8, 8, false, 0};
  const OptionSpace space = EnumerateOptions(unlimited);
  const CompressionOption* one = nullptr;
  const CompressionOption* two = nullptr;
  for (const CompressionOption& option : space.options) {
    if (option.CompressOpCount() == 1 && one == nullptr) one = &option;
    if (option.CompressOpCount() == 2 && two == nullptr) two = &option;
  }
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);

  const TreeConfig limit1{8, 8, false, 1};
  EXPECT_FALSE(LintOption(limit1, *one, 0).HasErrors()) << one->Describe();
  EXPECT_TRUE(HasErrorRule(LintOption(limit1, *two, 0), rules::kMaxCompressOps))
      << two->Describe();

  // At the boundary (limit == count) the option is legal; unlimited (0) never fires.
  const TreeConfig limit2{8, 8, false, 2};
  EXPECT_FALSE(HasErrorRule(LintOption(limit2, *two, 0), rules::kMaxCompressOps));
  EXPECT_FALSE(HasErrorRule(LintOption(unlimited, *two, 0), rules::kMaxCompressOps));

  // The enumerator itself respects the constraint, and the linter agrees with it.
  for (const CompressionOption& option : EnumerateOptions(limit1).options) {
    EXPECT_LE(option.CompressOpCount(), 1u);
    EXPECT_FALSE(LintOption(limit1, option, 0).HasErrors()) << option.Describe();
  }
}

// The skip-stage paths (§4.2.2): options that only exist because the GC algorithm can
// aggregate in the compressed domain must be rejected when it cannot.
TEST(StrategyLinter, CompressedAggregationGatesSkipStagePaths) {
  const TreeConfig with_agg{8, 8, true};
  const TreeConfig without_agg{8, 8, false};
  const OptionSpace with = EnumerateOptions(with_agg);
  const OptionSpace without = EnumerateOptions(without_agg);
  ASSERT_GT(with.options.size(), without.options.size());

  size_t skip_stage_paths = 0;
  for (const CompressionOption& option : with.options) {
    const bool in_base = std::any_of(without.options.begin(), without.options.end(),
                                     [&](const CompressionOption& o) { return o == option; });
    if (in_base) {
      // Shared path: legal under both capability settings.
      EXPECT_FALSE(LintOption(without_agg, option, 0).HasErrors()) << option.Describe();
      continue;
    }
    ++skip_stage_paths;
    EXPECT_FALSE(LintOption(with_agg, option, 0).HasErrors()) << option.Describe();
    EXPECT_TRUE(HasErrorRule(LintOption(without_agg, option, 0),
                             rules::kCompressedAggUnsupported))
        << option.Describe();
  }
  EXPECT_GT(skip_stage_paths, 0u);
}

TEST(StrategyLinter, SingleMachineTopologies) {
  // One machine: only the flat level exists; hierarchical options are structural errors.
  const TreeConfig single{1, 8, false};
  for (const CompressionOption& option : EnumerateOptions(single).options) {
    EXPECT_TRUE(option.flat);
    EXPECT_FALSE(LintOption(single, option, 0).HasErrors()) << option.Describe();
  }
  const TreeConfig hier{8, 8, false};
  const OptionSpace hierarchical_space = EnumerateOptions(hier);
  const auto hierarchical_option =
      std::find_if(hierarchical_space.options.begin(), hierarchical_space.options.end(),
                   [](const CompressionOption& o) { return !o.flat; });
  ASSERT_NE(hierarchical_option, hierarchical_space.options.end());
  EXPECT_TRUE(HasErrorRule(LintOption(single, *hierarchical_option, 0),
                           rules::kHierarchicalOnFlatCluster))
      << hierarchical_option->Describe();

  // One GPU per machine behaves the same way on the other axis.
  const TreeConfig tall{8, 1, false};
  for (const CompressionOption& option : EnumerateOptions(tall).options) {
    EXPECT_FALSE(LintOption(tall, option, 0).HasErrors()) << option.Describe();
  }
}

TEST(StrategyLinter, StrategyLevelSizeMismatch) {
  const ModelProfile model = Gpt2();
  const ClusterSpec cluster = NvlinkCluster();
  const TreeConfig config{cluster.machines, cluster.gpus_per_machine, false};
  Strategy strategy = Fp32Strategy(model, cluster);
  LintOptions options;
  options.expected_tensors = model.tensors.size();
  EXPECT_FALSE(LintStrategy(config, strategy, options).HasErrors());

  strategy.options.pop_back();
  EXPECT_TRUE(
      HasErrorRule(LintStrategy(config, strategy, options), rules::kSizeMismatch));
}

TEST(StrategyLinter, EmptyAndCommlessOptions) {
  const TreeConfig config{8, 8, false};
  CompressionOption empty;
  EXPECT_TRUE(HasErrorRule(LintOption(config, empty, 0), rules::kEmptyOption));

  CompressionOption no_comm;
  no_comm.flat = true;
  Op compress;
  compress.task = ActionTask::kCompress;
  Op decompress;
  decompress.task = ActionTask::kDecompress;
  no_comm.ops = {compress, decompress};
  EXPECT_TRUE(HasErrorRule(LintOption(config, no_comm, 0), rules::kNoComm));
}

// Deleting the inter step from a hierarchical pipeline leaves a machine-local option
// that never synchronizes across machines — topologically well-formed (the gap the
// space checker's completeness pass originally exposed), so it needs its own rule.
TEST(StrategyLinter, MissingInterSyncOnHierarchicalOptions) {
  const TreeConfig config{8, 8, false};
  CompressionOption option = DefaultUncompressedOption(config);
  ASSERT_EQ(option.ops.size(), 3u);
  ASSERT_EQ(option.ops[1].phase, CommPhase::kInter);
  option.ops.erase(option.ops.begin() + 1);
  EXPECT_TRUE(HasErrorRule(LintOption(config, option, 0), rules::kMissingInterSync))
      << option.Describe();

  // Flat options are exempt: a flat allreduce crosses machines by construction.
  CompressionOption flat;
  flat.flat = true;
  Op allreduce;
  allreduce.task = ActionTask::kComm;
  allreduce.phase = CommPhase::kFlat;
  allreduce.routine = Routine::kAllreduce;
  flat.ops = {allreduce};
  EXPECT_FALSE(LintOption(config, flat, 0).HasErrors());
}

TEST(StrategyLinter, UncompressedCollectRoutinesAreRejected) {
  // Collect routines move opaque payloads; raw gradients riding them end up as
  // unaggregated shards no op can reduce.
  const TreeConfig config{8, 8, false};
  CompressionOption option;
  option.flat = true;
  Op alltoall;
  alltoall.task = ActionTask::kComm;
  alltoall.phase = CommPhase::kFlat;
  alltoall.routine = Routine::kAlltoall;
  alltoall.payload_fraction = 1.0 / 64.0;
  alltoall.compressed = false;
  option.ops = {alltoall};
  EXPECT_TRUE(HasErrorRule(LintOption(config, option, 0), rules::kUncompressedCollect));
}

TEST(StrategyLinter, PayloadCoverageMismatchIsRejected) {
  // The wire payload must match what the routine fixes per rank: pricing a different
  // byte count than the pipeline moves corrupts every downstream F(S) comparison.
  const TreeConfig config{8, 8, false};
  CompressionOption option = DefaultUncompressedOption(config);
  ASSERT_EQ(option.ops[1].routine, Routine::kAllreduce);
  option.ops[1].payload_fraction = 1.0;  // the inter shard is 1/g, not the full tensor
  EXPECT_TRUE(HasErrorRule(LintOption(config, option, 0), rules::kPayloadCoverage))
      << option.Describe();
}

}  // namespace
}  // namespace espresso
