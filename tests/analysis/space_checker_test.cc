#include "src/analysis/space_checker.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "src/models/model_zoo.h"

namespace espresso {
namespace {

// A small but hierarchical configuration: full pass runtime stays in milliseconds
// while still exercising every phase of the option space.
struct SmallJob {
  ModelProfile model = Lstm();
  ClusterSpec cluster = NvlinkCluster(/*machines=*/2, /*gpus_per_machine=*/2);
  CompressorConfig config;
  std::unique_ptr<Compressor> compressor;

  SmallJob() {
    config.algorithm = "randomk";
    config.ratio = 0.01;
    compressor = CreateCompressor(config);
  }

  SpaceCheckResult Run(const SpaceCheckOptions& options = {}) const {
    return CheckStrategySpace(model, cluster, *compressor, config,
                              /*max_compress_ops=*/0, options);
  }
};

TEST(SpaceChecker, CleanConfigurationPassesAllThreePasses) {
  const SmallJob job;
  const SpaceCheckResult result = job.Run();
  EXPECT_TRUE(result.ok()) << result.report.ToString();
  EXPECT_GT(result.stats.options, 0u);
  EXPECT_GE(result.stats.device_choices, result.stats.options);
  EXPECT_GT(result.stats.mutants_total, 0u);
  EXPECT_EQ(result.stats.mutants_total,
            result.stats.mutants_rejected + result.stats.mutants_reenumerated);
  EXPECT_GT(result.stats.fingerprints_audited, result.stats.options);
  EXPECT_EQ(result.stats.fingerprint_collisions, 0u);
  EXPECT_GT(result.stats.interval_checks, 0u);
  EXPECT_GT(result.stats.monotonicity_checks, 0u);
  EXPECT_GT(result.stats.differential_valid, 0u);
  EXPECT_GT(result.stats.differential_corrupted, 0u);
  EXPECT_GT(result.stats.differential_tampered, 0u);
}

TEST(SpaceChecker, SkipFlagsDisableTheirPasses) {
  const SmallJob job;
  SpaceCheckOptions options;
  options.check_space = false;
  options.check_cost = false;
  options.check_differential = false;
  const SpaceCheckResult result = job.Run(options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.stats.mutants_total, 0u);
  EXPECT_EQ(result.stats.interval_checks, 0u);
  EXPECT_EQ(result.stats.differential_valid, 0u);
}

TEST(SpaceChecker, InjectMissingOptionTripsCompleteness) {
  const SmallJob job;
  SpaceCheckOptions options;
  options.inject = SpaceCheckInject::kMissingOption;
  const SpaceCheckResult result = job.Run(options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.report.HasRule(rules::kEscSpaceIncomplete))
      << result.report.ToString();
}

TEST(SpaceChecker, InjectCostNegativeTripsIntervalAudit) {
  const SmallJob job;
  SpaceCheckOptions options;
  options.inject = SpaceCheckInject::kCostNegative;
  const SpaceCheckResult result = job.Run(options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.report.HasRule(rules::kEscIntervalProperty))
      << result.report.ToString();
}

TEST(SpaceChecker, InjectValidatorSplitTripsDifferentialPass) {
  const SmallJob job;
  SpaceCheckOptions options;
  options.inject = SpaceCheckInject::kValidatorSplit;
  const SpaceCheckResult result = job.Run(options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.report.HasRule(rules::kEscValidatorSplit))
      << result.report.ToString();
}

TEST(SpaceChecker, InjectionsAreConfinedToTheirPass) {
  // Each planted violation must trip exactly its own rule — cross-pass fallout would
  // make the CI negative gates ambiguous.
  const SmallJob job;
  for (const SpaceCheckInject inject :
       {SpaceCheckInject::kMissingOption, SpaceCheckInject::kCostNegative,
        SpaceCheckInject::kValidatorSplit}) {
    SpaceCheckOptions options;
    options.inject = inject;
    const SpaceCheckResult result = job.Run(options);
    const size_t tripped = (result.report.HasRule(rules::kEscSpaceIncomplete) ? 1 : 0) +
                           (result.report.HasRule(rules::kEscIntervalProperty) ? 1 : 0) +
                           (result.report.HasRule(rules::kEscValidatorSplit) ? 1 : 0);
    EXPECT_EQ(tripped, 1u) << result.report.ToString();
    EXPECT_FALSE(result.report.HasRule(rules::kEscSpaceUnsound));
    EXPECT_FALSE(result.report.HasRule(rules::kEscFingerprintCollision));
  }
}

TEST(SpaceChecker, EmitCorpusWritesManifestAndFiles) {
  const SmallJob job;
  const std::string dir = ::testing::TempDir() + "/space_checker_corpus";
  std::filesystem::remove_all(dir);
  SpaceCheckOptions options;
  options.emit_corpus_dir = dir;
  const SpaceCheckResult result = job.Run(options);
  EXPECT_TRUE(result.ok()) << result.report.ToString();
  ASSERT_GT(result.stats.corpus_files_written, 0u);

  std::ifstream manifest(dir + "/MANIFEST.tsv");
  ASSERT_TRUE(manifest.good());
  std::string header;
  std::getline(manifest, header);
  EXPECT_EQ(header, "file\texpect");
  size_t rows = 0;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    ASSERT_NE(tab, std::string::npos) << line;
    const std::string file = line.substr(0, tab);
    const std::string expect = line.substr(tab + 1);
    EXPECT_TRUE(expect == "accept" || expect == "reject" || expect == "parse-error")
        << line;
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + file)) << file;
    ++rows;
  }
  // corpus_files_written counts the manifest itself alongside the IR documents.
  EXPECT_EQ(rows + 1, result.stats.corpus_files_written);
  std::filesystem::remove_all(dir);
}

TEST(SpaceChecker, EmitCorpusReportsFilesItCannotWrite) {
  const SmallJob job;
  const std::string dir = ::testing::TempDir() + "/space_checker_blocked_corpus";
  std::filesystem::remove_all(dir);
  // A directory where the first document should go: the write must fail loudly.
  const std::string blocked = "uniform-default.ir.json";
  std::filesystem::create_directories(dir + "/" + blocked);
  SpaceCheckOptions options;
  options.emit_corpus_dir = dir;
  const SpaceCheckResult result = job.Run(options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.report.HasRule(rules::kEscValidatorSplit));
  EXPECT_NE(result.report.ToString().find("cannot write corpus file"), std::string::npos)
      << result.report.ToString();
  EXPECT_NE(result.report.ToString().find(blocked), std::string::npos);

  // Only the files that reached the disk are counted and listed.
  std::ifstream manifest(dir + "/MANIFEST.tsv");
  ASSERT_TRUE(manifest.good());
  std::string line;
  std::getline(manifest, line);  // header
  size_t rows = 0;
  while (std::getline(manifest, line)) {
    EXPECT_EQ(line.find(blocked), std::string::npos) << line;
    EXPECT_TRUE(std::filesystem::is_regular_file(dir + "/" + line.substr(0, line.find('\t'))))
        << line;
    ++rows;
  }
  EXPECT_GT(rows, 0u);
  EXPECT_EQ(rows + 1, result.stats.corpus_files_written);
  std::filesystem::remove_all(dir);
}

TEST(SpaceChecker, DeterministicAcrossRuns) {
  // The seeded corpus and the enumeration order are deterministic, so two runs must
  // produce identical statistics (the CLI's --json byte-stability rests on this).
  const SmallJob job;
  const SpaceCheckResult a = job.Run();
  const SpaceCheckResult b = job.Run();
  EXPECT_EQ(a.stats.options, b.stats.options);
  EXPECT_EQ(a.stats.device_choices, b.stats.device_choices);
  EXPECT_EQ(a.stats.mutants_total, b.stats.mutants_total);
  EXPECT_EQ(a.stats.mutants_rejected, b.stats.mutants_rejected);
  EXPECT_EQ(a.stats.fingerprints_audited, b.stats.fingerprints_audited);
  EXPECT_EQ(a.stats.interval_checks, b.stats.interval_checks);
  EXPECT_EQ(a.stats.differential_valid, b.stats.differential_valid);
  EXPECT_EQ(a.stats.differential_corrupted, b.stats.differential_corrupted);
}

}  // namespace
}  // namespace espresso
