// Fail-closed admission of strategy IR documents: digests compared against the
// loader's own configuration, the full linter pass, and schedule re-verification —
// with --force-digest downgrading only the digest gate and never the legality gates.
#include "src/analysis/ir_validator.h"

#include <gtest/gtest.h>

#include "src/core/baselines.h"
#include "src/core/espresso.h"
#include "src/models/model_zoo.h"

namespace espresso {
namespace {

struct ValidatorFixture {
  ModelProfile model = Lstm();
  ClusterSpec cluster = NvlinkCluster(2, 2);
  CompressorConfig gc{.algorithm = "dgc", .ratio = 0.01};
  std::unique_ptr<Compressor> compressor = CreateCompressor(gc);

  StrategyIR Compile() const {
    EspressoSelector selector(model, cluster, *compressor);
    const SelectionResult result = selector.Select();
    StrategyProvenance provenance;
    provenance.origin = "test";
    provenance.selector = "espresso";
    return CompileStrategyIR(result.strategy, result.iteration_time, model, cluster, gc,
                             provenance);
  }

  IRValidationResult Validate(const StrategyIR& ir,
                              const IRValidationOptions& options = {}) const {
    return ValidateStrategyIR(ir, model, cluster, *compressor, gc, options);
  }
};

TEST(IrValidator, AdmitsAFreshlyCompiledIr) {
  const ValidatorFixture fixture;
  const StrategyIR ir = fixture.Compile();
  const IRValidationResult result = fixture.Validate(ir);
  EXPECT_TRUE(result.ok) << result.report.ToString();
  EXPECT_FALSE(result.digest_mismatch);
  EXPECT_FALSE(result.report.HasErrors());
  EXPECT_NEAR(result.evaluated_fs, ir.fs_score, 1e-12);
}

TEST(IrValidator, RefusesUnknownSchemaVersion) {
  const ValidatorFixture fixture;
  StrategyIR ir = fixture.Compile();
  ir.schema_version = kStrategyIrSchemaVersion + 1;
  const IRValidationResult result = fixture.Validate(ir);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.report.HasRule(rules::kIrSchemaVersion))
      << result.report.ToString();
}

TEST(IrValidator, RefusesEveryStaleConfigDigest) {
  const ValidatorFixture fixture;
  for (int which = 0; which < 3; ++which) {
    StrategyIR ir = fixture.Compile();
    (which == 0   ? ir.model_digest
     : which == 1 ? ir.cluster_digest
                  : ir.compression_digest) ^= 1;
    const IRValidationResult result = fixture.Validate(ir);
    EXPECT_FALSE(result.ok) << "digest " << which;
    EXPECT_TRUE(result.digest_mismatch);
    EXPECT_TRUE(result.report.HasRule(rules::kIrDigestMismatch))
        << result.report.ToString();
    // Fail-closed also means: don't burn simulation time on a refused document.
    EXPECT_EQ(result.evaluated_fs, 0.0);
  }
}

TEST(IrValidator, ForceDigestDowngradesToWarningButStillAudits) {
  const ValidatorFixture fixture;
  StrategyIR ir = fixture.Compile();
  ir.cluster_digest ^= 1;
  IRValidationOptions options;
  options.force_digest = true;
  const IRValidationResult result = fixture.Validate(ir, options);
  EXPECT_TRUE(result.ok) << result.report.ToString();
  EXPECT_TRUE(result.digest_mismatch);  // callers audit forced deploys
  EXPECT_TRUE(result.report.HasRule(rules::kIrDigestMismatch));
  EXPECT_FALSE(result.report.HasErrors());
  EXPECT_GT(result.report.WarningCount(), 0u);
}

TEST(IrValidator, RefusesIllegalStrategiesEvenWhenForced) {
  const ValidatorFixture fixture;
  StrategyIR ir = fixture.Compile();
  // Plant a double-compress: digests are stale now AND the strategy is illegal.
  Op compress;
  compress.task = ActionTask::kCompress;
  compress.phase = ir.strategy.options[0].flat ? CommPhase::kFlat : CommPhase::kIntraFirst;
  compress.domain_fraction = 1.0;
  compress.payload_fraction = 0.1;
  ir.strategy.options[0].ops.insert(ir.strategy.options[0].ops.begin(), 2, compress);
  IRValidationOptions options;
  options.force_digest = true;  // the escape hatch must not bypass legality
  const IRValidationResult result = fixture.Validate(ir, options);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.report.HasErrors());
}

TEST(IrValidator, RefusesWrongTensorCount) {
  const ValidatorFixture fixture;
  StrategyIR ir = fixture.Compile();
  ir.strategy.options.pop_back();
  const IRValidationResult result = fixture.Validate(ir);
  EXPECT_FALSE(result.ok) << result.report.ToString();
}

TEST(IrValidator, WarnsOnScoreDrift) {
  const ValidatorFixture fixture;
  StrategyIR ir = fixture.Compile();
  ir.fs_score *= 1.25;  // claims a score the local cost model cannot reproduce
  const IRValidationResult result = fixture.Validate(ir);
  EXPECT_TRUE(result.ok) << result.report.ToString();  // drift warns, never blocks
  EXPECT_TRUE(result.report.HasRule(rules::kIrScoreDrift)) << result.report.ToString();
}

}  // namespace
}  // namespace espresso
