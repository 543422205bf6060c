#include "src/analysis/ir_validator.h"

#include <cmath>
#include <string>

#include "src/analysis/strategy_linter.h"
#include "src/core/decision_tree.h"
#include "src/core/timeline.h"

namespace espresso {

namespace {

// Relative slack for comparing the IR's recorded F(S) against a fresh evaluation on an
// identical configuration. The evaluator is deterministic, so any drift beyond noise
// means the cost model changed since selection — worth a warning, not a refusal.
constexpr double kScoreRelTolerance = 1e-9;

void CheckDigest(DiagnosticReport* report, bool force, const char* which,
                 uint64_t expected, uint64_t actual, bool* mismatch) {
  if (expected == actual) {
    return;
  }
  *mismatch = true;
  const std::string message = std::string(which) + " digest mismatch: IR was selected for " +
                              DigestHex(expected) + ", this job hashes to " +
                              DigestHex(actual);
  if (force) {
    report->AddWarning(rules::kIrDigestMismatch, Diagnostic::kStrategyScope,
                       message + " (forced past by --force-digest)");
  } else {
    report->AddError(rules::kIrDigestMismatch, Diagnostic::kStrategyScope, message,
                     "re-select for this configuration, or pass --force-digest to "
                     "accept the mismatch deliberately");
  }
}

}  // namespace

IRValidationResult ValidateStrategyIR(const StrategyIR& ir, const ModelProfile& model,
                                      const ClusterSpec& cluster,
                                      const Compressor& compressor,
                                      const CompressorConfig& compressor_config,
                                      const IRValidationOptions& options) {
  IRValidationResult result;

  // 0. Schema version — the parser enforces this for file loads, but IRs can also be
  // built in memory (and a future loader may hand over a migrated document).
  if (ir.schema_version != kStrategyIrSchemaVersion) {
    result.report.AddError(rules::kIrSchemaVersion, Diagnostic::kStrategyScope,
                           "unsupported schema version " +
                               std::to_string(ir.schema_version) + " (this build runs " +
                               std::to_string(kStrategyIrSchemaVersion) + ")");
  }

  // 1. Config digests (fail-closed, force downgrades to warning).
  CheckDigest(&result.report, options.force_digest, "model", ir.model_digest,
              ModelDigest(model), &result.digest_mismatch);
  CheckDigest(&result.report, options.force_digest, "cluster", ir.cluster_digest,
              ClusterDigest(cluster), &result.digest_mismatch);
  CheckDigest(&result.report, options.force_digest, "compression", ir.compression_digest,
              CompressionDigest(compressor_config), &result.digest_mismatch);

  // 2. Legality: the full linter pass against this cluster's decision tree.
  const TreeConfig tree{cluster.machines, cluster.gpus_per_machine,
                        compressor.SupportsCompressedAggregation(),
                        options.max_compress_ops};
  LintOptions lint_options;
  lint_options.expected_tensors = model.tensors.size();
  result.report.Merge(LintStrategy(tree, ir.strategy, lint_options));

  // 3. Schedule: simulate on THIS configuration and re-verify the recorded timeline.
  // Skipped once anything above erred — an illegal option prices as garbage, and a
  // wrong-sized strategy cannot be simulated against this model at all.
  if (!result.report.HasErrors()) {
    TimelineEvaluator evaluator(model, cluster, compressor);
    const TimelineResult timeline = evaluator.Evaluate(ir.strategy, /*record_entries=*/true);
    VerifierConfig verifier = options.verifier;
    verifier.cpu_workers = cluster.cpu_workers_per_gpu;
    result.report.Merge(VerifySimulatedTimeline(ir.strategy, timeline.entries, verifier));
    result.evaluated_fs = timeline.iteration_time;
    const double reference = std::max(std::abs(ir.fs_score), std::abs(timeline.iteration_time));
    if (!result.digest_mismatch &&
        std::abs(timeline.iteration_time - ir.fs_score) > kScoreRelTolerance * reference) {
      result.report.AddWarning(
          rules::kIrScoreDrift, Diagnostic::kStrategyScope,
          "recorded F(S) " + std::to_string(ir.fs_score) + "s re-evaluates to " +
              std::to_string(timeline.iteration_time) +
              "s on an identical configuration (cost model changed since selection?)");
    }
  }

  result.ok = !result.report.HasErrors();
  return result;
}

}  // namespace espresso
