// Fail-closed admission control for strategy IR documents: the gate espresso_cli
// --ir-in, strategy_lint --ir, every IR espresso_serve answers with, and every
// OnlineReselector re-selection (src/fault/drift_monitor.h) pass before they run.
//
// A parsed StrategyIR is *syntactically* sound — the parser already enforced the
// schema and the payload digest. This pass decides whether it may EXECUTE on a given
// job configuration:
//   1. config digests: the IR's model/cluster/compression digests are recomputed from
//      the loader's own configuration; any mismatch is an error (the strategy was
//      selected for a different job) unless `force_digest` downgrades it to a warning;
//   2. legality: the full StrategyLinter pass, with the model's tensor count enforced;
//   3. schedule: the strategy is simulated on this configuration and the recorded
//      timeline re-checked by the ScheduleVerifier.
// The default posture is fail-closed: any error in the report means "do not run this
// strategy" — the CLIs exit non-zero, the service answers with a typed error, and the
// reselector keeps its last-known-good strategy.
#ifndef SRC_ANALYSIS_IR_VALIDATOR_H_
#define SRC_ANALYSIS_IR_VALIDATOR_H_

#include "src/analysis/diagnostics.h"
#include "src/analysis/schedule_verifier.h"
#include "src/compress/compressor.h"
#include "src/core/strategy_ir.h"
#include "src/costmodel/calibration.h"
#include "src/models/model_profile.h"

namespace espresso {

namespace rules {
// IR admission rules (docs/ANALYSIS.md has the catalog).
inline constexpr const char* kIrSchemaVersion = "ir.schema-version";
inline constexpr const char* kIrDigestMismatch = "ir.digest-mismatch";
inline constexpr const char* kIrScoreDrift = "ir.score-drift";
}  // namespace rules

struct IRValidationOptions {
  // Downgrades config-digest mismatches from error to warning. The escape hatch for
  // deliberate cross-config deploys (e.g. a recalibrated cluster file); legality and
  // schedule checks still run at full strictness.
  bool force_digest = false;
  // User constraint forwarded to the decision-tree config (JobConfig::max_compress_ops).
  size_t max_compress_ops = 0;
  // Verifier tuning. `cpu_workers` is overridden from the cluster spec; check_priority
  // is honored as given.
  VerifierConfig verifier;
};

struct IRValidationResult {
  // Fail-closed gate: true iff the report has no errors. Warnings do not block.
  bool ok = false;
  // True when any config digest differed, even under force_digest.
  bool digest_mismatch = false;
  // F(S) re-evaluated on THIS configuration (0 when the simulation was skipped).
  // Differs from ir.fs_score when the configs differ or the cost model changed.
  double evaluated_fs = 0.0;
  DiagnosticReport report;
};

// Validates `ir` for execution against the loader's own job configuration.
// `compressor` must be the one built from `compressor_config`.
IRValidationResult ValidateStrategyIR(const StrategyIR& ir, const ModelProfile& model,
                                      const ClusterSpec& cluster,
                                      const Compressor& compressor,
                                      const CompressorConfig& compressor_config,
                                      const IRValidationOptions& options = {});

}  // namespace espresso

#endif  // SRC_ANALYSIS_IR_VALIDATOR_H_
