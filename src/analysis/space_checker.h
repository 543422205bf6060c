// Whole-space strategy model checker + symbolic cost-model property auditor — the
// engine behind the espresso_check CLI.
//
// Three passes over one (model, cluster, compressor) configuration triple:
//
//   1. Space check (esc.space-unsound / esc.space-incomplete / esc.fingerprint-collision)
//      Enumerates the FULL decision-tree option space and proves
//        soundness:      every enumerated option (and its all-CPU device variant) passes
//                        the StrategyLinter with zero errors and ValidateOption;
//        completeness:   every one-edit mutant of every enumerated option (shared
//                        mutation engine, src/core/option_mutations.h) either fails the
//                        linter or canonicalizes back into the enumerated set — no
//                        linter-legal option exists one edit outside the space; the
//                        selector's candidate seeds and the default uncompressed option
//                        must canonicalize into the space too;
//        fingerprints:   the splitmix64 option fingerprints of every enumerated option,
//                        every device-choice variant (§4.2's 2^slots), and every legal
//                        mutant's canonical form are collision-free.
//
//   2. Cost audit (esc.interval-property)
//      Evaluates the cost model symbolically over declared parameter ranges
//      (src/costmodel/interval.h) and checks, for every op of every enumerated option at
//      the model's smallest/median/largest tensors on both devices:
//        non-negativity: the duration interval has lo >= 0;
//        containment:    the concrete TimelineEvaluator duration lies inside the
//                        interval (the symbolic model bounds the priced one);
//        conservation:   compressed payload bytes never exceed the raw domain bytes and
//                        CompressedBytes is monotone in the input size;
//      plus two whole-strategy properties per option (uniform strategy):
//        monotonicity:   F(S) is non-increasing as link bandwidth scales up (x0.5 -> x1
//                        -> x2), within a relative scheduling tolerance;
//        ub-dominance:   the Upper Bound configuration (zero compression cost, §5.1)
//                        never prices the same strategy above the real configuration.
//
//   3. Differential validation (esc.validator-split)
//      Builds a corpus of valid strategies (default, candidate seeds, seeded random
//      mixes of enumerated options), one-edit-corrupted variants, and byte-tampered IR
//      documents; compiles each through the strategy IR writer and requires that the
//      StrategyLinter verdict and the ValidateStrategyIR admission verdict agree on
//      every round-tripped document, and that tampered documents fail to parse. The
//      corpus can be emitted to disk (MANIFEST.tsv + .ir.json files) for the committed
//      regression corpus under tests/analysis/corpus/.
//
// `inject` plants one known violation per mode so CI can prove each pass actually
// fails: kMissingOption deletes the default option's enumerated twin (space pass),
// kCostNegative corrupts a parameter range to touch negative launch time (cost pass),
// kValidatorSplit flips one recorded lint verdict (differential pass).
#ifndef SRC_ANALYSIS_SPACE_CHECKER_H_
#define SRC_ANALYSIS_SPACE_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/analysis/diagnostics.h"
#include "src/compress/compressor.h"
#include "src/costmodel/calibration.h"
#include "src/models/model_profile.h"

namespace espresso {

namespace rules {
// espresso_check rule ids (docs/ANALYSIS.md).
inline constexpr const char* kEscSpaceUnsound = "esc.space-unsound";
inline constexpr const char* kEscSpaceIncomplete = "esc.space-incomplete";
inline constexpr const char* kEscFingerprintCollision = "esc.fingerprint-collision";
inline constexpr const char* kEscIntervalProperty = "esc.interval-property";
inline constexpr const char* kEscValidatorSplit = "esc.validator-split";
}  // namespace rules

enum class SpaceCheckInject {
  kNone = 0,
  kMissingOption,   // space pass must report esc.space-incomplete
  kCostNegative,    // cost pass must report esc.interval-property
  kValidatorSplit,  // differential pass must report esc.validator-split
};

struct SpaceCheckOptions {
  bool check_space = true;
  bool check_cost = true;
  bool check_differential = true;

  // When non-empty, the differential pass writes the corpus (MANIFEST.tsv + .ir.json
  // files) into this directory (created if missing). A file that cannot be written is
  // an error diagnostic; corpus_files_written counts only the files written.
  std::string emit_corpus_dir;

  SpaceCheckInject inject = SpaceCheckInject::kNone;
};

struct SpaceCheckStats {
  size_t options = 0;                 // enumerated structural options
  size_t device_choices = 0;          // with 2^slots device assignments
  size_t mutants_total = 0;
  size_t mutants_rejected = 0;        // failed the linter (as they must)
  size_t mutants_reenumerated = 0;    // legal and canonicalized into the space
  size_t fingerprints_audited = 0;
  size_t fingerprint_collisions = 0;
  size_t interval_checks = 0;
  size_t monotonicity_checks = 0;
  size_t differential_valid = 0;
  size_t differential_corrupted = 0;
  size_t differential_tampered = 0;
  size_t corpus_files_written = 0;
};

struct SpaceCheckResult {
  DiagnosticReport report;
  SpaceCheckStats stats;

  bool ok() const { return !report.HasErrors(); }
};

// Runs the requested passes over one configuration triple. `compressor_config` must be
// the configuration `compressor` was created from (the IR compiler digests it).
SpaceCheckResult CheckStrategySpace(const ModelProfile& model, const ClusterSpec& cluster,
                                    const Compressor& compressor,
                                    const CompressorConfig& compressor_config,
                                    size_t max_compress_ops,
                                    const SpaceCheckOptions& options = {});

}  // namespace espresso

#endif  // SRC_ANALYSIS_SPACE_CHECKER_H_
