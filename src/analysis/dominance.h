// DominanceChecker: asserts the F(S) ordering Espresso's evaluation (§5) claims —
// the selected strategy is no slower than each baseline's restricted search space
// (FP32/BytePS, HiPress, HiTopKComm, BytePS-Compress), and no faster than the analytic
// Upper Bound (zero-cost compression, §5.1). A violation means either the cost model
// went non-monotonic or the selector regressed; both are silent-wrongness bugs a
// benchmark table will happily print.
//
// CheckCostModelSanity audits the inputs the ordering rests on: alpha (latency) and
// beta (bandwidth) ranges of both links, non-negative compression costs, and
// non-negative op durations over a sweep of tensor sizes.
#ifndef SRC_ANALYSIS_DOMINANCE_H_
#define SRC_ANALYSIS_DOMINANCE_H_

#include <string>

#include "src/analysis/diagnostics.h"
#include "src/compress/compressor.h"
#include "src/core/strategy.h"
#include "src/costmodel/calibration.h"
#include "src/models/model_profile.h"

namespace espresso {

namespace rules {
inline constexpr const char* kWorseThanBaseline = "dominance.worse-than-baseline";
inline constexpr const char* kBeatsUpperBound = "dominance.beats-upper-bound";
inline constexpr const char* kAlphaRange = "costmodel.alpha-range";
inline constexpr const char* kBetaRange = "costmodel.beta-range";
inline constexpr const char* kNegativeDurationModel = "costmodel.negative-duration";
}  // namespace rules

struct DominanceResult {
  DiagnosticReport report;
  double checked_iteration_time = 0.0;
  double upper_bound_iteration_time = 0.0;
  // name -> iteration time of every baseline compared against.
  std::vector<std::pair<std::string, double>> baselines;
};

// Compares `strategy` (normally the selector's output) against the four baselines and
// the Upper Bound on (model, cluster, compressor), with a relative slack of 0.5%:
// baselines within it of the checked strategy produce notes, beyond it errors; beating
// the Upper Bound by more than it is always an error.
DominanceResult CheckDominance(const ModelProfile& model, const ClusterSpec& cluster,
                               const Compressor& compressor, const Strategy& strategy);

// Cost-model sanity only (also run by CheckDominance first).
DiagnosticReport CheckCostModelSanity(const ModelProfile& model, const ClusterSpec& cluster,
                                      const Compressor& compressor);

}  // namespace espresso

#endif  // SRC_ANALYSIS_DOMINANCE_H_
