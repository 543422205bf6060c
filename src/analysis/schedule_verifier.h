// ScheduleVerifier: a race/causality detector over TimelineEntry streams.
//
// The timeline engine is trusted by every layer above it — the decision algorithm ranks
// strategies by the makespans it produces, the benches regenerate paper figures from
// its entries, and the fault layer perturbs its resource speeds. The verifier re-checks
// the invariants a legal schedule must satisfy, from the entries alone:
//   * serial resources (gpu, intra, inter) never run two intervals at once;
//   * the cpu pool's instantaneous occupancy never exceeds its worker count;
//   * every op starts at or after its chain predecessor's end (WFBP causality: entries
//     of one tensor form a dependency chain behind its backward compute);
//   * FIFO/WFBP priority holds on serial resources: a ready op of a
//     closer-to-the-output tensor is never passed over in favor of a later tensor;
//   * durations are finite and non-negative, and nothing starts before t = 0.
// Violations carry a minimal witness — the one or two intervals that prove them.
//
// Entries must arrive grouped per tensor in pipeline order (TimelineEvaluator::Evaluate
// emits exactly this: n "compute" entries, then each tensor's ops in option order).
// Built into espresso_core under -DESPRESSO_VERIFY_SCHEDULES so every simulated
// timeline in the test and bench suites is verified as a side effect.
#ifndef SRC_ANALYSIS_SCHEDULE_VERIFIER_H_
#define SRC_ANALYSIS_SCHEDULE_VERIFIER_H_

#include <cstddef>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/strategy.h"
#include "src/core/timeline.h"

namespace espresso {

namespace rules {
inline constexpr const char* kSerialOverlap = "schedule.serial-overlap";
inline constexpr const char* kPoolOvercommit = "schedule.pool-overcommit";
inline constexpr const char* kCausality = "schedule.causality";
inline constexpr const char* kPriorityInversion = "schedule.priority-inversion";
inline constexpr const char* kNegativeDuration = "schedule.negative-duration";
inline constexpr const char* kNonFiniteTime = "schedule.non-finite-time";
inline constexpr const char* kOpCountMismatch = "schedule.op-count-mismatch";
inline constexpr const char* kBytesNotConserved = "schedule.bytes-not-conserved";
}  // namespace rules

struct VerifierConfig {
  // Capacity of the "cpu" pool resource (ClusterSpec::cpu_workers_per_gpu).
  size_t cpu_workers = 1;
  // WFBP priority auditing can be disabled for hand-built entry streams that carry no
  // meaningful tensor ordering.
  bool check_priority = true;
};

// Verifies the scheduling invariants of an entry stream.
DiagnosticReport VerifySchedule(const std::vector<TimelineEntry>& entries,
                                const VerifierConfig& config);

// VerifySchedule plus strategy correspondence: each tensor's entries must match its
// option's ops one-to-one (compress/decompress/comm counts and kinds), which — together
// with the linter's payload-flow rules — is how byte conservation across
// compress -> comm -> decompress is enforced end to end.
DiagnosticReport VerifySimulatedTimeline(const Strategy& strategy,
                                         const std::vector<TimelineEntry>& entries,
                                         const VerifierConfig& config);

}  // namespace espresso

#endif  // SRC_ANALYSIS_SCHEDULE_VERIFIER_H_
