// FaultInjector: applies a FaultPlan to the three layers of the runtime.
//
//   * cost model  — PerturbCluster() degrades link bandwidth/latency, feeding the
//     TimelineEvaluator and the online re-selection path with observed (not profiled)
//     link parameters;
//   * simulation  — ScalesFor() converts an iteration's straggler / CPU-contention
//     state into ResourceScales for SimEngine task durations;
//   * data path   — AttemptFate() / Corrupt() decide each payload transmission's
//     outcome and mutate corrupted wire buffers; CollectivePhaseFails() injects
//     coarse-grained phase failures for the retry/fallback machinery.
//
// Everything is a pure function of (plan seed, coordinates), so a chaos run replays
// bit-for-bit.
#ifndef SRC_FAULT_INJECTOR_H_
#define SRC_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/collectives/channel.h"
#include "src/core/timeline.h"
#include "src/costmodel/calibration.h"
#include "src/fault/fault_plan.h"

namespace espresso {

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  // The cluster as it actually behaves during `faults`' iteration: inter/intra links
  // degraded and jittered per the plan. Compute-side slowdowns are returned separately
  // by ScalesFor() because they scale simulated task durations, not link parameters.
  ClusterSpec PerturbCluster(const ClusterSpec& profiled, const IterationFaults& faults) const;

  // SimEngine speed factors for one iteration (straggler GPU, contended CPU pool, and
  // the same link factors as PerturbCluster for engines already built from the
  // profiled cluster).
  ResourceScales ScalesFor(const IterationFaults& faults) const;

  // Outcome of one payload transmission.
  PayloadFate AttemptFate(uint64_t iteration, uint64_t rank, uint64_t tensor_id) const;

  // Deterministically flips one bit of the payload's contents.
  void Corrupt(uint64_t iteration, uint64_t rank, uint64_t tensor_id,
               CompressedTensor* payload) const;

  // Whether a whole collective phase fails on this attempt.
  bool CollectivePhaseFails(uint64_t iteration, uint64_t tensor_id, uint32_t attempt) const;

 private:
  FaultPlan plan_;
};

}  // namespace espresso

#endif  // SRC_FAULT_INJECTOR_H_
