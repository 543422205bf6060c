// Deterministic, seed-driven fault schedules for chaos testing the Espresso runtime.
//
// §3.1's motivation — GPU/CPU resource contention and heterogeneous links — is exactly
// what drifts at runtime in a real cluster: stragglers, link jitter, contention spikes.
// A FaultPlan describes those hazards as probabilities and magnitudes; AtIteration()
// materializes the concrete faults of one training iteration as a pure function of
// (seed, iteration), so a schedule is reproducible bit-for-bit: two runs with the same
// spec see the same stragglers, the same jitter draws, the same payload fates.
//
// The plan is the one fault object, and it reaches every layer of the runtime:
//   * cost model  — PerturbCluster() degrades link bandwidth/latency, feeding the
//     TimelineEvaluator and the online re-selection path with observed (not profiled)
//     link parameters;
//   * simulation  — ScalesFor() converts an iteration's straggler / CPU-contention
//     state into ResourceScales for SimEngine task durations;
//   * data path   — PayloadFaultsAt() is the value the strategy executor draws each
//     payload's fate from (src/collectives/channel.h); CollectivePhaseFails() injects
//     coarse-grained phase failures for the retry/fallback machinery.
#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>

#include "src/collectives/channel.h"
#include "src/core/timeline.h"
#include "src/costmodel/calibration.h"
#include "src/util/config.h"

namespace espresso {

// Static description of the hazards ([faults] section of a fault config).
struct FaultSpec {
  uint64_t seed = 42;

  // Straggler: with `straggler_probability` per iteration, one machine's GPUs run
  // `straggler_slowdown`x slower, gating the whole synchronous iteration.
  double straggler_probability = 0.0;
  double straggler_slowdown = 1.0;  // >= 1

  // Link degradation: persistent bandwidth factors (1 = profiled speed) plus a
  // per-iteration multiplicative jitter of up to +/- `link_jitter` on each link.
  double inter_bandwidth_factor = 1.0;  // (0, 1]
  double intra_bandwidth_factor = 1.0;  // (0, 1]
  double link_jitter = 0.0;             // [0, 0.9]
  double inter_extra_latency_s = 0.0;

  // CPU-contention spike: with `cpu_contention_probability` per iteration the host
  // CPU compression workers run `cpu_slowdown`x slower.
  double cpu_contention_probability = 0.0;
  double cpu_slowdown = 1.0;  // >= 1

  // Data-path faults, drawn once per payload transmission (PayloadFaultsAt).
  double drop_probability = 0.0;     // payload lost outright
  double corrupt_probability = 0.0;  // payload delivered with flipped bits

  // Coarse-grained failure of a whole collective phase (retry/fallback exercise).
  double collective_failure_probability = 0.0;
};

// The concrete faults of one iteration (all draws resolved).
struct IterationFaults {
  uint64_t iteration = 0;
  bool straggler_active = false;
  bool cpu_contention_active = false;
  double compute_slowdown = 1.0;        // >= 1; applies to the GPU stream
  double cpu_slowdown = 1.0;            // >= 1; applies to the CPU compression pool
  double inter_bandwidth_factor = 1.0;  // jittered, (0, +inf)
  double intra_bandwidth_factor = 1.0;
  double inter_extra_latency_s = 0.0;
};

class FaultPlan {
 public:
  explicit FaultPlan(const FaultSpec& spec);

  // Parses the [faults] section through the range-checked config getters; bad knobs
  // fall back to their defaults and surface in config.warnings().
  static FaultPlan FromConfig(const ConfigFile& config);

  // Deterministic: a pure function of (spec.seed, iteration). Calls may come in any
  // order and from any thread.
  IterationFaults AtIteration(uint64_t iteration) const;

  // The cluster as it actually behaves during `faults`' iteration: inter/intra links
  // degraded and jittered per the plan. Compute-side slowdowns are returned separately
  // by ScalesFor() because they scale simulated task durations, not link parameters.
  static ClusterSpec PerturbCluster(const ClusterSpec& profiled, const IterationFaults& faults);

  // SimEngine speed factors for one iteration (straggler GPU, contended CPU pool, and
  // the same link factors as PerturbCluster for engines already built from the
  // profiled cluster).
  static ResourceScales ScalesFor(const IterationFaults& faults);

  // The payload faults of `iteration`, for ExecutorConfig::faults.
  PayloadFaults PayloadFaultsAt(uint64_t iteration) const;

  // Whether a whole collective phase fails on this attempt.
  bool CollectivePhaseFails(uint64_t iteration, uint64_t tensor_id, uint32_t attempt) const;

  const FaultSpec& spec() const { return spec_; }

  // True when every hazard is disabled (the plan is a no-op).
  bool Quiet() const;

  std::string Describe() const;

 private:
  FaultSpec spec_;
};

}  // namespace espresso

#endif  // SRC_FAULT_FAULT_PLAN_H_
