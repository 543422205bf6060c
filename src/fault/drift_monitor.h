// Online strategy re-selection under cost-model drift.
//
// Espresso picks a per-tensor strategy from *profiled* costs (§4.3); at runtime the
// cluster drifts (congested NICs, contended fabrics). The DriftMonitor tracks the
// observed link parameters as an EWMA and flags when they have moved past a relative
// threshold from the profile; the OnlineReselector then re-runs the full decision
// algorithm against the drifted cost model, compiles the result to a digest-stamped
// StrategyIR and admits it with the fail-closed ValidateStrategyIR pass (digests,
// linter, schedule verifier) before it replaces the live strategy. A re-selection that
// fails admission leaves the last-known-good strategy running and is counted in
// espresso_drift_rejected_total. Re-selection is rate-limited by a cooldown so jitter
// does not thrash the strategy.
#ifndef SRC_FAULT_DRIFT_MONITOR_H_
#define SRC_FAULT_DRIFT_MONITOR_H_

#include <cstdint>
#include <optional>

#include "src/core/espresso.h"
#include "src/costmodel/calibration.h"
#include "src/util/config.h"

namespace espresso {

struct DriftConfig {
  double threshold = 0.25;           // relative bandwidth drift triggering re-selection
  double smoothing = 0.5;            // EWMA weight of the newest observation, (0, 1]
  uint64_t cooldown_iterations = 5;  // min iterations between re-selections

  // Parses the [drift] section; bad knobs fall back and surface in config.warnings().
  static DriftConfig FromConfig(const ConfigFile& config);
};

class DriftMonitor {
 public:
  DriftMonitor(const DriftConfig& config, const ClusterSpec& profiled);

  // Feeds one iteration's observed cluster behaviour. Returns true when the smoothed
  // drift exceeds the threshold and the cooldown has elapsed — the caller should
  // re-select and then call AcknowledgeReselection().
  bool Observe(uint64_t iteration, const ClusterSpec& observed);

  // Max relative deviation of the smoothed link parameters (bandwidths AND
  // latencies) from the profile. A pure latency degradation — e.g. a jittery NIC
  // adding alpha without touching beta — drifts just like a bandwidth loss.
  // Latency deviation is only measured for links whose profiled latency is
  // positive (a zero-alpha profile has no relative scale).
  double drift() const;

  // The profiled cluster with its links replaced by the smoothed observations — the
  // perturbed cost model re-selection runs against.
  ClusterSpec SmoothedCluster() const;

  void AcknowledgeReselection(uint64_t iteration);

 private:
  DriftConfig config_;
  ClusterSpec profiled_;
  bool has_observation_ = false;
  double ewma_inter_bw_ = 0.0;
  double ewma_intra_bw_ = 0.0;
  double ewma_inter_latency_ = 0.0;
  double ewma_intra_latency_ = 0.0;
  bool reselected_once_ = false;
  uint64_t last_reselection_ = 0;
};

struct ReselectionEvent {
  uint64_t iteration = 0;
  double drift = 0.0;
  double stale_iteration_time = 0.0;  // F(S_old) under the drifted cost model
  double new_iteration_time = 0.0;    // F(S_new) under the drifted cost model
  size_t options_changed = 0;         // tensors whose option the swap replaced
  // Admission outcome: false means ValidateStrategyIR refused the re-selection and the
  // previous strategy is still live.
  bool deployed = false;
};

// Owns the live strategy and the monitor; Step() feeds observations, re-selects on
// drift, and replaces the live strategy only with an admitted re-selection.
class OnlineReselector {
 public:
  // `compressor` must be the one built from `compressor_config` (the IR's digests are
  // recomputed from the config on every admission).
  OnlineReselector(const ModelProfile& model, const ClusterSpec& profiled,
                   const Compressor& compressor, const CompressorConfig& compressor_config,
                   const SelectorOptions& selector_options, const DriftConfig& drift_config);

  // The live strategy. An admitted Step() overwrites it in place, so a reader on
  // another thread must not hold the reference across a Step().
  const Strategy& strategy() const { return strategy_; }
  const DriftMonitor& monitor() const { return monitor_; }

  // Feeds iteration `iteration`'s observed cluster. When drift triggers, re-runs the
  // Espresso selector on the smoothed cluster, compiles the result to a StrategyIR,
  // admits it (fail-closed) and reports what changed; returns nullopt when drift
  // stayed below threshold or the cooldown is active.
  std::optional<ReselectionEvent> Step(uint64_t iteration, const ClusterSpec& observed);

 private:
  ModelProfile model_;
  ClusterSpec profiled_;
  const Compressor& compressor_;
  CompressorConfig compressor_config_;
  SelectorOptions selector_options_;
  DriftMonitor monitor_;
  Strategy strategy_;
};

}  // namespace espresso

#endif  // SRC_FAULT_DRIFT_MONITOR_H_
