// Online strategy re-selection under cost-model drift.
//
// Espresso picks a per-tensor strategy from *profiled* costs (§4.3); at runtime the
// cluster drifts (congested NICs, contended fabrics). The DriftMonitor tracks the
// observed link parameters as an EWMA and flags when they have moved past a relative
// threshold from the profile; the OnlineReselector then re-runs the full decision
// algorithm against the drifted cost model and publishes the result through the
// fail-closed deployment pipeline (src/ddl/strategy_deployment.h): the re-selection is
// compiled to a digest-stamped StrategyIR, re-validated (digests, linter, schedule
// verifier), and atomically swapped — never mutated in place. A re-selection that
// fails admission leaves the last-known-good strategy running and is visible in the
// deployment's audit log and the espresso_deploy_* metrics. Re-selection is
// rate-limited by a cooldown so jitter does not thrash the strategy.
#ifndef SRC_FAULT_DRIFT_MONITOR_H_
#define SRC_FAULT_DRIFT_MONITOR_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/core/espresso.h"
#include "src/costmodel/calibration.h"
#include "src/ddl/strategy_deployment.h"
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
  // Deployment outcome: false means the admission pass refused the re-selection and
  // the previous strategy is still live (see the deployment's audit log for why).
  bool deployed = false;
  uint64_t version = 0;  // deployment version live after this event
};

// Owns the live strategy (through a StrategyDeployment) and the monitor; Step() feeds
// observations, re-selects on drift, and publishes through the deployment pipeline.
class OnlineReselector {
 public:
  // `compressor` must be the one built from `compressor_config` (the deployment
  // digests are recomputed from the config on every publish).
  OnlineReselector(const ModelProfile& model, const ClusterSpec& profiled,
                   const Compressor& compressor, const CompressorConfig& compressor_config,
                   const SelectorOptions& selector_options, const DriftConfig& drift_config);

  // The live strategy (the current deployment's snapshot). The reference stays valid
  // until the next strategy() / Step() call on this reselector.
  const Strategy& strategy() const;
  const DriftMonitor& monitor() const { return monitor_; }

  // The deployment pipeline this reselector publishes through: audit log, deploy
  // metrics, version history.
  StrategyDeployment& deployment() { return deployment_; }
  const StrategyDeployment& deployment() const { return deployment_; }

  // Feeds iteration `iteration`'s observed cluster. When drift triggers, re-runs the
  // Espresso selector on the smoothed cluster, publishes the result as a StrategyIR
  // through the deployment (fail-closed), and reports what changed; returns nullopt
  // when drift stayed below threshold or the cooldown is active.
  std::optional<ReselectionEvent> Step(uint64_t iteration, const ClusterSpec& observed);

 private:
  ModelProfile model_;
  ClusterSpec profiled_;
  const Compressor& compressor_;
  CompressorConfig compressor_config_;
  SelectorOptions selector_options_;
  DriftMonitor monitor_;
  StrategyDeployment deployment_;
  // Keeps the snapshot strategy() handed out alive across the next swap.
  mutable std::shared_ptr<const DeployedStrategy> snapshot_;
};

}  // namespace espresso

#endif  // SRC_FAULT_DRIFT_MONITOR_H_
