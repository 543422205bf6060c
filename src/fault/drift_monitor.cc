#include "src/fault/drift_monitor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/analysis/ir_validator.h"
#include "src/core/strategy_ir.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace espresso {

namespace {

double RelativeDeviation(double observed, double profiled) {
  ESP_CHECK_GT(profiled, 0.0) << "profiled link parameter must be positive";
  return std::abs(observed / profiled - 1.0);
}

// Latency may legitimately be profiled as zero (an ideal alpha-free link); there is
// no relative scale to drift against then, so such links contribute no deviation.
double LatencyDeviation(double observed, double profiled) {
  return profiled > 0.0 ? RelativeDeviation(observed, profiled) : 0.0;
}

struct DriftMetrics {
  obs::Counter observations;
  obs::Counter reselections;
  obs::Counter rejected;
  obs::Counter options_changed;
  obs::Gauge drift;
};

const DriftMetrics& Metrics() {
  static const DriftMetrics m = [] {
    auto& r = obs::GlobalMetrics();
    DriftMetrics dm;
    dm.observations = r.RegisterCounter("espresso_drift_observations_total",
                                        "Cluster observations fed to the drift monitor");
    dm.reselections = r.RegisterCounter("espresso_drift_reselections_total",
                                        "Strategy hot-swaps triggered by drift");
    dm.rejected = r.RegisterCounter(
        "espresso_drift_rejected_total",
        "Drift-triggered re-selections refused by the fail-closed admission pass");
    dm.options_changed = r.RegisterCounter(
        "espresso_drift_options_changed_total",
        "Tensor options replaced across all drift-triggered re-selections");
    dm.drift = r.RegisterGauge("espresso_drift_current",
                               "Smoothed relative drift vs the profiled cluster");
    return dm;
  }();
  return m;
}

}  // namespace

DriftConfig DriftConfig::FromConfig(const ConfigFile& config) {
  DriftConfig drift;
  drift.threshold = config.GetDoubleOr("drift", "threshold", drift.threshold, 0.0, 100.0);
  drift.smoothing = config.GetDoubleOr("drift", "smoothing", drift.smoothing, 1e-6, 1.0);
  drift.cooldown_iterations = static_cast<uint64_t>(config.GetIntOr(
      "drift", "cooldown_iterations", static_cast<int64_t>(drift.cooldown_iterations), 0,
      1'000'000));
  return drift;
}

DriftMonitor::DriftMonitor(const DriftConfig& config, const ClusterSpec& profiled)
    : config_(config), profiled_(profiled) {
  ESP_CHECK_GT(config.smoothing, 0.0);
  ESP_CHECK_LE(config.smoothing, 1.0);
  ESP_CHECK_GE(config.threshold, 0.0);
  ESP_CHECK_GT(profiled.inter.bytes_per_second, 0.0);
  ESP_CHECK_GT(profiled.intra.bytes_per_second, 0.0);
  ewma_inter_bw_ = profiled.inter.bytes_per_second;
  ewma_intra_bw_ = profiled.intra.bytes_per_second;
  ewma_inter_latency_ = profiled.inter.latency_s;
  ewma_intra_latency_ = profiled.intra.latency_s;
}

bool DriftMonitor::Observe(uint64_t iteration, const ClusterSpec& observed) {
  const double a = config_.smoothing;
  ewma_inter_bw_ = a * observed.inter.bytes_per_second + (1.0 - a) * ewma_inter_bw_;
  ewma_intra_bw_ = a * observed.intra.bytes_per_second + (1.0 - a) * ewma_intra_bw_;
  ewma_inter_latency_ = a * observed.inter.latency_s + (1.0 - a) * ewma_inter_latency_;
  ewma_intra_latency_ = a * observed.intra.latency_s + (1.0 - a) * ewma_intra_latency_;
  has_observation_ = true;
  auto& registry = obs::GlobalMetrics();
  registry.Add(Metrics().observations);
  registry.Set(Metrics().drift, drift());
  if (reselected_once_ &&
      iteration < last_reselection_ + config_.cooldown_iterations) {
    return false;
  }
  return drift() > config_.threshold;
}

double DriftMonitor::drift() const {
  if (!has_observation_) return 0.0;
  const double bw_drift =
      std::max(RelativeDeviation(ewma_inter_bw_, profiled_.inter.bytes_per_second),
               RelativeDeviation(ewma_intra_bw_, profiled_.intra.bytes_per_second));
  const double latency_drift =
      std::max(LatencyDeviation(ewma_inter_latency_, profiled_.inter.latency_s),
               LatencyDeviation(ewma_intra_latency_, profiled_.intra.latency_s));
  return std::max(bw_drift, latency_drift);
}

ClusterSpec DriftMonitor::SmoothedCluster() const {
  ClusterSpec drifted = profiled_;
  drifted.inter.bytes_per_second = ewma_inter_bw_;
  drifted.inter.latency_s = ewma_inter_latency_;
  drifted.intra.bytes_per_second = ewma_intra_bw_;
  drifted.intra.latency_s = ewma_intra_latency_;
  return drifted;
}

void DriftMonitor::AcknowledgeReselection(uint64_t iteration) {
  reselected_once_ = true;
  last_reselection_ = iteration;
}

OnlineReselector::OnlineReselector(const ModelProfile& model, const ClusterSpec& profiled,
                                   const Compressor& compressor,
                                   const CompressorConfig& compressor_config,
                                   const SelectorOptions& selector_options,
                                   const DriftConfig& drift_config)
    : model_(model),
      profiled_(profiled),
      compressor_(compressor),
      compressor_config_(compressor_config),
      selector_options_(selector_options),
      monitor_(drift_config, profiled) {
  EspressoSelector selector(model_, profiled_, compressor_, selector_options_);
  strategy_ = selector.Select().strategy;
}

std::optional<ReselectionEvent> OnlineReselector::Step(uint64_t iteration,
                                                       const ClusterSpec& observed) {
  if (!monitor_.Observe(iteration, observed)) return std::nullopt;

  const ClusterSpec drifted = monitor_.SmoothedCluster();
  EspressoSelector selector(model_, drifted, compressor_, selector_options_);
  SelectionResult result = selector.Select();

  ReselectionEvent event;
  event.iteration = iteration;
  event.drift = monitor_.drift();
  event.stale_iteration_time = selector.evaluator().IterationTime(strategy_);
  event.new_iteration_time = result.iteration_time;
  ESP_CHECK_EQ(result.strategy.options.size(), strategy_.options.size());
  for (size_t t = 0; t < strategy_.options.size(); ++t) {
    if (!(result.strategy.options[t] == strategy_.options[t])) ++event.options_changed;
  }

  // Admit through the fail-closed pass before replacing anything. The IR's digests and
  // F(S) are stamped against the PROFILED configuration — the one admission validates
  // against — so the document is self-consistent; the drifted scores travel in the
  // event (and the drift magnitude in the provenance).
  StrategyProvenance provenance;
  provenance.origin = "online-reselector";
  provenance.selector = "espresso";
  provenance.iteration = iteration;
  provenance.drift = event.drift;
  const TimelineEvaluator profiled_evaluator(model_, profiled_, compressor_);
  const StrategyIR ir = CompileStrategyIR(
      result.strategy, profiled_evaluator.IterationTime(result.strategy), model_,
      profiled_, compressor_config_, std::move(provenance));
  event.deployed =
      ValidateStrategyIR(ir, model_, profiled_, compressor_, compressor_config_).ok;

  // The cooldown applies whether or not admission accepted: a refused IR would be
  // refused again next iteration, and re-selection is too expensive to spin on.
  monitor_.AcknowledgeReselection(iteration);
  auto& registry = obs::GlobalMetrics();
  if (event.deployed) {
    strategy_ = std::move(result.strategy);
    registry.Add(Metrics().reselections);
    registry.Add(Metrics().options_changed, event.options_changed);
  } else {
    registry.Add(Metrics().rejected);
  }
  return event;
}

}  // namespace espresso
