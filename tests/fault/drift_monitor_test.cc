// Regression coverage for the drift monitor's latency blindness: drift() used to
// compare only the smoothed bandwidths against the profile, so a latency-only
// degradation (a jittery NIC inflating alpha while beta stays put) never triggered
// re-selection — and the intra link's latency was never even observed into the
// EWMA set, so SmoothedCluster() handed the re-selector a stale alpha.
#include "src/fault/drift_monitor.h"

#include <gtest/gtest.h>

#include "src/compress/compressor.h"
#include "src/costmodel/calibration.h"
#include "src/models/model_zoo.h"
#include "src/obs/metrics.h"
#include "src/util/config.h"

namespace espresso {
namespace {

uint64_t CounterValue(const char* name) {
  const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().Scrape();
  const obs::MetricValue* metric = snapshot.Find(name);
  return metric == nullptr ? 0 : metric->count;
}

ClusterSpec WithInterLatency(const ClusterSpec& base, double latency_s) {
  ClusterSpec observed = base;
  observed.inter.latency_s = latency_s;
  return observed;
}

TEST(DriftMonitor, LatencyOnlyDegradationTriggersReselection) {
  const ClusterSpec profiled = NvlinkCluster(4, 4);
  DriftConfig config;
  config.threshold = 0.5;
  config.smoothing = 0.5;
  DriftMonitor monitor(config, profiled);

  // 10x inter latency, bandwidths untouched: after a few smoothing steps the
  // latency deviation alone must cross the threshold.
  const ClusterSpec observed = WithInterLatency(profiled, profiled.inter.latency_s * 10.0);
  bool triggered = false;
  for (uint64_t it = 0; it < 8 && !triggered; ++it) {
    triggered = monitor.Observe(it, observed);
  }
  EXPECT_TRUE(triggered);
  EXPECT_GT(monitor.drift(), config.threshold);
}

TEST(DriftMonitor, IntraLatencyIsObservedAndSmoothed) {
  const ClusterSpec profiled = NvlinkCluster(4, 4);
  DriftConfig config;
  config.smoothing = 1.0;  // EWMA == latest observation
  DriftMonitor monitor(config, profiled);

  ClusterSpec observed = profiled;
  observed.intra.latency_s = profiled.intra.latency_s * 3.0;
  monitor.Observe(0, observed);

  const ClusterSpec smoothed = monitor.SmoothedCluster();
  EXPECT_DOUBLE_EQ(smoothed.intra.latency_s, observed.intra.latency_s);
  EXPECT_DOUBLE_EQ(monitor.drift(), 2.0);  // |3x / 1x - 1|
}

TEST(DriftMonitor, LatencyRecoveryBringsDriftBackDown) {
  const ClusterSpec profiled = NvlinkCluster(4, 4);
  DriftConfig config;
  config.smoothing = 1.0;
  DriftMonitor monitor(config, profiled);

  monitor.Observe(0, WithInterLatency(profiled, profiled.inter.latency_s * 5.0));
  EXPECT_GT(monitor.drift(), 1.0);
  monitor.Observe(1, profiled);
  EXPECT_NEAR(monitor.drift(), 0.0, 1e-12);
}

TEST(DriftMonitor, ZeroProfiledLatencyContributesNoDeviation) {
  ClusterSpec profiled = NvlinkCluster(4, 4);
  profiled.inter.latency_s = 0.0;  // ideal alpha-free profile: no relative scale
  DriftConfig config;
  config.smoothing = 1.0;
  DriftMonitor monitor(config, profiled);

  monitor.Observe(0, WithInterLatency(profiled, 1e-3));
  EXPECT_DOUBLE_EQ(monitor.drift(), 0.0);
}

TEST(DriftMonitor, BandwidthDriftStillDetected) {
  const ClusterSpec profiled = NvlinkCluster(4, 4);
  DriftConfig config;
  config.threshold = 0.25;
  config.smoothing = 1.0;
  DriftMonitor monitor(config, profiled);

  ClusterSpec observed = profiled;
  observed.inter = observed.inter.Degraded(0.5);
  EXPECT_TRUE(monitor.Observe(0, observed));
  EXPECT_NEAR(monitor.drift(), 0.5, 1e-9);
}

TEST(OnlineReselector, LatencyOnlyDriftHotSwapsTheStrategy) {
  const ModelProfile model = Lstm();
  const ClusterSpec profiled = NvlinkCluster(2, 2);
  const CompressorConfig gc{.algorithm = "dgc", .ratio = 0.01};
  const auto compressor = CreateCompressor(gc);
  DriftConfig drift;
  drift.threshold = 0.5;
  drift.smoothing = 1.0;
  OnlineReselector reselector(model, profiled, *compressor, gc, SelectorOptions{}, drift);

  // A 50x inter-latency spike must reach the selector: the event fires even if the
  // drifted optimum happens to keep every per-tensor option.
  const ClusterSpec observed =
      WithInterLatency(profiled, profiled.inter.latency_s * 50.0);
  const auto event = reselector.Step(0, observed);
  ASSERT_TRUE(event.has_value());
  EXPECT_GT(event->drift, drift.threshold);
  EXPECT_GT(event->new_iteration_time, 0.0);
}

TEST(OnlineReselector, AdmittedReselectionReplacesTheLiveStrategy) {
  const ModelProfile model = Lstm();
  const ClusterSpec profiled = NvlinkCluster(2, 2);
  const CompressorConfig gc{.algorithm = "dgc", .ratio = 0.01};
  const auto compressor = CreateCompressor(gc);
  DriftConfig drift;
  drift.threshold = 0.5;
  drift.smoothing = 1.0;
  OnlineReselector reselector(model, profiled, *compressor, gc, SelectorOptions{}, drift);

  // The construction-time strategy is the selection on the profiled cluster.
  EXPECT_TRUE(reselector.strategy().options ==
              EspressoSelector(model, profiled, *compressor).Select().strategy.options);

  // A drift-triggered re-selection passes admission and becomes the live strategy.
  const uint64_t reselections_before = CounterValue("espresso_drift_reselections_total");
  const uint64_t rejected_before = CounterValue("espresso_drift_rejected_total");
  ClusterSpec observed = profiled;
  observed.inter = observed.inter.Degraded(0.1);
  const auto event = reselector.Step(3, observed);
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(event->deployed);
  EXPECT_GT(event->options_changed, 0u);
  const ClusterSpec drifted = reselector.monitor().SmoothedCluster();
  EXPECT_TRUE(reselector.strategy().options ==
              EspressoSelector(model, drifted, *compressor).Select().strategy.options);
  EXPECT_EQ(CounterValue("espresso_drift_reselections_total"), reselections_before + 1);
  EXPECT_EQ(CounterValue("espresso_drift_rejected_total"), rejected_before);
}

TEST(DriftConfig, FromConfigParsesAndRangeChecks) {
  const ConfigFile config = ConfigFile::ParseString(
      "[drift]\n"
      "threshold = 0.4\n"
      "smoothing = abc\n"              // malformed -> fallback + warning
      "cooldown_iterations = -3\n");  // out of range -> fallback + warning
  ASSERT_TRUE(config.ok());
  const DriftConfig drift = DriftConfig::FromConfig(config);
  const DriftConfig defaults;
  EXPECT_DOUBLE_EQ(drift.threshold, 0.4);
  EXPECT_DOUBLE_EQ(drift.smoothing, defaults.smoothing);
  EXPECT_EQ(drift.cooldown_iterations, defaults.cooldown_iterations);
  ASSERT_EQ(config.warnings().size(), 2u);
  EXPECT_NE(config.warnings()[0].find("smoothing"), std::string::npos)
      << config.warnings()[0];
  EXPECT_NE(config.warnings()[1].find("cooldown_iterations"), std::string::npos)
      << config.warnings()[1];
}

}  // namespace
}  // namespace espresso
