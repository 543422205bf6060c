#include "src/fault/resilient_executor.h"

#include "src/core/decision_tree.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace espresso {

namespace {

struct FaultMetrics {
  obs::Counter clean;
  obs::Counter retried;
  obs::Counter fp32_fallbacks;
  obs::Counter phase_retries;
  obs::Histogram backoff_delay_seconds;
};

const FaultMetrics& Metrics() {
  static const FaultMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::GlobalMetrics();
    FaultMetrics m;
    m.clean = r.RegisterCounter("espresso_fault_clean_total",
                                "Tensor collectives that completed on the first attempt");
    m.retried = r.RegisterCounter("espresso_fault_retried_total",
                                  "Tensor collectives that completed after >= 1 retry");
    m.fp32_fallbacks = r.RegisterCounter(
        "espresso_fault_fp32_fallbacks_total",
        "Tensor collectives that exhausted retries and fell back to exact FP32 allreduce");
    m.phase_retries = r.RegisterCounter("espresso_fault_phase_retries_total",
                                        "Individual failed collective-phase attempts");
    m.backoff_delay_seconds = r.RegisterHistogram(
        "espresso_fault_backoff_delay_seconds",
        "Simulated backoff delay charged per retry", obs::DefaultTimeBuckets());
    return m;
  }();
  return metrics;
}

// The FP32 degradation path: an exact flat allreduce of the raw per-rank gradients.
// The executor sums each element 0 + g0 + g1 + ... in rank order, in the workspace's
// scratch, so fallback steps stay allocation-free once warm.
const CompressionOption& Fp32FallbackOption() {
  // A one-machine tree's uncompressed option is the flat allreduce.
  static const CompressionOption option =
      DefaultUncompressedOption(TreeConfig{.machines = 1, .gpus_per_machine = 1});
  return option;
}

}  // namespace

void ResilientExecuteOption(const CompressionOption& option, const ExecutorConfig& config,
                            uint64_t tensor_id, RankBuffers& buffers,
                            const FaultInjector& injector, const RetryPolicy& policy,
                            uint64_t iteration, ResilienceReport* report,
                            ExecutorWorkspace* workspace) {
  ESP_CHECK(report != nullptr);
  ExecutorWorkspace& ws =
      workspace != nullptr ? *workspace : ExecutorWorkspace::ThreadDefault();
  ++report->tensors;
  Rng backoff_rng(DeriveSeed(DeriveSeed(injector.plan().spec().seed, iteration),
                             tensor_id * 0x7F4A7C15ULL));
  // The failure draw happens before the phase commits any state: a failed attempt
  // leaves buffers and error-feedback residuals exactly as they were, so a retry (or
  // the fallback) starts from clean inputs.
  for (uint32_t attempt = 1;; ++attempt) {
    if (!injector.CollectivePhaseFails(iteration, tensor_id, attempt)) {
      ExecuteOption(option, config, tensor_id, buffers, &ws);
      if (attempt == 1) {
        ++report->clean;
        obs::GlobalMetrics().Add(Metrics().clean);
      } else {
        ++report->retried;
        obs::GlobalMetrics().Add(Metrics().retried);
      }
      return;
    }
    if (!policy.ShouldRetry(attempt)) {
      report->events.push_back(
          FaultEventRecord{iteration, static_cast<size_t>(tensor_id), "fp32_fallback",
                           attempt});
      ++report->fallbacks;
      obs::GlobalMetrics().Add(Metrics().fp32_fallbacks);
      ExecuteOption(Fp32FallbackOption(), config, tensor_id, buffers, &ws);
      return;
    }
    report->events.push_back(FaultEventRecord{iteration, static_cast<size_t>(tensor_id),
                                              "phase_retry", attempt});
    ++report->total_retries;
    const double delay_s = policy.Delay(attempt, backoff_rng);
    report->backoff_seconds += delay_s;
    obs::GlobalMetrics().Add(Metrics().phase_retries);
    obs::GlobalMetrics().Observe(Metrics().backoff_delay_seconds, delay_s);
  }
}

ResilienceReport ResilientExecuteStrategy(const Strategy& strategy,
                                          const ExecutorConfig& config,
                                          std::vector<RankBuffers>& gradients,
                                          const FaultInjector& injector,
                                          const RetryPolicy& policy, uint64_t iteration,
                                          ExecutorWorkspace* workspace) {
  ESP_CHECK_EQ(strategy.options.size(), gradients.size())
      << "strategy has one option per tensor; gradient tensor count must match";
  ResilienceReport report;
  for (size_t t = 0; t < gradients.size(); ++t) {
    ResilientExecuteOption(strategy.options[t], config, t, gradients[t], injector, policy,
                           iteration, &report, workspace);
  }
  return report;
}

}  // namespace espresso
