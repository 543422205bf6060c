#include "src/ddl/strategy_deployment.h"

#include <algorithm>
#include <utility>

#include "src/analysis/ir_validator.h"
#include "src/core/eval_cache.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace espresso {

namespace {

struct DeployMetrics {
  obs::Counter attempts;
  obs::Counter deployed;
  obs::Counter rejected;
  obs::Counter rollbacks;
  obs::Counter forced;
  obs::Gauge current_version;
};

DeployMetrics& Metrics() {
  static DeployMetrics metrics = [] {
    auto& r = obs::GlobalMetrics();
    DeployMetrics m;
    m.attempts = r.RegisterCounter("espresso_deploy_attempts_total",
                                   "Strategy IR deployment attempts (Deploy calls)");
    m.deployed = r.RegisterCounter("espresso_deploy_deployed_total",
                                   "Strategy deployments accepted and swapped live");
    m.rejected = r.RegisterCounter("espresso_deploy_rejected_total",
                                   "Strategy IRs refused by the fail-closed admission pass");
    m.rollbacks = r.RegisterCounter("espresso_deploy_rollbacks_total",
                                    "Reverts to the last-known-good deployment");
    m.forced = r.RegisterCounter("espresso_deploy_forced_total",
                                 "Deployments admitted past a digest mismatch (--force-digest)");
    m.current_version = r.RegisterGauge("espresso_deploy_current_version",
                                        "Version of the live strategy deployment");
    return m;
  }();
  return metrics;
}

std::string FirstErrorLine(const DiagnosticReport& report) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity == Severity::kError) {
      return d.rule + ": " + d.message;
    }
  }
  return "rejected";
}

}  // namespace

StrategyDeployment::StrategyDeployment(const ModelProfile& model,
                                       const ClusterSpec& cluster,
                                       const Compressor& compressor,
                                       const CompressorConfig& compressor_config,
                                       DeploymentConfig config)
    : model_(model),
      cluster_(cluster),
      compressor_(compressor),
      compressor_config_(compressor_config),
      config_(std::move(config)) {
  if (!config_.audit_log_path.empty()) {
    std::string error;
    if (!audit_.Open(config_.audit_log_path, &error)) {
      ESP_LOG(kWarning) << "strategy deployment: " << error
                        << " (auditing in memory only)";
    }
  }
}

void StrategyDeployment::RecordEventLocked(const std::string& event, uint64_t iteration,
                                           const std::string& origin, double fs_score,
                                           const std::string& detail) {
  DeployEvent record;
  record.event = event;
  record.version = version_;
  record.iteration = iteration;
  record.origin = origin;
  record.fs_score = fs_score;
  record.detail = detail;
  record.seq = audit_.Append(event, [&](JsonWriter& json) {
    json.Field("version", version_);
    json.Field("iteration", iteration);
    json.Field("origin", origin);
    json.Field("fs_score", fs_score);
    if (current_ != nullptr) {
      json.Field("fingerprint", DigestHex(current_->fingerprint));
    }
    if (!detail.empty()) {
      json.Field("detail", detail);
    }
  });
  events_.push_back(std::move(record));
}

void StrategyDeployment::SwapLocked(Strategy strategy, std::string origin,
                                    double fs_score, bool keep_previous) {
  auto next = std::make_shared<DeployedStrategy>();
  next->strategy = std::move(strategy);
  next->version = ++version_;
  next->fingerprint = StrategyFingerprint(next->strategy);
  next->fs_score = fs_score;
  next->origin = std::move(origin);
  previous_ = keep_previous ? current_ : nullptr;
  // The swap: one shared_ptr assignment. Readers that already hold a snapshot keep
  // executing it; the next Acquire() sees the new deployment, complete.
  current_ = std::move(next);
  pending_regression_check_ = keep_previous && baseline_samples_ > 0;
  obs::GlobalMetrics().Set(Metrics().current_version, static_cast<double>(version_));
}

void StrategyDeployment::Bootstrap(const Strategy& strategy, std::string origin,
                                   double fs_score) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string origin_copy = origin;
  SwapLocked(strategy, std::move(origin), fs_score, /*keep_previous=*/false);
  pending_regression_check_ = false;
  RecordEventLocked("bootstrap", /*iteration=*/0, origin_copy, fs_score, "");
}

DeployResult StrategyDeployment::Deploy(const StrategyIR& ir) {
  auto& registry = obs::GlobalMetrics();
  registry.Add(Metrics().attempts);

  // Admission runs before the lock: linting plus a full timeline simulation is far
  // too expensive to hold readers for, and a rejected IR must not perturb them at all.
  IRValidationOptions options;
  options.force_digest = config_.force_digest;
  options.verify_schedule = config_.verify_schedule;
  options.max_compress_ops = config_.max_compress_ops;
  IRValidationResult validation = ValidateStrategyIR(ir, model_, cluster_, compressor_,
                                                     compressor_config_, options);

  DeployResult result;
  result.report = std::move(validation.report);
  result.forced_digest = validation.digest_mismatch && validation.ok;

  std::lock_guard<std::mutex> lock(mu_);
  if (!validation.ok) {
    result.accepted = false;
    result.version = version_;
    result.reason = FirstErrorLine(result.report);
    registry.Add(Metrics().rejected);
    RecordEventLocked("reject", ir.provenance.iteration, ir.provenance.origin,
                      ir.fs_score, result.reason);
    return result;
  }
  SwapLocked(ir.strategy, ir.provenance.origin, ir.fs_score, /*keep_previous=*/true);
  result.accepted = true;
  result.version = version_;
  registry.Add(Metrics().deployed);
  if (result.forced_digest) {
    registry.Add(Metrics().forced);
    RecordEventLocked("forced-deploy", ir.provenance.iteration, ir.provenance.origin,
                      ir.fs_score, "config digest mismatch admitted by force_digest");
  } else {
    RecordEventLocked("deploy", ir.provenance.iteration, ir.provenance.origin,
                      ir.fs_score, "");
  }
  return result;
}

std::shared_ptr<const DeployedStrategy> StrategyDeployment::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

bool StrategyDeployment::RollbackLocked(const std::string& reason) {
  if (previous_ == nullptr) {
    return false;
  }
  const std::shared_ptr<const DeployedStrategy> restored = previous_;
  SwapLocked(restored->strategy, restored->origin, restored->fs_score,
             /*keep_previous=*/false);
  pending_regression_check_ = false;
  obs::GlobalMetrics().Add(Metrics().rollbacks);
  RecordEventLocked("rollback", /*iteration=*/0, restored->origin, restored->fs_score,
                    reason);
  return true;
}

bool StrategyDeployment::Rollback(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  return RollbackLocked(reason);
}

bool StrategyDeployment::ReportStepTime(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_regression_check_ && config_.regression_threshold > 0.0) {
    pending_regression_check_ = false;
    if (baseline_samples_ > 0 &&
        seconds > config_.regression_threshold * baseline_step_s_) {
      // The regressing sample is not folded into the baseline: it measured the bad
      // deployment, and the restored one should be judged against pre-swap history.
      return RollbackLocked("first post-swap step took " + std::to_string(seconds) +
                            "s vs baseline " + std::to_string(baseline_step_s_) +
                            "s (threshold x" +
                            std::to_string(config_.regression_threshold) + ")");
    }
  }
  const size_t window = std::max<size_t>(config_.baseline_window, 1);
  const size_t effective = std::min(baseline_samples_ + 1, window);
  baseline_step_s_ += (seconds - baseline_step_s_) / static_cast<double>(effective);
  ++baseline_samples_;
  return false;
}

uint64_t StrategyDeployment::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::vector<DeployEvent> StrategyDeployment::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::shared_ptr<const DeployedStrategy> ExecuteDeployedStrategy(
    const StrategyDeployment& deployment, const ExecutorConfig& config,
    std::vector<RankBuffers>& gradients, ExecutorWorkspace* workspace) {
  std::shared_ptr<const DeployedStrategy> snapshot = deployment.Acquire();
  if (snapshot == nullptr) {
    return nullptr;
  }
  ExecuteStrategy(snapshot->strategy, config, gradients, workspace);
  return snapshot;
}

std::vector<obs::TraceInstant> DeployTraceInstants(const std::vector<DeployEvent>& events,
                                                   double seconds_per_iteration) {
  std::vector<obs::TraceInstant> instants;
  instants.reserve(events.size());
  for (const DeployEvent& event : events) {
    obs::TraceInstant instant;
    instant.time_s = static_cast<double>(event.iteration) * seconds_per_iteration;
    instant.name = "deploy_" + event.event;
    instant.detail = "v" + std::to_string(event.version) + " origin=" + event.origin +
                     (event.detail.empty() ? "" : " " + event.detail);
    instants.push_back(std::move(instant));
  }
  return instants;
}

}  // namespace espresso
