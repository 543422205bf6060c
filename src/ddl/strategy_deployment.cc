#include "src/ddl/strategy_deployment.h"

#include <utility>

#include "src/analysis/ir_validator.h"
#include "src/core/eval_cache.h"
#include "src/obs/metrics.h"

namespace espresso {

namespace {

struct DeployMetrics {
  obs::Counter attempts;
  obs::Counter deployed;
  obs::Counter rejected;
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
                                       const CompressorConfig& compressor_config)
    : model_(model),
      cluster_(cluster),
      compressor_(compressor),
      compressor_config_(compressor_config) {}

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
                                    double fs_score) {
  auto next = std::make_shared<DeployedStrategy>();
  next->strategy = std::move(strategy);
  next->version = ++version_;
  next->fingerprint = StrategyFingerprint(next->strategy);
  next->fs_score = fs_score;
  next->origin = std::move(origin);
  // The swap: one shared_ptr assignment. Readers that already hold a snapshot keep
  // executing it; the next Acquire() sees the new deployment, complete.
  current_ = std::move(next);
  obs::GlobalMetrics().Set(Metrics().current_version, static_cast<double>(version_));
}

void StrategyDeployment::Bootstrap(const Strategy& strategy, std::string origin,
                                   double fs_score) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string origin_copy = origin;
  SwapLocked(strategy, std::move(origin), fs_score);
  RecordEventLocked("bootstrap", /*iteration=*/0, origin_copy, fs_score, "");
}

DeployResult StrategyDeployment::Deploy(const StrategyIR& ir) {
  auto& registry = obs::GlobalMetrics();
  registry.Add(Metrics().attempts);

  // Admission runs before the lock: linting plus a full timeline simulation is far
  // too expensive to hold readers for, and a rejected IR must not perturb them at all.
  IRValidationResult validation =
      ValidateStrategyIR(ir, model_, cluster_, compressor_, compressor_config_);

  DeployResult result;
  result.report = std::move(validation.report);

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
  SwapLocked(ir.strategy, ir.provenance.origin, ir.fs_score);
  result.accepted = true;
  result.version = version_;
  registry.Add(Metrics().deployed);
  RecordEventLocked("deploy", ir.provenance.iteration, ir.provenance.origin, ir.fs_score,
                    "");
  return result;
}

std::shared_ptr<const DeployedStrategy> StrategyDeployment::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t StrategyDeployment::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::vector<DeployEvent> StrategyDeployment::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

}  // namespace espresso
