// StrategyDeployment: the runtime half of the fail-closed deployment pipeline
// (src/analysis/ir_validator.h is the admission half).
//
// Training steps read the live strategy through Acquire(), which returns an immutable
// snapshot: a step that grabbed version N keeps executing version N even while a
// Deploy() lands version N+1 — readers always see a complete old or complete new
// strategy, never a mix. Deploy() runs the full admission pass (digests, linter,
// schedule verifier) on the caller's thread *before* taking the swap lock, so a bad IR
// never displaces the last-known-good deployment and validation cost never blocks
// readers.
//
// Two recovery paths guard the swap itself:
//   * Rollback() reverts to the deployment that was live before the last accepted
//     swap (operator- or policy-initiated);
//   * ReportStepTime() is a regression watchdog: the caller feeds measured step wall
//     times; the first step after a swap that comes in worse than
//     `regression_threshold` x the pre-swap baseline triggers an automatic rollback.
// Every bootstrap/deploy/reject/rollback is appended to an AuditLog (JSONL), counted
// in espresso_deploy_* metrics, and kept as typed DeployEvents that render into
// chrome-trace instants.
#ifndef SRC_DDL_STRATEGY_DEPLOYMENT_H_
#define SRC_DDL_STRATEGY_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/strategy_ir.h"
#include "src/ddl/strategy_executor.h"
#include "src/obs/audit_log.h"
#include "src/obs/trace_writer.h"

namespace espresso {

struct DeploymentConfig {
  // Admission knobs forwarded to ValidateStrategyIR.
  bool force_digest = false;
  bool verify_schedule = true;
  size_t max_compress_ops = 0;
  // Automatic rollback when the first post-swap step exceeds this multiple of the
  // pre-swap baseline step time. <= 0 disables the watchdog.
  double regression_threshold = 2.0;
  // Moving-average window (in steps) of the baseline the watchdog compares against.
  size_t baseline_window = 4;
  // JSONL audit destination; empty keeps the audit in memory only.
  std::string audit_log_path;
};

// Immutable snapshot of one deployed strategy. Shared out by Acquire(); destroyed when
// the last in-flight step drops its reference.
struct DeployedStrategy {
  Strategy strategy;
  uint64_t version = 0;      // monotonic across swaps (rollbacks included)
  uint64_t fingerprint = 0;  // StrategyFingerprint(strategy)
  double fs_score = 0.0;     // selector's F(S) claim for this strategy
  std::string origin;        // who published it ("selector", "online-reselector", ...)
};

struct DeployResult {
  bool accepted = false;
  // The config digests mismatched but force_digest admitted the IR anyway.
  bool forced_digest = false;
  // Version now live: the new deployment's on accept, the untouched one's on reject.
  uint64_t version = 0;
  // One-line cause on rejection (first error diagnostic), empty on accept.
  std::string reason;
  DiagnosticReport report;
};

// One entry of the deployment history (the typed mirror of the audit log).
struct DeployEvent {
  uint64_t seq = 0;
  std::string event;       // "bootstrap" | "deploy" | "forced-deploy" | "reject" | "rollback"
  uint64_t version = 0;    // version live after the event
  uint64_t iteration = 0;  // publishing iteration from the IR provenance (0 if unknown)
  std::string origin;
  double fs_score = 0.0;
  std::string detail;      // rejection reason / rollback cause, empty otherwise
};

class StrategyDeployment {
 public:
  // The references must outlive the deployment. `compressor` must be the one built
  // from `compressor_config` (digests are recomputed from the config).
  StrategyDeployment(const ModelProfile& model, const ClusterSpec& cluster,
                     const Compressor& compressor,
                     const CompressorConfig& compressor_config,
                     DeploymentConfig config = {});

  StrategyDeployment(const StrategyDeployment&) = delete;
  StrategyDeployment& operator=(const StrategyDeployment&) = delete;

  // Installs the initial strategy without the admission gates: the bootstrap comes
  // from an in-process selection, already linted/verified by construction. Resets any
  // prior history (version keeps counting up).
  void Bootstrap(const Strategy& strategy, std::string origin, double fs_score);

  // The fail-closed pipeline: admission pass, then atomic swap. On rejection the live
  // deployment is untouched and the result says why.
  DeployResult Deploy(const StrategyIR& ir);

  // Current deployment snapshot (nullptr before Bootstrap). Cheap: one lock + one
  // shared_ptr copy; the snapshot stays valid for as long as the caller holds it.
  std::shared_ptr<const DeployedStrategy> Acquire() const;

  // Reverts to the deployment live before the last accepted swap. Returns false when
  // there is nothing to roll back to (no swap yet, or already rolled back).
  bool Rollback(const std::string& reason);

  // Regression watchdog: feed each step's measured wall time. Returns true when this
  // report triggered an automatic rollback (the regressing sample is discarded; the
  // baseline keeps the pre-swap history).
  bool ReportStepTime(double seconds);

  // Version currently live (0 before Bootstrap).
  uint64_t version() const;

  // Typed deployment history, in order (copy, thread-safe).
  std::vector<DeployEvent> events() const;

  obs::AuditLog& audit_log() { return audit_; }
  const DeploymentConfig& config() const { return config_; }

 private:
  void SwapLocked(Strategy strategy, std::string origin, double fs_score,
                  bool keep_previous);
  bool RollbackLocked(const std::string& reason);
  void RecordEventLocked(const std::string& event, uint64_t iteration,
                         const std::string& origin, double fs_score,
                         const std::string& detail);

  const ModelProfile& model_;
  const ClusterSpec& cluster_;
  const Compressor& compressor_;
  const CompressorConfig& compressor_config_;
  DeploymentConfig config_;

  mutable std::mutex mu_;
  std::shared_ptr<const DeployedStrategy> current_;
  std::shared_ptr<const DeployedStrategy> previous_;  // last-known-good before the swap
  uint64_t version_ = 0;
  // Watchdog state: moving-average baseline of pre-swap step times and whether the
  // next reported step is the first after a swap.
  double baseline_step_s_ = 0.0;
  size_t baseline_samples_ = 0;
  bool pending_regression_check_ = false;
  std::vector<DeployEvent> events_;
  obs::AuditLog audit_;
};

// Executes one training step against the deployment's live strategy, acquiring
// exactly ONE snapshot for the whole step (every tensor of the step runs the same
// strategy version even if a swap lands mid-step). Returns the snapshot used, or
// nullptr (without touching the gradients) when nothing is deployed.
std::shared_ptr<const DeployedStrategy> ExecuteDeployedStrategy(
    const StrategyDeployment& deployment, const ExecutorConfig& config,
    std::vector<RankBuffers>& gradients, ExecutorWorkspace* workspace = nullptr);

// Renders a deployment history as chrome-trace instant events, placing each event at
// `iteration * seconds_per_iteration` on the trace clock.
std::vector<obs::TraceInstant> DeployTraceInstants(const std::vector<DeployEvent>& events,
                                                   double seconds_per_iteration);

}  // namespace espresso

#endif  // SRC_DDL_STRATEGY_DEPLOYMENT_H_
