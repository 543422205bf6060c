// StrategyDeployment: the runtime half of the fail-closed deployment pipeline
// (src/analysis/ir_validator.h is the admission half).
//
// Training steps read the live strategy through Acquire(), which returns an immutable
// snapshot: a step that grabbed version N keeps executing version N even while a
// Deploy() lands version N+1 — readers always see a complete old or complete new
// strategy, never a mix. Deploy() runs the full admission pass (digests, linter,
// schedule verifier) on the caller's thread *before* taking the swap lock, so a bad IR
// never displaces the last-known-good deployment and validation cost never blocks
// readers. Every bootstrap/deploy/reject is appended to an in-memory AuditLog, counted
// in espresso_deploy_* metrics, and kept as a typed DeployEvent.
#ifndef SRC_DDL_STRATEGY_DEPLOYMENT_H_
#define SRC_DDL_STRATEGY_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/strategy_ir.h"
#include "src/obs/audit_log.h"

namespace espresso {

// Immutable snapshot of one deployed strategy. Shared out by Acquire(); destroyed when
// the last in-flight step drops its reference.
struct DeployedStrategy {
  Strategy strategy;
  uint64_t version = 0;      // monotonic across swaps
  uint64_t fingerprint = 0;  // StrategyFingerprint(strategy)
  double fs_score = 0.0;     // selector's F(S) claim for this strategy
  std::string origin;        // who published it ("selector", "online-reselector", ...)
};

struct DeployResult {
  bool accepted = false;
  // Version now live: the new deployment's on accept, the untouched one's on reject.
  uint64_t version = 0;
  // One-line cause on rejection (first error diagnostic), empty on accept.
  std::string reason;
  DiagnosticReport report;
};

// One entry of the deployment history (the typed mirror of the audit log).
struct DeployEvent {
  uint64_t seq = 0;
  std::string event;       // "bootstrap" | "deploy" | "reject"
  uint64_t version = 0;    // version live after the event
  uint64_t iteration = 0;  // publishing iteration from the IR provenance (0 if unknown)
  std::string origin;
  double fs_score = 0.0;
  std::string detail;      // rejection reason, empty otherwise
};

class StrategyDeployment {
 public:
  // The references must outlive the deployment. `compressor` must be the one built
  // from `compressor_config` (digests are recomputed from the config).
  StrategyDeployment(const ModelProfile& model, const ClusterSpec& cluster,
                     const Compressor& compressor,
                     const CompressorConfig& compressor_config);

  StrategyDeployment(const StrategyDeployment&) = delete;
  StrategyDeployment& operator=(const StrategyDeployment&) = delete;

  // Installs the initial strategy without the admission gates: the bootstrap comes
  // from an in-process selection, already linted/verified by construction. The
  // version keeps counting up from any earlier deployment.
  void Bootstrap(const Strategy& strategy, std::string origin, double fs_score);

  // The fail-closed pipeline: admission pass, then atomic swap. On rejection the live
  // deployment is untouched and the result says why.
  DeployResult Deploy(const StrategyIR& ir);

  // Current deployment snapshot (nullptr before Bootstrap). Cheap: one lock + one
  // shared_ptr copy; the snapshot stays valid for as long as the caller holds it.
  std::shared_ptr<const DeployedStrategy> Acquire() const;

  // Version currently live (0 before Bootstrap).
  uint64_t version() const;

  // Typed deployment history, in order (copy, thread-safe).
  std::vector<DeployEvent> events() const;

  obs::AuditLog& audit_log() { return audit_; }

 private:
  void SwapLocked(Strategy strategy, std::string origin, double fs_score);
  void RecordEventLocked(const std::string& event, uint64_t iteration,
                         const std::string& origin, double fs_score,
                         const std::string& detail);

  const ModelProfile& model_;
  const ClusterSpec& cluster_;
  const Compressor& compressor_;
  const CompressorConfig& compressor_config_;

  mutable std::mutex mu_;
  std::shared_ptr<const DeployedStrategy> current_;
  uint64_t version_ = 0;
  std::vector<DeployEvent> events_;
  obs::AuditLog audit_;
};

}  // namespace espresso

#endif  // SRC_DDL_STRATEGY_DEPLOYMENT_H_
