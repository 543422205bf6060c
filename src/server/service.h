// SelectionService: the transport-independent core of `espresso_serve` (the
// strategy-selection-as-a-service frontend, docs/SERVICE.md).
//
// One request = one JSON document carrying the same three configuration payloads
// `espresso_cli` takes as files (model / GC / system INI text). The service runs the
// exact CLI selection flow — identical SelectorOptions, identical CompileStrategyIR
// provenance — so a served IR document is byte-identical to `espresso_cli --ir-out`
// on the same committed configs. Every response that carries an IR has already passed
// the fail-closed admission pipeline (ValidateStrategyIR: digests, linter, schedule
// re-simulation); a strategy that cannot be validated is never serialized out.
//
// Long-lived-process behavior:
//   * F(S) memoization is shared ACROSS requests through a bounded pool of
//     EvaluationCaches keyed by the (model, cluster, compression) digest triple —
//     fingerprints are only meaningful for one evaluator configuration, so the pool
//     key is exactly the validity domain of the cache. A repeat selection against
//     the same configs is a warm-cache hit, observable in the response telemetry.
//   * Admission control: at most `max_inflight` selections run at once (excess is
//     refused with `over-capacity`, never queued invisibly); per-request budgets
//     (threads, offload search budget, deadline) map onto SelectorOptions; an
//     expired deadline is a typed `deadline-expired` error, including when it
//     expires mid-selection (a late result is not served).
//   * Per-tenant quota accounting: each tenant's timeline evaluations accumulate
//     against its quota; an exhausted tenant gets `quota-exhausted` while other
//     tenants keep being served.
//   * Every request — served or rejected — lands in the AuditLog with its typed
//     outcome, and in the espresso_serve_* metrics.
#ifndef SRC_SERVER_SERVICE_H_
#define SRC_SERVER_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/obs/audit_log.h"
#include "src/server/frame.h"
#include "src/util/lru_cache.h"

namespace espresso {
class EvaluationCache;
}  // namespace espresso

namespace espresso::server {

// Typed request outcomes. The wire form (ServeErrorCode) is part of the protocol:
// clients dispatch on the code string, not the human-readable message.
enum class ServeError {
  kNone,
  kMalformedRequest,  // unparseable JSON, missing/mistyped fields
  kUnsupportedType,   // "type" is not select | metrics | health
  kPayloadTooLarge,   // request body over the service's byte limit
  kBadConfig,         // the three INI payloads do not load into a JobConfig
  kOverCapacity,      // admission control: max_inflight selections already running
  kQuotaExhausted,    // tenant's evaluation quota is spent
  kDeadlineExpired,   // request deadline passed before or during selection
  kValidationFailed,  // selected IR failed the fail-closed admission pipeline
};

// Stable wire identifier, e.g. "quota-exhausted".
const char* ServeErrorCode(ServeError error);

struct ServiceConfig {
  // Concurrent select requests admitted at once; further ones get `over-capacity`.
  size_t max_inflight = 8;
  // Capacity of each per-config-triple F(S) cache.
  size_t cache_capacity = 1 << 16;
  // Distinct config triples kept warm (at least 1); least-recently-used entries are
  // dropped.
  size_t max_cached_configs = 8;
  // Evaluation quota for tenants without an explicit entry (0 = unlimited).
  uint64_t default_quota = 0;
  // Per-tenant evaluation quotas (0 = unlimited).
  std::map<std::string, uint64_t> tenant_quotas;
  // Requests larger than this are refused with `payload-too-large` (the framing
  // layer enforces the same bound on the wire; this guards other transports).
  size_t max_request_bytes = kDefaultMaxFrameBytes;
};

// Point-in-time service counters (for tests, the health endpoint, and operators).
struct ServiceStats {
  uint64_t requests = 0;  // every request seen, any type
  uint64_t served = 0;    // select requests that returned an IR
  uint64_t rejected = 0;  // select requests refused with a typed error
  size_t inflight = 0;    // selections currently running
  size_t cached_configs = 0;
};

class SelectionService {
 public:
  // `audit` may be null (no auditing); otherwise it must outlive the service.
  SelectionService(ServiceConfig config, obs::AuditLog* audit);

  SelectionService(const SelectionService&) = delete;
  SelectionService& operator=(const SelectionService&) = delete;

  // Handles one request payload (JSON text) and returns the response payload
  // (JSON text). Never throws; every failure mode is a well-formed error response.
  // Thread-safe: connection handlers call this concurrently.
  std::string HandleRequest(std::string_view payload);

  ServiceStats stats() const;
  // Evaluations charged against `tenant` so far.
  uint64_t TenantUsed(const std::string& tenant) const;
  const ServiceConfig& config() const { return config_; }

 private:
  std::string HandleSelect(const struct SelectRequest& request);
  std::string HandleMetrics(const std::string& id, const std::string& format);
  std::string HandleHealth(const std::string& id);

  // Typed error response; audits the rejection and bumps the reject counter.
  std::string ErrorResponse(const std::string& id, const std::string& tenant,
                            ServeError error, const std::string& message);

  // Returns the shared F(S) cache for a config-digest triple, creating it (and
  // evicting the least-recently-used entry past max_cached_configs) as needed.
  std::shared_ptr<EvaluationCache> CacheFor(const std::string& digest_key);

  const ServiceConfig config_;
  obs::AuditLog* const audit_;  // not owned; may be null

  mutable std::mutex mu_;
  // Digest-triple key -> shared cache, at most max_cached_configs of them.
  LruCache<std::string, std::shared_ptr<EvaluationCache>> cache_pool_;
  std::map<std::string, uint64_t> tenant_used_;
  size_t inflight_ = 0;
  uint64_t requests_ = 0;
  uint64_t served_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace espresso::server

#endif  // SRC_SERVER_SERVICE_H_
