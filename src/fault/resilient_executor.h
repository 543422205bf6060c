// Resilient wrapper around the strategy executor: collective phases that the fault
// plan fails are retried with capped backoff, and a tensor whose retries are
// exhausted degrades gracefully to the FP32 path — an exact uncompressed aggregation
// of the ranks' raw gradients. Because the failed compressed phase never committed,
// the per-rank error-feedback residuals are untouched and the update is exact: nothing
// is silently lost, the tensor just pays full-precision bandwidth for one iteration.
#ifndef SRC_FAULT_RESILIENT_EXECUTOR_H_
#define SRC_FAULT_RESILIENT_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/strategy.h"
#include "src/ddl/strategy_executor.h"
#include "src/fault/fault_plan.h"
#include "src/fault/retry_policy.h"

namespace espresso {

struct FaultEventRecord {
  uint64_t iteration = 0;
  size_t tensor = 0;
  std::string kind;       // "phase_retry" or "fp32_fallback"
  uint32_t attempts = 0;  // attempts made when the event fired
};

struct ResilienceReport {
  size_t tensors = 0;
  size_t clean = 0;          // executed first try
  size_t retried = 0;        // needed >= 1 retry, eventually succeeded
  size_t fallbacks = 0;      // degraded to FP32
  size_t total_retries = 0;
  double backoff_seconds = 0.0;
  std::vector<FaultEventRecord> events;
};

// Executes one tensor's option under fault injection. On phase failure, retries per
// `policy`; on exhaustion, aggregates `buffers` exactly (FP32 allreduce semantics).
// `workspace` supplies the executor's and fallback path's scratch; nullptr resolves
// to the calling thread's default workspace.
void ResilientExecuteOption(const CompressionOption& option, const ExecutorConfig& config,
                            uint64_t tensor_id, RankBuffers& buffers,
                            const FaultPlan& plan, const RetryPolicy& policy,
                            uint64_t iteration, ResilienceReport* report,
                            ExecutorWorkspace* workspace = nullptr);

// Executes a whole strategy; `gradients[t]` is tensor t's per-rank buffers. The one
// workspace is reused across all tensors.
ResilienceReport ResilientExecuteStrategy(const Strategy& strategy,
                                          const ExecutorConfig& config,
                                          std::vector<RankBuffers>& gradients,
                                          const FaultPlan& plan,
                                          const RetryPolicy& policy, uint64_t iteration,
                                          ExecutorWorkspace* workspace = nullptr);

}  // namespace espresso

#endif  // SRC_FAULT_RESILIENT_EXECUTOR_H_
