// Capped exponential backoff with deterministic jitter.
//
// Retried operations (failed collective phases, src/fault/resilient_executor.h) back
// off exponentially from `base_delay_s`, capped at `max_delay_s`, with a +/- `jitter`
// fractional perturbation drawn from a caller-supplied Rng — deterministic given the
// caller's seed, so retry schedules replay exactly. attempts are 1-based: attempt 1 is
// the initial try, attempts 2..max_attempts are retries.
#ifndef SRC_FAULT_RETRY_POLICY_H_
#define SRC_FAULT_RETRY_POLICY_H_

#include <cstdint>

#include "src/util/config.h"
#include "src/util/rng.h"

namespace espresso {

struct RetryPolicy {
  uint32_t max_attempts = 4;    // initial try + 3 retries, then give up
  double base_delay_s = 1e-3;   // backoff before the first retry
  double max_delay_s = 8e-3;    // backoff cap
  double jitter = 0.2;          // +/- fraction applied to each delay, in [0, 1)

  // True if another attempt is allowed after `attempts_made` tries.
  bool ShouldRetry(uint32_t attempts_made) const { return attempts_made < max_attempts; }

  // Backoff delay before retry number `retry` (1-based: 1 = first retry). The
  // unjittered delay is min(max_delay_s, base_delay_s * 2^(retry-1)); jitter scales it
  // by a factor in [1 - jitter, 1 + jitter] drawn from `rng`.
  double Delay(uint32_t retry, Rng& rng) const;

  // Parses the [retry] section; bad knobs fall back and surface in config.warnings().
  static RetryPolicy FromConfig(const ConfigFile& config);
};

}  // namespace espresso

#endif  // SRC_FAULT_RETRY_POLICY_H_
