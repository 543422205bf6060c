// PayloadChannel implementations over a FaultInjector.
//
// ChaosChannel is the raw transport: each Transmit is a single attempt whose fate
// comes straight from the injector — drops are final and corruption is silent, exactly
// what a no-integrity-checking datapath would see.
//
// ReliableChannel layers the resilience policy on top: it stamps a CRC-32 checksum
// before each attempt, verifies after, and retransmits dropped or corrupted payloads
// with capped exponential backoff (RetryPolicy, deterministic jitter). Only when
// retries are exhausted does it report kDropped — at which point the strategy executor
// folds the payload back into the sender's error-feedback residual (graceful
// degradation).
#ifndef SRC_FAULT_CHAOS_CHANNEL_H_
#define SRC_FAULT_CHAOS_CHANNEL_H_

#include <cstdint>

#include "src/collectives/channel.h"
#include "src/compress/compressed_tensor.h"
#include "src/fault/injector.h"
#include "src/fault/retry_policy.h"
#include "src/util/rng.h"

namespace espresso {

struct ChannelStats {
  uint64_t transmissions = 0;   // Transmit() calls
  uint64_t attempts = 0;        // individual wire attempts (>= transmissions)
  uint64_t delivered = 0;
  uint64_t dropped = 0;         // final drops reported to the caller
  uint64_t corrupted = 0;       // corruptions delivered (raw) or detected (reliable)
  uint64_t retries = 0;
  double backoff_seconds = 0.0; // total simulated backoff delay spent in retries
};

class ChaosChannel : public PayloadChannel {
 public:
  explicit ChaosChannel(const FaultInjector* injector);

  void BeginIteration(uint64_t iteration) override { iteration_ = iteration; }
  PayloadFate Transmit(size_t rank, uint64_t tensor_id, CompressedTensor* payload) override;

  const ChannelStats& stats() const { return stats_; }

 private:
  const FaultInjector* injector_;
  uint64_t iteration_ = 0;
  ChannelStats stats_;
};

class ReliableChannel : public PayloadChannel {
 public:
  ReliableChannel(const FaultInjector* injector, const RetryPolicy& policy);

  void BeginIteration(uint64_t iteration) override { iteration_ = iteration; }
  // Never returns kCorrupted: corruption is detected by checksum and retried; an
  // undeliverable payload surfaces as kDropped after max_attempts.
  PayloadFate Transmit(size_t rank, uint64_t tensor_id, CompressedTensor* payload) override;

  const ChannelStats& stats() const { return stats_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  const FaultInjector* injector_;
  RetryPolicy policy_;
  uint64_t iteration_ = 0;
  ChannelStats stats_;
  // The corruption scratch copy. Each corrupted attempt copy-assigns the payload into
  // it, which reuses its vectors' capacity, so warm retries allocate nothing.
  CompressedTensor mangled_;
};

}  // namespace espresso

#endif  // SRC_FAULT_CHAOS_CHANNEL_H_
