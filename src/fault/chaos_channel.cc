#include "src/fault/chaos_channel.h"

#include "src/fault/checksum.h"
#include "src/util/logging.h"

namespace espresso {

ChaosChannel::ChaosChannel(const FaultInjector* injector) : injector_(injector) {
  ESP_CHECK(injector != nullptr);
}

PayloadFate ChaosChannel::Transmit(size_t rank, uint64_t tensor_id,
                                   CompressedTensor* payload) {
  ++stats_.transmissions;
  ++stats_.attempts;
  const PayloadFate fate = injector_->AttemptFate(iteration_, rank, tensor_id, 1);
  switch (fate) {
    case PayloadFate::kDelivered:
      ++stats_.delivered;
      break;
    case PayloadFate::kDropped:
      ++stats_.dropped;
      break;
    case PayloadFate::kCorrupted:
      injector_->Corrupt(iteration_, rank, tensor_id, 1, payload);
      ++stats_.corrupted;
      break;
  }
  return fate;
}

ReliableChannel::ReliableChannel(const FaultInjector* injector, const RetryPolicy& policy)
    : injector_(injector), policy_(policy) {
  ESP_CHECK(injector != nullptr);
  ESP_CHECK_GE(policy.max_attempts, 1u);
}

PayloadFate ReliableChannel::Transmit(size_t rank, uint64_t tensor_id,
                                      CompressedTensor* payload) {
  ++stats_.transmissions;
  const uint32_t checksum = PayloadChecksum(*payload);
  // Backoff jitter is keyed on the transmission's coordinates, so the retry schedule
  // replays with the fault schedule.
  Rng backoff_rng(DeriveSeed(DeriveSeed(injector_->plan().spec().seed, iteration_),
                             rank * 0x51ED2701ULL + tensor_id));
  for (uint32_t attempt = 1;; ++attempt) {
    ++stats_.attempts;
    const PayloadFate fate = injector_->AttemptFate(iteration_, rank, tensor_id, attempt);
    if (fate == PayloadFate::kDelivered) {
      ++stats_.delivered;
      return PayloadFate::kDelivered;
    }
    if (fate == PayloadFate::kCorrupted) {
      // Corrupt a scratch copy: verification failure discards the mangled bytes, and
      // the retransmit below resends the sender's intact buffer.
      mangled_ = *payload;
      injector_->Corrupt(iteration_, rank, tensor_id, attempt, &mangled_);
      if (PayloadChecksum(mangled_) == checksum) {
        // Flip landed outside the covered fields (empty payload) — treat as delivered.
        ++stats_.delivered;
        return PayloadFate::kDelivered;
      }
      ++stats_.corrupted;
    }
    if (!policy_.ShouldRetry(attempt)) {
      ++stats_.dropped;
      return PayloadFate::kDropped;
    }
    ++stats_.retries;
    stats_.backoff_seconds += policy_.Delay(attempt, backoff_rng);
  }
}

}  // namespace espresso
