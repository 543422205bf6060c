#include "src/fault/chaos_channel.h"

#include "src/util/logging.h"

namespace espresso {

ChaosChannel::ChaosChannel(const FaultInjector* injector) : injector_(injector) {
  ESP_CHECK(injector != nullptr);
}

PayloadFate ChaosChannel::Transmit(size_t rank, uint64_t tensor_id,
                                   CompressedTensor* payload) {
  ++stats_.transmissions;
  const PayloadFate fate = injector_->AttemptFate(iteration_, rank, tensor_id);
  switch (fate) {
    case PayloadFate::kDelivered:
      ++stats_.delivered;
      break;
    case PayloadFate::kDropped:
      ++stats_.dropped;
      break;
    case PayloadFate::kCorrupted:
      injector_->Corrupt(iteration_, rank, tensor_id, payload);
      ++stats_.corrupted;
      break;
  }
  return fate;
}

}  // namespace espresso
