// ChaosChannel: the PayloadChannel over a FaultInjector.
//
// Each Transmit is a single attempt whose fate comes straight from the injector: drops
// are final and corruption is delivered silently, as a datapath without integrity
// checks would see them. The strategy executor folds a dropped payload back into the
// sender's error-feedback residual and aggregates a corrupted one as it arrived.
#ifndef SRC_FAULT_CHAOS_CHANNEL_H_
#define SRC_FAULT_CHAOS_CHANNEL_H_

#include <cstdint>

#include "src/collectives/channel.h"
#include "src/compress/compressed_tensor.h"
#include "src/fault/injector.h"

namespace espresso {

struct ChannelStats {
  uint64_t transmissions = 0;  // Transmit() calls
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t corrupted = 0;
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

}  // namespace espresso

#endif  // SRC_FAULT_CHAOS_CHANNEL_H_
