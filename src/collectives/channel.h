// Transport abstraction for compressed payloads crossing the (functional) network.
//
// The strategy executor normally moves payloads between in-process rank buffers
// perfectly; a PayloadChannel set in ExecutorConfig::channel models an imperfect
// transport: a transmission can be delivered, dropped outright, or delivered with
// corrupted contents. The executor sends each payload compressed at an option's first
// compression site through it, except a part a rank keeps for itself
// (src/ddl/strategy_executor.h). The fault subsystem (src/fault) provides the one
// implementation, ChaosChannel, which drops payloads and delivers corruption silently;
// the executor stays transport-agnostic.
#ifndef SRC_COLLECTIVES_CHANNEL_H_
#define SRC_COLLECTIVES_CHANNEL_H_

#include <cstddef>
#include <cstdint>

#include "src/compress/compressed_tensor.h"

namespace espresso {

// Outcome of transmitting one payload.
enum class PayloadFate {
  kDelivered,  // payload arrives intact
  kDropped,    // payload lost; the sender's update must be preserved elsewhere (EF)
  kCorrupted,  // payload arrives with mutated contents (undetected corruption)
};

class PayloadChannel {
 public:
  virtual ~PayloadChannel() = default;

  // Called once per training step before any Transmit, so deterministic fault
  // schedules can key their draws on the iteration index.
  virtual void BeginIteration(uint64_t iteration) { (void)iteration; }

  // Transmits `payload` from `rank`. May mutate the payload in place (corruption).
  // Returns the final fate; kDropped payloads must be excluded from aggregation.
  // `tensor_id` is the executor's tensor id for a payload of a rank's whole range, and
  // tensor_id * 1315423911 + j for part j of an alltoall.
  virtual PayloadFate Transmit(size_t rank, uint64_t tensor_id,
                               CompressedTensor* payload) = 0;
};

}  // namespace espresso

#endif  // SRC_COLLECTIVES_CHANNEL_H_
