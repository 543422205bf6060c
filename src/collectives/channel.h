// Payload faults on the functional network.
//
// The strategy executor normally moves payloads between in-process rank buffers
// perfectly; a lossy PayloadFaults value set in ExecutorConfig::faults models an
// imperfect transport for one iteration: a payload can be delivered, dropped outright,
// or delivered with corrupted contents. The executor draws a fate for each payload
// compressed at an option's first compression site, except a part a rank keeps for
// itself (src/ddl/strategy_executor.h). A fate is a pure function of (seed, iteration,
// sending rank, wire id), so it may be drawn on any thread and in any order. The fault
// subsystem's FaultPlan (src/fault) builds the value for an iteration; the executor
// stays independent of it.
#ifndef SRC_COLLECTIVES_CHANNEL_H_
#define SRC_COLLECTIVES_CHANNEL_H_

#include <cstdint>

#include "src/compress/compressed_tensor.h"

namespace espresso {

// Outcome of transmitting one payload.
enum class PayloadFate {
  kDelivered,  // payload arrives intact
  kDropped,    // payload lost; the sender's update must be preserved elsewhere (EF)
  kCorrupted,  // payload arrives with mutated contents (undetected corruption)
};

// The payload faults of one iteration. The default value is a perfect network.
struct PayloadFaults {
  uint64_t seed = 0;
  uint64_t iteration = 0;
  double drop_probability = 0.0;     // payload lost outright
  double corrupt_probability = 0.0;  // payload delivered with one bit flipped

  bool Lossy() const { return drop_probability > 0.0 || corrupt_probability > 0.0; }
};

// Deterministic draw in [0, 1), decorrelated across (iteration, rank, id, attempt):
// the one source of randomness of payload fates and of collective-phase failures.
double PayloadDraw(uint64_t seed, uint64_t iteration, uint64_t rank, uint64_t id,
                   uint32_t attempt);

// The fate of `rank`'s payload sent as `wire_id`: the executor's tensor id for a
// payload of a rank's whole range, and tensor_id * 1315423911 + j for part j of an
// alltoall. A corrupted payload gets one bit flipped in place (an empty one passes
// through unchanged).
PayloadFate DrawPayloadFate(const PayloadFaults& faults, uint64_t rank, uint64_t wire_id,
                            CompressedTensor* payload);

}  // namespace espresso

#endif  // SRC_COLLECTIVES_CHANNEL_H_
