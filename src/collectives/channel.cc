#include "src/collectives/channel.h"

#include <algorithm>
#include <type_traits>

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace espresso {

namespace {
// Stream tag keeping payload-level draws apart from a fault plan's iteration draws.
constexpr uint64_t kPayloadStream = 0x9E3779B97F4A7C15ULL;
// Rank tag decorrelating which bit a corruption flips from the fate draw itself.
constexpr uint64_t kCorruptionRank = 0xC0FFEEULL;

// Flips one bit of the payload's first non-empty container, at an element the draw
// picks.
void Corrupt(const PayloadFaults& faults, uint64_t rank, uint64_t wire_id,
             CompressedTensor* payload) {
  const double draw =
      PayloadDraw(faults.seed, faults.iteration, rank ^ kCorruptionRank, wire_id, 1);
  auto flip_bit = [&](auto& container) {
    using Value = typename std::remove_reference_t<decltype(container)>::value_type;
    const size_t index = static_cast<size_t>(draw * static_cast<double>(container.size()));
    const size_t clamped = std::min(index, container.size() - 1);
    auto* bytes = reinterpret_cast<uint8_t*>(container.data()) + clamped * sizeof(Value);
    bytes[0] ^= 0x40;  // flip a mid-significance bit
  };
  if (!payload->values.empty()) {
    flip_bit(payload->values);
  } else if (!payload->bytes.empty()) {
    flip_bit(payload->bytes);
  } else if (!payload->scales.empty()) {
    flip_bit(payload->scales);
  } else if (!payload->indices.empty()) {
    flip_bit(payload->indices);
  }
}

}  // namespace

double PayloadDraw(uint64_t seed, uint64_t iteration, uint64_t rank, uint64_t id,
                   uint32_t attempt) {
  // Two SplitMix64 rounds decorrelate the four coordinates; a third maps to [0, 1).
  const uint64_t a = DeriveSeed(seed ^ kPayloadStream, iteration * 0x100000001B3ULL + rank);
  const uint64_t b = DeriveSeed(a, id * 0x9E3779B9ULL + attempt);
  Rng rng(b);
  return rng.Uniform(0.0, 1.0);
}

PayloadFate DrawPayloadFate(const PayloadFaults& faults, uint64_t rank, uint64_t wire_id,
                            CompressedTensor* payload) {
  ESP_CHECK(payload != nullptr);
  const double draw = PayloadDraw(faults.seed, faults.iteration, rank, wire_id, 1);
  if (draw < faults.drop_probability) {
    return PayloadFate::kDropped;
  }
  if (draw < faults.drop_probability + faults.corrupt_probability) {
    Corrupt(faults, rank, wire_id, payload);
    return PayloadFate::kCorrupted;
  }
  return PayloadFate::kDelivered;
}

}  // namespace espresso
