#include "src/fault/injector.h"

#include <algorithm>
#include <type_traits>

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace espresso {

namespace {
// Coordinate tags keeping the independent draw families decorrelated.
constexpr uint64_t kCorruptionRank = 0xC0FFEEULL;
constexpr uint64_t kCollectiveRank = 0xFA11ED'C011ULL;
}  // namespace

ClusterSpec FaultInjector::PerturbCluster(const ClusterSpec& profiled,
                                          const IterationFaults& faults) const {
  ClusterSpec observed = profiled;
  observed.inter =
      profiled.inter.Degraded(faults.inter_bandwidth_factor, faults.inter_extra_latency_s);
  observed.intra = profiled.intra.Degraded(faults.intra_bandwidth_factor);
  return observed;
}

ResourceScales FaultInjector::ScalesFor(const IterationFaults& faults) const {
  ResourceScales scales;
  scales.gpu = 1.0 / faults.compute_slowdown;
  scales.cpu = 1.0 / faults.cpu_slowdown;
  scales.intra = faults.intra_bandwidth_factor;
  scales.inter = faults.inter_bandwidth_factor;
  return scales;
}

PayloadFate FaultInjector::AttemptFate(uint64_t iteration, uint64_t rank,
                                       uint64_t tensor_id) const {
  const FaultSpec& spec = plan_.spec();
  if (spec.drop_probability == 0.0 && spec.corrupt_probability == 0.0) {
    return PayloadFate::kDelivered;
  }
  const double draw = plan_.PayloadDraw(iteration, rank, tensor_id, 1);
  if (draw < spec.drop_probability) {
    return PayloadFate::kDropped;
  }
  if (draw < spec.drop_probability + spec.corrupt_probability) {
    return PayloadFate::kCorrupted;
  }
  return PayloadFate::kDelivered;
}

void FaultInjector::Corrupt(uint64_t iteration, uint64_t rank, uint64_t tensor_id,
                            CompressedTensor* payload) const {
  ESP_CHECK(payload != nullptr);
  const double draw = plan_.PayloadDraw(iteration, rank ^ kCorruptionRank, tensor_id, 1);
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
  // An entirely empty payload has no contents to corrupt; it passes through.
}

bool FaultInjector::CollectivePhaseFails(uint64_t iteration, uint64_t tensor_id,
                                         uint32_t attempt) const {
  const double p = plan_.spec().collective_failure_probability;
  if (p == 0.0) {
    return false;
  }
  return plan_.PayloadDraw(iteration, kCollectiveRank, tensor_id, attempt) < p;
}

}  // namespace espresso
