#include "src/fault/fault_plan.h"

#include <sstream>

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace espresso {

namespace {

// Stream tag keeping iteration-level draws apart from the payload-level ones.
constexpr uint64_t kIterationStream = 0x1755A1EA0ULL;
// Rank coordinate of collective-phase failure draws, apart from every payload's.
constexpr uint64_t kCollectiveRank = 0xFA11ED'C011ULL;

}  // namespace

FaultPlan::FaultPlan(const FaultSpec& spec) : spec_(spec) {
  ESP_CHECK_GE(spec.straggler_probability, 0.0);
  ESP_CHECK_LE(spec.straggler_probability, 1.0);
  ESP_CHECK_GE(spec.straggler_slowdown, 1.0) << "slowdown is a multiplier >= 1";
  ESP_CHECK_GT(spec.inter_bandwidth_factor, 0.0);
  ESP_CHECK_GT(spec.intra_bandwidth_factor, 0.0);
  ESP_CHECK_GE(spec.link_jitter, 0.0);
  ESP_CHECK_LT(spec.link_jitter, 1.0) << "jitter fraction must leave positive bandwidth";
  ESP_CHECK_GE(spec.inter_extra_latency_s, 0.0);
  ESP_CHECK_GE(spec.cpu_contention_probability, 0.0);
  ESP_CHECK_LE(spec.cpu_contention_probability, 1.0);
  ESP_CHECK_GE(spec.cpu_slowdown, 1.0);
  ESP_CHECK_GE(spec.drop_probability, 0.0);
  ESP_CHECK_LE(spec.drop_probability, 1.0);
  ESP_CHECK_GE(spec.corrupt_probability, 0.0);
  ESP_CHECK_LE(spec.corrupt_probability, 1.0);
  ESP_CHECK_GE(spec.collective_failure_probability, 0.0);
  ESP_CHECK_LE(spec.collective_failure_probability, 1.0);
}

FaultPlan FaultPlan::FromConfig(const ConfigFile& config) {
  FaultSpec spec;
  spec.seed = static_cast<uint64_t>(config.GetIntOr("faults", "seed", 42, 0, INT64_MAX));
  spec.straggler_probability =
      config.GetDoubleOr("faults", "straggler_probability", 0.0, 0.0, 1.0);
  spec.straggler_slowdown =
      config.GetDoubleOr("faults", "straggler_slowdown", 1.0, 1.0, 100.0);
  spec.inter_bandwidth_factor =
      config.GetDoubleOr("faults", "inter_bandwidth_factor", 1.0, 1e-3, 1.0);
  spec.intra_bandwidth_factor =
      config.GetDoubleOr("faults", "intra_bandwidth_factor", 1.0, 1e-3, 1.0);
  spec.link_jitter = config.GetDoubleOr("faults", "link_jitter", 0.0, 0.0, 0.9);
  spec.inter_extra_latency_s =
      config.GetDoubleOr("faults", "inter_extra_latency_s", 0.0, 0.0, 1.0);
  spec.cpu_contention_probability =
      config.GetDoubleOr("faults", "cpu_contention_probability", 0.0, 0.0, 1.0);
  spec.cpu_slowdown = config.GetDoubleOr("faults", "cpu_slowdown", 1.0, 1.0, 100.0);
  spec.drop_probability = config.GetDoubleOr("faults", "drop_probability", 0.0, 0.0, 1.0);
  spec.corrupt_probability =
      config.GetDoubleOr("faults", "corrupt_probability", 0.0, 0.0, 1.0);
  spec.collective_failure_probability =
      config.GetDoubleOr("faults", "collective_failure_probability", 0.0, 0.0, 1.0);
  return FaultPlan(spec);
}

IterationFaults FaultPlan::AtIteration(uint64_t iteration) const {
  IterationFaults faults;
  faults.iteration = iteration;
  Rng rng(DeriveSeed(spec_.seed ^ kIterationStream, iteration));

  faults.straggler_active = spec_.straggler_probability > 0.0 &&
                            rng.Uniform(0.0, 1.0) < spec_.straggler_probability;
  faults.compute_slowdown = faults.straggler_active ? spec_.straggler_slowdown : 1.0;

  faults.cpu_contention_active = spec_.cpu_contention_probability > 0.0 &&
                                 rng.Uniform(0.0, 1.0) < spec_.cpu_contention_probability;
  faults.cpu_slowdown = faults.cpu_contention_active ? spec_.cpu_slowdown : 1.0;

  auto jittered = [&](double base) {
    if (spec_.link_jitter == 0.0) {
      return base;
    }
    return base * (1.0 + spec_.link_jitter * rng.Uniform(-1.0, 1.0));
  };
  faults.inter_bandwidth_factor = jittered(spec_.inter_bandwidth_factor);
  faults.intra_bandwidth_factor = jittered(spec_.intra_bandwidth_factor);
  faults.inter_extra_latency_s = spec_.inter_extra_latency_s;
  return faults;
}

ClusterSpec FaultPlan::PerturbCluster(const ClusterSpec& profiled,
                                      const IterationFaults& faults) {
  ClusterSpec observed = profiled;
  observed.inter =
      profiled.inter.Degraded(faults.inter_bandwidth_factor, faults.inter_extra_latency_s);
  observed.intra = profiled.intra.Degraded(faults.intra_bandwidth_factor);
  return observed;
}

ResourceScales FaultPlan::ScalesFor(const IterationFaults& faults) {
  ResourceScales scales;
  scales.gpu = 1.0 / faults.compute_slowdown;
  scales.cpu = 1.0 / faults.cpu_slowdown;
  scales.intra = faults.intra_bandwidth_factor;
  scales.inter = faults.inter_bandwidth_factor;
  return scales;
}

PayloadFaults FaultPlan::PayloadFaultsAt(uint64_t iteration) const {
  return PayloadFaults{.seed = spec_.seed,
                       .iteration = iteration,
                       .drop_probability = spec_.drop_probability,
                       .corrupt_probability = spec_.corrupt_probability};
}

bool FaultPlan::CollectivePhaseFails(uint64_t iteration, uint64_t tensor_id,
                                     uint32_t attempt) const {
  const double p = spec_.collective_failure_probability;
  if (p == 0.0) {
    return false;
  }
  return PayloadDraw(spec_.seed, iteration, kCollectiveRank, tensor_id, attempt) < p;
}

bool FaultPlan::Quiet() const {
  return spec_.straggler_probability == 0.0 && spec_.inter_bandwidth_factor == 1.0 &&
         spec_.intra_bandwidth_factor == 1.0 && spec_.link_jitter == 0.0 &&
         spec_.inter_extra_latency_s == 0.0 && spec_.cpu_contention_probability == 0.0 &&
         spec_.drop_probability == 0.0 && spec_.corrupt_probability == 0.0 &&
         spec_.collective_failure_probability == 0.0;
}

std::string FaultPlan::Describe() const {
  std::ostringstream os;
  os << "FaultPlan{seed=" << spec_.seed
     << " straggler=" << spec_.straggler_probability << "x" << spec_.straggler_slowdown
     << " inter_bw=" << spec_.inter_bandwidth_factor
     << " intra_bw=" << spec_.intra_bandwidth_factor << " jitter=" << spec_.link_jitter
     << " drop=" << spec_.drop_probability << " corrupt=" << spec_.corrupt_probability
     << " coll_fail=" << spec_.collective_failure_probability << "}";
  return os.str();
}

}  // namespace espresso
