#include "src/analysis/dominance.h"

#include <cmath>
#include <string>

#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/core/timeline.h"
#include "src/core/upper_bound.h"

namespace espresso {

namespace {

// Relative slack for the F(S) comparisons in CheckDominance.
constexpr double kTolerance = 0.005;

void CheckLink(const LinkSpec& link, const std::string& which, DiagnosticReport* report) {
  if (!(link.latency_s >= 0.0) || !std::isfinite(link.latency_s)) {
    report->AddError(rules::kAlphaRange, Diagnostic::kStrategyScope,
                     which + " link '" + link.name + "' has alpha (latency) " +
                         std::to_string(link.latency_s),
                     "per-message startup cost must be finite and non-negative");
  }
  if (!(link.bytes_per_second > 0.0) || !std::isfinite(link.bytes_per_second)) {
    report->AddError(rules::kBetaRange, Diagnostic::kStrategyScope,
                     which + " link '" + link.name + "' has bandwidth " +
                         std::to_string(link.bytes_per_second) + " bytes/s",
                     "1/beta must be finite and strictly positive");
  }
}

void CheckDeviceSpec(const DeviceCostSpec& spec, const std::string& which,
                     DiagnosticReport* report) {
  if (!(spec.launch_overhead_s >= 0.0) || !(spec.compress_bytes_per_s > 0.0) ||
      !(spec.decompress_bytes_per_s > 0.0)) {
    report->AddError(rules::kNegativeDurationModel, Diagnostic::kStrategyScope,
                     which + " compression cost spec is out of range (overhead=" +
                         std::to_string(spec.launch_overhead_s) + ", compress=" +
                         std::to_string(spec.compress_bytes_per_s) + " B/s, decompress=" +
                         std::to_string(spec.decompress_bytes_per_s) + " B/s)",
                     "launch overhead must be >= 0 and throughputs > 0");
  }
}

}  // namespace

DiagnosticReport CheckCostModelSanity(const ModelProfile& model, const ClusterSpec& cluster,
                                      const Compressor& compressor) {
  DiagnosticReport report;
  CheckLink(cluster.intra, "intra", &report);
  CheckLink(cluster.inter, "inter", &report);
  CheckDeviceSpec(cluster.gpu_compression, "gpu", &report);
  CheckDeviceSpec(cluster.cpu_compression, "cpu", &report);
  if (report.HasErrors()) {
    return report;  // op durations would just repeat the same root causes
  }

  // Sweep every candidate op over a spread of tensor sizes; durations must come back
  // finite and non-negative (monotonicity of the alpha-beta model in the op size).
  TimelineEvaluator evaluator(model, cluster, compressor);
  const TreeConfig tree{cluster.machines, cluster.gpus_per_machine,
                        compressor.SupportsCompressedAggregation()};
  for (const CompressionOption& option : CandidateOptions(tree)) {
    for (const size_t elements : {size_t{1} << 10, size_t{1} << 20, size_t{1} << 26}) {
      for (const Op& op : option.ops) {
        const double duration = evaluator.OpDuration(op, elements);
        if (!std::isfinite(duration) || duration < 0.0) {
          report.AddError(rules::kNegativeDurationModel, Diagnostic::kStrategyScope,
                          "option [" + option.label + "] prices an op at " +
                              std::to_string(duration) + "s for " +
                              std::to_string(elements) + " elements",
                          "cost models must return finite, non-negative durations");
        }
      }
    }
  }
  return report;
}

DominanceResult CheckDominance(const ModelProfile& model, const ClusterSpec& cluster,
                               const Compressor& compressor, const Strategy& strategy) {
  DominanceResult result;
  result.report = CheckCostModelSanity(model, cluster, compressor);

  TimelineEvaluator evaluator(model, cluster, compressor);
  result.checked_iteration_time = evaluator.IterationTime(strategy);

  result.baselines.emplace_back("fp32", evaluator.IterationTime(Fp32Strategy(model, cluster)));
  result.baselines.emplace_back(
      "hipress", evaluator.IterationTime(HiPressStrategy(model, cluster, compressor)));
  result.baselines.emplace_back(
      "hitopkcomm", evaluator.IterationTime(HiTopKCommStrategy(model, cluster, compressor)));
  result.baselines.emplace_back(
      "bytepscompress",
      evaluator.IterationTime(BytePSCompressStrategy(model, cluster, compressor)));

  for (const auto& [name, baseline_time] : result.baselines) {
    if (result.checked_iteration_time > baseline_time * (1.0 + kTolerance)) {
      result.report.AddError(
          rules::kWorseThanBaseline, Diagnostic::kStrategyScope,
          "strategy F(S) = " + std::to_string(result.checked_iteration_time) +
              "s is dominated by baseline '" + name + "' at " +
              std::to_string(baseline_time) + "s",
          "Espresso's search space contains every baseline; losing to one means the "
          "selector or cost model regressed");
    } else if (result.checked_iteration_time > baseline_time) {
      result.report.AddNote(rules::kWorseThanBaseline, Diagnostic::kStrategyScope,
                            "strategy ties baseline '" + name + "' within tolerance (" +
                                std::to_string(result.checked_iteration_time) + "s vs " +
                                std::to_string(baseline_time) + "s)");
    }
  }

  const UpperBoundResult bound = ComputeUpperBound(model, cluster, compressor);
  result.upper_bound_iteration_time = bound.iteration_time;
  if (result.checked_iteration_time < bound.iteration_time * (1.0 - kTolerance)) {
    result.report.AddError(
        rules::kBeatsUpperBound, Diagnostic::kStrategyScope,
        "strategy F(S) = " + std::to_string(result.checked_iteration_time) +
            "s beats the zero-compression-cost Upper Bound " +
            std::to_string(bound.iteration_time) + "s",
        "nothing may beat free compression; the bound or the evaluator is broken");
  }
  return result;
}

}  // namespace espresso
