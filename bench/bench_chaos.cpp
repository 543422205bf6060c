// Chaos harness: the Espresso runtime under injected faults, end to end.
//
// Scenario (all draws seeded — two runs emit byte-identical JSON):
//   1. Straggler + link-jitter timeline sweep: 200 iterations of VGG16 on the NVLink
//      testbed with a 10% straggler probability and 5% inter-link jitter; reports the
//      iteration-time distribution against the fault-free baseline.
//   2. Lossy-datapath convergence: data-parallel MLP training through the real
//      compressed pipeline with 5% payload drops (error feedback on), compared with the
//      fault-free run — accuracy must land within 1%.
//   3. Retry/fallback sweep: ResilientExecuteStrategy under a 30% phase-failure rate;
//      reports clean/retried/fallback counts and verifies the aggregation stays exact.
//   4. Online re-selection: the inter-machine link degrades 4x mid-run; the drift
//      monitor must trigger a strategy hot-swap that changes at least one tensor option.
//
// Usage: bench_chaos [report.json] [--metrics-out=<file>]... [--trace-out=<file>]...
//   (default report: chaos_report.json)
#include <cmath>
#include <fstream>
#include <iostream>

#include "src/collectives/primitives.h"
#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/fault/drift_monitor.h"
#include "src/fault/resilient_executor.h"
#include "src/models/model_zoo.h"
#include "src/nn/parallel_trainer.h"
#include "src/obs/cli.h"
#include "src/obs/span.h"
#include "src/obs/trace_writer.h"
#include "src/util/json_writer.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace espresso {
namespace {

struct TimelineSweep {
  Summary iteration_times;
  double p99 = 0.0;
  double baseline = 0.0;
  size_t straggler_iterations = 0;
};

TimelineSweep RunTimelineSweep() {
  const ModelProfile model = Vgg16();
  const ClusterSpec cluster = NvlinkCluster(4, 4);
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "dgc", .ratio = 0.01});
  EspressoSelector selector(model, cluster, *compressor);
  const Strategy strategy = selector.Select().strategy;

  FaultSpec spec;
  spec.seed = 7;
  spec.straggler_probability = 0.1;
  spec.straggler_slowdown = 2.5;
  spec.link_jitter = 0.05;
  const FaultPlan plan(spec);

  TimelineSweep sweep;
  TimelineEvaluator evaluator(model, cluster, *compressor);
  sweep.baseline = evaluator.IterationTime(strategy);
  std::vector<double> times;
  for (uint64_t it = 0; it < 200; ++it) {
    const IterationFaults faults = plan.AtIteration(it);
    if (faults.straggler_active) ++sweep.straggler_iterations;
    TimelineEvaluator perturbed(model, cluster, *compressor);
    perturbed.SetResourceScales(FaultPlan::ScalesFor(faults));
    times.push_back(perturbed.IterationTime(strategy));
  }
  sweep.p99 = Percentile(times, 99.0);
  sweep.iteration_times = Summarize(times);
  return sweep;
}

struct ConvergenceRun {
  double fault_free_accuracy = 0.0;
  double lossy_accuracy = 0.0;
  uint64_t payloads_dropped = 0;
  uint64_t payload_attempts = 0;
};

ConvergenceRun RunLossyConvergence() {
  const Dataset all = MakeGaussianBlobs(1536, 12, 4, 2.5, 99);
  const Dataset train = Slice(all, 0, 1024);
  const Dataset test = Slice(all, 1024, 512);
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "dgc", .ratio = 0.05});

  TrainConfig config;
  config.workers = 4;
  config.hidden_dim = 24;
  config.batch_per_worker = 16;
  config.learning_rate = 0.05;
  config.epochs = 20;
  config.seed = 1234;
  config.scheme = SyncScheme::kCompressedIndivisible;
  config.compressor = compressor.get();

  ConvergenceRun run;
  run.fault_free_accuracy = TrainDataParallel(train, test, config).back().test_accuracy;

  FaultSpec spec;
  spec.seed = 2024;
  spec.drop_probability = 0.05;
  TrainConfig lossy = config;
  lossy.faults = FaultPlan(spec).PayloadFaultsAt(0);
  const std::vector<EpochStats> history = TrainDataParallel(train, test, lossy);
  run.lossy_accuracy = history.back().test_accuracy;
  for (const EpochStats& epoch : history) {
    run.payloads_dropped += epoch.payloads_dropped;
    run.payload_attempts += epoch.payloads_sent;
  }
  return run;
}

struct ExecutorSweep {
  ResilienceReport report;
  bool aggregation_exact = true;
};

ExecutorSweep RunRetryFallbackSweep() {
  FaultSpec spec;
  spec.seed = 5;
  spec.collective_failure_probability = 0.3;
  const FaultPlan plan(spec);
  RetryPolicy policy;
  policy.max_attempts = 3;

  const ExecutorConfig config{.machines = 2, .gpus_per_machine = 2};
  const TreeConfig tree{2, 2, false};
  const size_t tensors = 24, elements = 64;
  const Strategy strategy = UniformStrategy(tensors, DefaultUncompressedOption(tree));

  ExecutorSweep sweep;
  for (uint64_t it = 0; it < 10; ++it) {
    std::vector<RankBuffers> gradients;
    std::vector<std::vector<float>> expected;
    for (size_t t = 0; t < tensors; ++t) {
      RankBuffers buffers(config.ranks(), std::vector<float>(elements));
      for (size_t r = 0; r < config.ranks(); ++r) {
        Rng rng(DeriveSeed(DeriveSeed(17, it), t * 100 + r));
        rng.FillNormal(buffers[r], 0.0, 1.0);
      }
      expected.push_back(NaiveSum(buffers));
      gradients.push_back(std::move(buffers));
    }
    const ResilienceReport report =
        ResilientExecuteStrategy(strategy, config, gradients, plan, policy, it);
    sweep.report.tensors += report.tensors;
    sweep.report.clean += report.clean;
    sweep.report.retried += report.retried;
    sweep.report.fallbacks += report.fallbacks;
    sweep.report.total_retries += report.total_retries;
    sweep.report.backoff_seconds += report.backoff_seconds;
    for (size_t t = 0; t < tensors; ++t) {
      for (size_t r = 0; r < config.ranks(); ++r) {
        for (size_t i = 0; i < elements; ++i) {
          if (std::abs(gradients[t][r][i] - expected[t][i]) > 1e-3f) {
            sweep.aggregation_exact = false;
          }
        }
      }
    }
  }
  return sweep;
}

struct ReselectionRun {
  bool triggered = false;
  ReselectionEvent event;
  size_t trigger_iteration = 0;
};

ReselectionRun RunOnlineReselection() {
  const ModelProfile model = Vgg16();
  const ClusterSpec profiled = NvlinkCluster(4, 4);
  const CompressorConfig gc{.algorithm = "dgc", .ratio = 0.01};
  const auto compressor = CreateCompressor(gc);
  DriftConfig drift;
  drift.threshold = 0.25;
  drift.smoothing = 0.5;
  OnlineReselector reselector(model, profiled, *compressor, gc, SelectorOptions{}, drift);

  // 10 healthy iterations, then the inter link degrades 4x and stays degraded.
  FaultSpec spec;
  spec.seed = 11;
  spec.link_jitter = 0.02;
  FaultSpec degraded_spec = spec;
  degraded_spec.inter_bandwidth_factor = 0.25;
  const FaultPlan healthy(spec);
  const FaultPlan degraded(degraded_spec);

  ReselectionRun run;
  for (uint64_t it = 0; it < 30; ++it) {
    const FaultPlan& plan = it >= 10 ? degraded : healthy;
    const ClusterSpec observed = FaultPlan::PerturbCluster(profiled, plan.AtIteration(it));
    const auto event = reselector.Step(it, observed);
    if (event.has_value() && !run.triggered) {
      run.triggered = true;
      run.event = *event;
      run.trigger_iteration = it;
    }
  }
  return run;
}

void WriteReport(std::ostream& os, const TimelineSweep& sweep, const ConvergenceRun& conv,
                 const ExecutorSweep& executor, const ReselectionRun& reselect) {
  JsonWriter json(os);
  json.BeginObject();
  json.Field("bench", "chaos");
  json.Field("seed_note", "all draws seeded; this file is byte-identical across runs");

  json.Key("timeline_sweep");
  json.BeginObject();
  json.Field("baseline_iteration_s", sweep.baseline);
  json.Field("mean_iteration_s", sweep.iteration_times.mean);
  json.Field("max_iteration_s", sweep.iteration_times.max);
  json.Field("p99_iteration_s", sweep.p99);
  json.Field("straggler_iterations", static_cast<uint64_t>(sweep.straggler_iterations));
  json.EndObject();

  json.Key("lossy_convergence");
  json.BeginObject();
  json.Field("fault_free_accuracy", conv.fault_free_accuracy);
  json.Field("lossy_accuracy", conv.lossy_accuracy);
  json.Field("accuracy_delta", conv.lossy_accuracy - conv.fault_free_accuracy);
  json.Field("payloads_dropped", conv.payloads_dropped);
  json.Field("payload_attempts", conv.payload_attempts);
  json.EndObject();

  json.Key("retry_fallback");
  json.BeginObject();
  json.Field("tensors", static_cast<uint64_t>(executor.report.tensors));
  json.Field("clean", static_cast<uint64_t>(executor.report.clean));
  json.Field("retried", static_cast<uint64_t>(executor.report.retried));
  json.Field("fp32_fallbacks", static_cast<uint64_t>(executor.report.fallbacks));
  json.Field("total_retries", static_cast<uint64_t>(executor.report.total_retries));
  json.Field("backoff_seconds", executor.report.backoff_seconds);
  json.Field("aggregation_exact", executor.aggregation_exact);
  json.EndObject();

  json.Key("online_reselection");
  json.BeginObject();
  json.Field("triggered", reselect.triggered);
  json.Field("trigger_iteration", static_cast<uint64_t>(reselect.trigger_iteration));
  json.Field("drift", reselect.event.drift);
  json.Field("options_changed", static_cast<uint64_t>(reselect.event.options_changed));
  json.Field("stale_iteration_s", reselect.event.stale_iteration_time);
  json.Field("new_iteration_s", reselect.event.new_iteration_time);
  json.EndObject();

  json.EndObject();
  os << "\n";
}

int Run(const std::string& report_path) {
  std::cout << "Chaos harness: straggler + lossy datapath + retry/fallback + online "
               "re-selection\n\n";

  const TimelineSweep sweep = RunTimelineSweep();
  TextTable timeline({"metric", "value"});
  timeline.AddRow({"fault-free iteration (ms)", TextTable::Num(sweep.baseline * 1e3, 2)});
  timeline.AddRow({"mean under faults (ms)",
                   TextTable::Num(sweep.iteration_times.mean * 1e3, 2)});
  timeline.AddRow({"p99 under faults (ms)", TextTable::Num(sweep.p99 * 1e3, 2)});
  timeline.AddRow({"straggler iterations / 200",
                   TextTable::Num(static_cast<double>(sweep.straggler_iterations), 0)});
  std::cout << "1) Straggler + link-jitter timeline sweep (VGG16, 16 GPUs)\n";
  timeline.Print(std::cout);

  const ConvergenceRun conv = RunLossyConvergence();
  std::cout << "\n2) Convergence under 5% payload drops (EF on): fault-free "
            << TextTable::Percent(conv.fault_free_accuracy, 2) << " vs lossy "
            << TextTable::Percent(conv.lossy_accuracy, 2) << " (" << conv.payloads_dropped
            << "/" << conv.payload_attempts << " payloads dropped)\n";

  const ExecutorSweep executor = RunRetryFallbackSweep();
  std::cout << "\n3) Retry/fallback sweep (30% phase failures, 240 tensor syncs): "
            << executor.report.clean << " clean, " << executor.report.retried
            << " retried, " << executor.report.fallbacks << " FP32 fallbacks, "
            << "aggregation " << (executor.aggregation_exact ? "exact" : "WRONG") << "\n";

  const ReselectionRun reselect = RunOnlineReselection();
  std::cout << "\n4) Online re-selection (inter link degraded 4x at iteration 10): ";
  if (reselect.triggered) {
    std::cout << "triggered at iteration " << reselect.trigger_iteration << ", drift "
              << TextTable::Num(reselect.event.drift, 3) << ", "
              << reselect.event.options_changed << " tensor options changed, F(S) "
              << TextTable::Num(reselect.event.stale_iteration_time * 1e3, 2) << " -> "
              << TextTable::Num(reselect.event.new_iteration_time * 1e3, 2) << " ms\n";
  } else {
    std::cout << "NOT triggered\n";
  }

  std::ofstream out(report_path);
  WriteReport(out, sweep, conv, executor, reselect);
  std::cout << "\nJSON report: " << report_path << "\n";

  const bool straggled = sweep.straggler_iterations > 0 &&
                         sweep.iteration_times.max > sweep.baseline;
  const bool converged =
      std::abs(conv.lossy_accuracy - conv.fault_free_accuracy) <= 0.01 &&
      conv.payloads_dropped > 0;
  const bool resilient = executor.aggregation_exact && executor.report.fallbacks > 0;
  const bool reselected = reselect.triggered && reselect.event.options_changed > 0;
  const bool pass = straggled && converged && resilient && reselected;
  std::cout << (pass ? "Chaos checks PASSED"
                     : "Chaos checks FAILED")
            << ": stragglers " << (straggled ? "ok" : "MISSING") << ", convergence "
            << (converged ? "ok" : "DEGRADED") << ", fallback "
            << (resilient ? "ok" : "BROKEN") << ", re-selection "
            << (reselected ? "ok" : "MISSING") << "\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace espresso

int main(int argc, char** argv) {
  using espresso::obs::ObsCliOptions;
  ObsCliOptions obs_options;
  std::string report_path = "chaos_report.json";
  bool have_report_path = false;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    switch (ObsCliOptions::ParseArg(argc, argv, &i, &obs_options, &error)) {
      case ObsCliOptions::Parse::kConsumed:
        break;
      case ObsCliOptions::Parse::kError:
        std::cerr << "error: " << error << "\n";
        return 2;
      case ObsCliOptions::Parse::kNotMine:
        if (have_report_path) {
          std::cerr << "usage: " << argv[0]
                    << " [report.json] [--metrics-out=<file>]... [--trace-out=<file>]...\n";
          return 2;
        }
        report_path = argv[i];
        have_report_path = true;
        break;
    }
  }
  obs_options.ApplyTraceEnable();
  const int status = espresso::Run(report_path);
  if (status != 0) {
    return status;
  }
  if (!obs_options.WriteMetricsFiles(espresso::obs::GlobalMetrics(), std::cerr)) {
    return 1;
  }
  for (const std::string& path : obs_options.trace_out) {
    std::ofstream trace_out(path);
    if (!trace_out) {
      std::cerr << "error: cannot write " << path << "\n";
      return 1;
    }
    espresso::obs::WriteSpanTrace(trace_out, espresso::obs::GlobalTrace());
  }
  return 0;
}
