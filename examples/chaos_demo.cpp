// Chaos demo: loads a fault configuration, walks a few training iterations of the
// simulated runtime under the resulting fault schedule, and writes a chrome://tracing
// timeline with the injected faults and the strategy hot-swap overlaid as instant
// events on a dedicated "faults" track.
//
// Usage: chaos_demo [faults.ini] [trace.json] [--metrics-out=<file>]...
//                   [--trace-out=<file>]...
//   defaults: configs/faults_default.ini, chaos_trace.json
//
// The trace (positional path and every --trace-out copy) is the extended chrome
// trace: flow arrows along each tensor's compress -> send -> decompress chain,
// counter tracks for simulated link bandwidth and CPU-pool occupancy, fault
// instants, and the process's wall-clock spans. --metrics-out dumps the metrics
// registry (Prometheus text, or JSON for .json paths).
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "src/core/decision_tree.h"
#include "src/fault/drift_monitor.h"
#include "src/fault/resilient_executor.h"
#include "src/models/model_zoo.h"
#include "src/obs/cli.h"
#include "src/obs/span.h"
#include "src/obs/trace_writer.h"

int main(int argc, char** argv) {
  using namespace espresso;
  obs::ObsCliOptions obs_options;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    switch (obs::ObsCliOptions::ParseArg(argc, argv, &i, &obs_options, &error)) {
      case obs::ObsCliOptions::Parse::kConsumed:
        break;
      case obs::ObsCliOptions::Parse::kError:
        std::cerr << "error: " << error << "\n";
        return 2;
      case obs::ObsCliOptions::Parse::kNotMine:
        positional.push_back(argv[i]);
        break;
    }
  }
  obs::GlobalTrace().set_enabled(true);  // the demo's trace always carries wall spans
  const std::string config_path =
      !positional.empty() ? positional[0] : "configs/faults_default.ini";
  const std::string trace_path = positional.size() > 1 ? positional[1] : "chaos_trace.json";

  ConfigFile config = ConfigFile::Load(config_path);
  if (!config.ok()) {
    std::cerr << "cannot load " << config_path << ": " << config.error() << "\n";
    return 1;
  }
  const FaultPlan plan = FaultPlan::FromConfig(config);
  const RetryPolicy retry = RetryPolicy::FromConfig(config);
  const DriftConfig drift = DriftConfig::FromConfig(config);
  for (const std::string& warning : config.warnings()) {
    std::cerr << "warning: " << warning << "\n";
  }
  std::cout << plan.Describe() << "\n";

  const ModelProfile model = Vgg16();
  const ClusterSpec profiled = NvlinkCluster(4, 4);
  const CompressorConfig gc{.algorithm = "dgc", .ratio = 0.01};
  const auto compressor = CreateCompressor(gc);
  OnlineReselector reselector(model, profiled, *compressor, gc, SelectorOptions{}, drift);

  std::cout << "\niter  straggler  cpu_spike  inter_bw  iteration_ms  note\n";
  std::vector<obs::TraceInstant> instants;
  std::vector<TimelineEntry> last_entries;
  const uint64_t iterations = 12;
  for (uint64_t it = 0; it < iterations; ++it) {
    const IterationFaults faults = plan.AtIteration(it);
    TimelineEvaluator evaluator(model, profiled, *compressor);
    evaluator.SetResourceScales(FaultPlan::ScalesFor(faults));
    const TimelineResult result =
        evaluator.Evaluate(reselector.strategy(), it + 1 == iterations);
    if (it + 1 == iterations) last_entries = result.entries;

    std::ostringstream note;
    if (faults.straggler_active) {
      instants.push_back({result.iteration_time * it, "straggler",
                          "machine slowed " + std::to_string(faults.compute_slowdown) +
                              "x (iteration " + std::to_string(it) + ")"});
      note << "straggler ";
    }
    if (faults.cpu_contention_active) {
      instants.push_back({result.iteration_time * it, "cpu_contention",
                          "cpu pool slowed (iteration " + std::to_string(it) + ")"});
      note << "cpu-contention ";
    }
    const ClusterSpec observed = FaultPlan::PerturbCluster(profiled, faults);
    const auto event = reselector.Step(it, observed);
    if (event.has_value()) {
      std::ostringstream detail;
      detail << "drift " << event->drift << ", " << event->options_changed
             << " options changed, F(S) " << event->stale_iteration_time << " -> "
             << event->new_iteration_time;
      instants.push_back({result.iteration_time * it, "strategy_reselect", detail.str()});
      note << "RESELECTED(" << event->options_changed << " options) ";
    }
    std::cout << it << "     " << (faults.straggler_active ? "yes" : " no ") << "       "
              << (faults.cpu_contention_active ? "yes" : " no ") << "       "
              << faults.inter_bandwidth_factor << "      "
              << result.iteration_time * 1e3 << "  " << note.str() << "\n";
  }

  // One resilient tensor sync so retries/fallbacks appear in the summary.
  const ExecutorConfig exec_config{.machines = 2, .gpus_per_machine = 2};
  const TreeConfig tree{2, 2, false};
  std::vector<RankBuffers> gradients(
      8, RankBuffers(exec_config.ranks(), std::vector<float>(32, 0.5f)));
  const Strategy uniform = UniformStrategy(8, DefaultUncompressedOption(tree));
  const ResilienceReport report =
      ResilientExecuteStrategy(uniform, exec_config, gradients, plan, retry, 0);
  std::cout << "\nresilient sync: " << report.clean << " clean, " << report.retried
            << " retried, " << report.fallbacks << " FP32 fallbacks\n";
  for (const FaultEventRecord& event : report.events) {
    instants.push_back({0.0, event.kind,
                        "tensor " + std::to_string(event.tensor) + " attempt " +
                            std::to_string(event.attempts)});
  }

  std::vector<std::string> trace_paths = {trace_path};
  trace_paths.insert(trace_paths.end(), obs_options.trace_out.begin(),
                     obs_options.trace_out.end());
  for (const std::string& path : trace_paths) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "error: cannot write trace file " << path << "\n";
      return 1;
    }
    obs::WriteExtendedChromeTrace(out, model, profiled, last_entries, instants,
                                  &obs::GlobalTrace());
    std::cout << "trace with " << instants.size() << " fault events: " << path
              << " (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!obs_options.WriteMetricsFiles(obs::GlobalMetrics(), std::cerr)) {
    return 1;
  }
  for (const std::string& path : obs_options.metrics_out) {
    std::cout << "metrics: " << path << "\n";
  }
  return 0;
}
