// The Figure-6 front end: Espresso takes three configuration files — model information,
// GC information, and training-system information — selects a near-optimal compression
// strategy offline, and reports the per-tensor decisions and the predicted speedup.
//
// Usage: espresso_cli <model.ini> <gc.ini> <system.ini>
//                     [--ir-out=<file>] [--ir-in=<file>] [--force-digest]
//                     [--metrics-out=<file>]... [--trace-out=<file>]...
// Try:   espresso_cli configs/model_gpt2.ini configs/gc_dgc.ini configs/system_nvlink.ini
//
// --metrics-out writes the run's metrics registry (Prometheus text, or the JSON dump
// when the file ends in .json); --trace-out writes a Perfetto-loadable chrome trace of
// the selected strategy's simulated timeline (flow arrows + counter tracks) overlaid
// with the process's wall-clock spans.
//
// --ir-out emits the selection as a versioned, digest-stamped strategy IR document
// (docs/DEPLOYMENT.md); --ir-in skips selection and instead loads such a document
// through the fail-closed admission pipeline — digest comparison against the three
// config files, strategy lint, schedule verification — and refuses to run (exit 1)
// when any gate trips. --force-digest downgrades a digest mismatch to a warning for
// deliberate cross-configuration replays.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/analysis/ir_validator.h"
#include "src/core/baselines.h"
#include "src/core/espresso.h"
#include "src/core/strategy_ir.h"
#include "src/ddl/experiment.h"
#include "src/ddl/job_config.h"
#include "src/obs/cli.h"
#include "src/obs/span.h"
#include "src/obs/trace_writer.h"

int main(int argc, char** argv) {
  using namespace espresso;
  obs::ObsCliOptions obs_options;
  std::vector<const char*> positional;
  std::string ir_out;
  std::string ir_in;
  bool force_digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ir-out=", 0) == 0) {
      ir_out = arg.substr(9);
      continue;
    }
    if (arg.rfind("--ir-in=", 0) == 0) {
      ir_in = arg.substr(8);
      continue;
    }
    if (arg == "--force-digest") {
      force_digest = true;
      continue;
    }
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
  if (positional.size() != 3) {
    std::cerr << "usage: " << argv[0] << " <model.ini> <gc.ini> <system.ini>"
              << " [--ir-out=<file>] [--ir-in=<file>] [--force-digest]"
              << " [--metrics-out=<file>]... [--trace-out=<file>]...\n";
    return 2;
  }
  obs_options.ApplyTraceEnable();

  const JobConfigResult loaded =
      LoadJobConfigFromFiles(positional[0], positional[1], positional[2]);
  if (!loaded.ok) {
    std::cerr << "error: " << loaded.error << "\n";
    return 1;
  }
  const JobConfig& job = loaded.job;
  const auto compressor = job.MakeCompressor();

  std::cout << "Job: " << job.model.name << " (" << job.model.TensorCount() << " tensors, "
            << static_cast<double>(job.model.TotalBytes()) / (1024.0 * 1024.0) << " MB) + "
            << compressor->name() << " on " << job.cluster.machines << "x"
            << job.cluster.gpus_per_machine << " GPUs (" << job.cluster.intra.name << " / "
            << job.cluster.inter.name << ")";
  if (job.max_compress_ops > 0) {
    std::cout << ", user limit: <= " << job.max_compress_ops << " compression ops/tensor";
  }
  std::cout << "\n\n";

  SelectorOptions options;
  if (job.max_compress_ops > 0) {
    TreeConfig tree{job.cluster.machines, job.cluster.gpus_per_machine,
                    compressor->SupportsCompressedAggregation(), job.max_compress_ops};
    options.candidates = CandidateOptions(tree);
  }
  EspressoSelector selector(job.model, job.cluster, *compressor, options);

  SelectionResult result;
  if (!ir_in.empty()) {
    // Fail-closed deployment path: the document must pass digest comparison, the
    // strategy linter, and the schedule verifier before anything runs with it.
    StrategyIRParseOptions parse_options;
    parse_options.verify_payload_digest = !force_digest;
    StrategyIRParseResult parsed = ReadStrategyIRFile(ir_in, parse_options);
    if (!parsed.ok) {
      std::cerr << "error: " << parsed.error << "\n";
      return 1;
    }
    IRValidationOptions validate;
    validate.force_digest = force_digest;
    validate.max_compress_ops = job.max_compress_ops;
    IRValidationResult admitted = ValidateStrategyIR(parsed.ir, job.model, job.cluster,
                                                     *compressor, job.compressor, validate);
    if (!admitted.report.empty()) {
      admitted.report.PrintTable(std::cout);
      std::cout << "\n";
    }
    if (!admitted.ok) {
      std::cerr << "error: strategy IR " << ir_in
                << " refused by the admission pipeline (fail-closed); the job will not "
                   "run with an unvalidated strategy\n";
      return 1;
    }
    std::cout << "Strategy IR " << ir_in << " admitted (payload digest "
              << DigestHex(parsed.ir.ContentDigest()) << ", origin "
              << parsed.ir.provenance.origin << ", F(S) " << parsed.ir.fs_score * 1e3
              << " ms)\n\n";
    result.strategy = std::move(parsed.ir.strategy);
    result.iteration_time = admitted.evaluated_fs;
  } else {
    result = selector.Select();
  }

  const ThroughputResult fp32 =
      MeasureThroughput(job.model, job.cluster, *compressor,
                        Fp32Strategy(job.model, job.cluster));
  const ThroughputResult espresso = MeasureThroughput(job.model, job.cluster, *compressor,
                                                      result.strategy);

  std::printf("FP32 baseline : %8.2f ms/iter, %10.0f %s (scaling %.2f)\n",
              fp32.iteration_time_s * 1e3, fp32.throughput,
              job.model.throughput_unit.c_str(), fp32.scaling_factor);
  std::printf("Espresso      : %8.2f ms/iter, %10.0f %s (scaling %.2f)  -> %.2fx speedup\n\n",
              espresso.iteration_time_s * 1e3, espresso.throughput,
              job.model.throughput_unit.c_str(), espresso.scaling_factor,
              fp32.iteration_time_s / espresso.iteration_time_s);

  std::cout << "Strategy: " << result.strategy.Summary() << "\n";
  if (ir_in.empty()) {
    std::cout << "Selected in "
              << result.telemetry.total_seconds * 1e3 << " ms ("
              << result.telemetry.evaluations << " timeline evaluations, "
              << result.offload_combinations << " offload combinations"
              << (result.offload_exact ? "" : ", coordinate descent") << ")";
  }
  std::cout << "\n\n";

  std::cout << "Per-tensor compression options (backward order):\n";
  for (size_t i = 0; i < job.model.tensors.size(); ++i) {
    const auto& t = job.model.tensors[i];
    std::printf("  %-28s %10.2f MB  %s\n", t.name.c_str(),
                static_cast<double>(t.bytes()) / (1024.0 * 1024.0),
                result.strategy.options[i].label.c_str());
    if (i == 11 && job.model.tensors.size() > 14) {
      std::printf("  ... (%zu more tensors)\n", job.model.tensors.size() - 12);
      break;
    }
  }
  if (!ir_out.empty()) {
    StrategyProvenance provenance;
    provenance.origin = ir_in.empty() ? "selector" : "replay";
    provenance.selector = "espresso";
    const StrategyIR ir = CompileStrategyIR(result.strategy, result.iteration_time,
                                            job.model, job.cluster, job.compressor,
                                            provenance);
    std::string error;
    if (!WriteStrategyIRFile(ir_out, ir, &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    std::cout << "\nStrategy IR written to " << ir_out << " (payload digest "
              << DigestHex(ir.ContentDigest())
              << "; redeploy with --ir-in=" << ir_out << ")\n";
  }

  for (const std::string& path : obs_options.trace_out) {
    const TimelineResult timeline =
        selector.evaluator().Evaluate(result.strategy, /*record_entries=*/true);
    std::ofstream out(path);
    if (!out) {
      std::cerr << "error: cannot write trace file " << path << "\n";
      return 1;
    }
    obs::WriteExtendedChromeTrace(out, job.model, job.cluster, timeline.entries,
                                  /*instants=*/{}, &obs::GlobalTrace());
    std::cout << "Trace written to " << path << " (load in ui.perfetto.dev)\n";
  }
  if (!obs_options.WriteMetricsFiles(obs::GlobalMetrics(), std::cerr)) {
    return 1;
  }
  for (const std::string& path : obs_options.metrics_out) {
    std::cout << "Metrics written to " << path << "\n";
  }
  return 0;
}
