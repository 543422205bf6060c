// strategy_lint: command-line front end for the static-analysis passes.
//
// Runs the StrategyLinter, the ScheduleVerifier (over a recorded simulated timeline),
// and the DominanceChecker on a job, then prints a diagnostics table and optionally a
// JSON report. Exit status: 0 clean, 1 diagnostics with severity error, 2 usage or
// input failure.
//
// Usage:
//   strategy_lint <model.ini> <gc.ini> <system.ini>
//                 [--json <path>] [--ir <path>] [--force-digest]
//                 [--inject overlap|illegal-option|dominated|stale-digest]
//
// Without --ir, the Espresso selector chooses the strategy (the common CI mode: lint
// what the selector would actually ship). --ir validates a versioned strategy IR
// document (docs/DEPLOYMENT.md) against the three configs instead: the full fail-closed
// admission pipeline — digest comparison, lint, schedule verification — with
// --force-digest downgrading digest mismatches to warnings. --inject plants one known
// violation before checking; the mutation tests assert each mode trips its pass with
// the expected rule id and a non-zero exit (stale-digest compiles a fresh IR, corrupts
// its model digest, and must be caught by ir.digest-mismatch).
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/dominance.h"
#include "src/analysis/ir_validator.h"
#include "src/analysis/schedule_verifier.h"
#include "src/analysis/strategy_linter.h"
#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/core/espresso.h"
#include "src/core/strategy_ir.h"
#include "src/core/timeline.h"
#include "src/ddl/job_config.h"

namespace {

using namespace espresso;

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <model.ini> <gc.ini> <system.ini>\n"
               "         [--json <path>] [--ir <path>] [--force-digest]\n"
               "         [--inject overlap|illegal-option|dominated|stale-digest]\n";
  return 2;
}

// Plants a Rule-1 violation: a second compress op directly after the first, which the
// payload state machine must reject (strategy.double-compress).
void InjectIllegalOption(Strategy* strategy) {
  CompressionOption& option = strategy->options.front();
  Op compress;
  compress.task = ActionTask::kCompress;
  compress.phase = option.flat ? CommPhase::kFlat : CommPhase::kIntraFirst;
  compress.domain_fraction = 1.0;
  compress.payload_fraction = 0.1;
  option.ops.insert(option.ops.begin(), 2, compress);
  option.label += "+inject:double-compress";
}

// Plants a schedule violation: drags the second interval on the serial gpu stream back
// over the first one (schedule.serial-overlap).
void InjectOverlap(std::vector<TimelineEntry>* entries) {
  TimelineEntry& first = (*entries)[0];
  TimelineEntry& second = (*entries)[1];
  second.start = first.start;
  if (second.end <= second.start) {
    second.end = first.end;
  }
}

// Plants a dominance violation: FP32 communication plus a full-size compress/decompress
// round trip per tensor — pure GPU cost with zero wire savings, so the result must lose
// to the FP32 baseline (dominance.worse-than-baseline).
Strategy InjectDominated(const ModelProfile& model, const ClusterSpec& cluster) {
  Strategy strategy = Fp32Strategy(model, cluster);
  for (CompressionOption& option : strategy.options) {
    const CommPhase phase = option.flat ? CommPhase::kFlat : CommPhase::kIntraFirst;
    Op compress;
    compress.task = ActionTask::kCompress;
    compress.phase = phase;
    Op decompress;
    decompress.task = ActionTask::kDecompress;
    decompress.phase = phase;
    option.ops.insert(option.ops.begin(), {compress, decompress});
    option.label += "+inject:dominated";
  }
  return strategy;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string json_path;
  std::string inject;
  std::string ir_path;
  bool force_digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (++i >= argc) return Usage(argv[0]);
      json_path = argv[i];
    } else if (arg == "--inject") {
      if (++i >= argc) return Usage(argv[0]);
      inject = argv[i];
    } else if (arg == "--ir") {
      if (++i >= argc) return Usage(argv[0]);
      ir_path = argv[i];
    } else if (arg == "--force-digest") {
      force_digest = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return Usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 3) {
    return Usage(argv[0]);
  }
  if (!inject.empty() && inject != "overlap" && inject != "illegal-option" &&
      inject != "dominated" && inject != "stale-digest") {
    std::cerr << "unknown --inject mode: " << inject << "\n";
    return Usage(argv[0]);
  }
  if (inject == "stale-digest" && !ir_path.empty()) {
    std::cerr << "error: --inject stale-digest compiles its own IR; drop --ir\n";
    return Usage(argv[0]);
  }

  const JobConfigResult loaded =
      LoadJobConfigFromFiles(positional[0], positional[1], positional[2]);
  if (!loaded.ok) {
    std::cerr << "error: " << loaded.error << "\n";
    return 2;
  }
  const JobConfig& job = loaded.job;
  const auto compressor = job.MakeCompressor();
  const TreeConfig tree{job.cluster.machines, job.cluster.gpus_per_machine,
                        compressor->SupportsCompressedAggregation(), job.max_compress_ops};

  // IR mode: run the fail-closed admission pipeline over a strategy IR document (or,
  // for the stale-digest mutation, over a freshly compiled IR whose model digest has
  // been corrupted — the pipeline must refuse it with ir.digest-mismatch).
  if (!ir_path.empty() || inject == "stale-digest") {
    StrategyIR ir;
    if (inject == "stale-digest") {
      SelectorOptions options;
      if (job.max_compress_ops > 0) {
        options.candidates = CandidateOptions(tree);
      }
      const SelectionResult result =
          EspressoSelector(job.model, job.cluster, *compressor, options).Select();
      StrategyProvenance provenance;
      provenance.origin = "inject:stale-digest";
      provenance.selector = "espresso";
      ir = CompileStrategyIR(result.strategy, result.iteration_time, job.model,
                             job.cluster, job.compressor, std::move(provenance));
      ir.model_digest ^= 1;
    } else {
      StrategyIRParseOptions parse_options;
      parse_options.verify_payload_digest = !force_digest;
      StrategyIRParseResult parsed = ReadStrategyIRFile(ir_path, parse_options);
      if (!parsed.ok) {
        std::cerr << "error: " << parsed.error << "\n";
        return 2;
      }
      ir = std::move(parsed.ir);
    }
    IRValidationOptions validate;
    validate.force_digest = force_digest;
    validate.max_compress_ops = job.max_compress_ops;
    IRValidationResult admitted = ValidateStrategyIR(ir, job.model, job.cluster,
                                                     *compressor, job.compressor, validate);
    if (admitted.ok) {
      DominanceResult dominance =
          CheckDominance(job.model, job.cluster, *compressor, ir.strategy);
      admitted.report.Merge(std::move(dominance.report));
    }
    admitted.report.PrintTable(std::cout);
    if (!json_path.empty()) {
      std::ofstream json(json_path);
      if (!json) {
        std::cerr << "error: cannot write " << json_path << "\n";
        return 2;
      }
      admitted.report.WriteJson(json);
      json << "\n";
    }
    return admitted.report.HasErrors() ? 1 : 0;
  }

  Strategy strategy;
  if (inject == "dominated") {
    strategy = InjectDominated(job.model, job.cluster);
  } else {
    SelectorOptions options;
    if (job.max_compress_ops > 0) {
      options.candidates = CandidateOptions(tree);
    }
    strategy = EspressoSelector(job.model, job.cluster, *compressor, options)
                   .Select()
                   .strategy;
  }
  if (inject == "illegal-option") {
    if (strategy.options.empty()) {
      std::cerr << "error: cannot inject into an empty strategy\n";
      return 2;
    }
    InjectIllegalOption(&strategy);
  }

  DiagnosticReport report;
  LintOptions lint_options;
  lint_options.expected_tensors = job.model.tensors.size();
  report.Merge(LintStrategy(tree, strategy, lint_options));

  // An illegal option prices as garbage; only simulate/compare when the shape is sound.
  const bool simulatable = !report.HasErrors() || inject == "overlap";
  TimelineEvaluator evaluator(job.model, job.cluster, *compressor);
  if (simulatable) {
    const TimelineResult timeline = evaluator.Evaluate(strategy, /*record_entries=*/true);
    VerifierConfig verifier_config;
    verifier_config.cpu_workers = job.cluster.cpu_workers_per_gpu;
    if (inject == "overlap") {
      std::vector<TimelineEntry> entries = timeline.entries;
      if (entries.size() < 2) {
        std::cerr << "error: timeline too small to inject an overlap\n";
        return 2;
      }
      InjectOverlap(&entries);
      report.Merge(VerifySchedule(entries, verifier_config));
    } else {
      report.Merge(VerifySimulatedTimeline(strategy, timeline.entries, verifier_config));
    }
  }
  if (simulatable && inject != "overlap") {
    DominanceResult dominance =
        CheckDominance(job.model, job.cluster, *compressor, strategy);
    report.Merge(std::move(dominance.report));
  }

  report.PrintTable(std::cout);
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    report.WriteJson(json);
    json << "\n";
  }
  return report.HasErrors() ? 1 : 0;
}
