// espresso_check: whole-space model checker + symbolic cost-model auditor.
//
// Proves, for one (model, gc, system) configuration triple, that
//   * the enumerated decision-tree option space is sound (every option lints clean) and
//     one-edit complete (no linter-legal option exists outside it), with collision-free
//     option fingerprints (pass 1);
//   * the cost model satisfies its interval properties over declared parameter ranges —
//     non-negative durations, symbolic bounds containing the concrete evaluation, byte
//     conservation, F(S) monotone in bandwidth, Upper-Bound dominance (pass 2);
//   * the StrategyLinter and the IR admission pipeline agree on a corpus of valid,
//     corrupted, and byte-tampered strategy documents (pass 3).
//
// Exit status: 0 all properties hold, 1 findings, 2 usage or input failure.
//
// Usage:
//   espresso_check <model.ini> <gc.ini> <system.ini>
//                  [--json <path>] [--emit-corpus <dir>]
//                  [--inject missing-option|cost-negative|validator-split]
//
// --inject plants one known violation per pass (a deleted enumerated option, a negative
// launch-time range, a flipped lint verdict); CI runs all three modes and requires a
// non-zero exit, proving each pass can actually fail.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/analysis/space_checker.h"
#include "src/ddl/job_config.h"

namespace {

using namespace espresso;

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <model.ini> <gc.ini> <system.ini>\n"
               "         [--json <path>] [--emit-corpus <dir>]\n"
               "         [--inject missing-option|cost-negative|validator-split]\n";
  return 2;
}

void WriteStats(std::ostream& os, const SpaceCheckStats& stats) {
  os << "{\"options\": " << stats.options
     << ", \"device_choices\": " << stats.device_choices
     << ", \"mutants_total\": " << stats.mutants_total
     << ", \"mutants_rejected\": " << stats.mutants_rejected
     << ", \"mutants_reenumerated\": " << stats.mutants_reenumerated
     << ", \"fingerprints_audited\": " << stats.fingerprints_audited
     << ", \"fingerprint_collisions\": " << stats.fingerprint_collisions
     << ", \"interval_checks\": " << stats.interval_checks
     << ", \"monotonicity_checks\": " << stats.monotonicity_checks
     << ", \"differential_valid\": " << stats.differential_valid
     << ", \"differential_corrupted\": " << stats.differential_corrupted
     << ", \"differential_tampered\": " << stats.differential_tampered
     << ", \"corpus_files_written\": " << stats.corpus_files_written << "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string json_path;
  std::string inject;
  SpaceCheckOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (++i >= argc) return Usage(argv[0]);
      json_path = argv[i];
    } else if (arg == "--emit-corpus") {
      if (++i >= argc) return Usage(argv[0]);
      options.emit_corpus_dir = argv[i];
    } else if (arg == "--inject") {
      if (++i >= argc) return Usage(argv[0]);
      inject = argv[i];
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
  if (inject == "missing-option") {
    options.inject = SpaceCheckInject::kMissingOption;
  } else if (inject == "cost-negative") {
    options.inject = SpaceCheckInject::kCostNegative;
  } else if (inject == "validator-split") {
    options.inject = SpaceCheckInject::kValidatorSplit;
  } else if (!inject.empty()) {
    std::cerr << "unknown --inject mode: " << inject << "\n";
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

  const SpaceCheckResult result = CheckStrategySpace(
      job.model, job.cluster, *compressor, job.compressor, job.max_compress_ops, options);

  std::cout << "espresso_check: " << result.stats.options << " options ("
            << result.stats.device_choices << " with device choices), "
            << result.stats.mutants_total << " mutants ("
            << result.stats.mutants_rejected << " rejected, "
            << result.stats.mutants_reenumerated << " re-enumerated), "
            << result.stats.fingerprints_audited << " fingerprints, "
            << result.stats.interval_checks << " interval checks, "
            << result.stats.monotonicity_checks << " F(S) property checks, "
            << result.stats.differential_valid + result.stats.differential_corrupted +
                   result.stats.differential_tampered
            << " differential documents\n";
  result.report.PrintTable(std::cout);
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    json << "{\"stats\": ";
    WriteStats(json, result.stats);
    json << ", \"report\": ";
    result.report.WriteJson(json);
    json << "}\n";
  }
  return result.ok() ? 0 : 1;
}
