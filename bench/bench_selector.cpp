// Selector hot-path benchmark: times EspressoSelector::Select() in two arms per
// (model, GC, system) combo —
//   serial:      threads = 0, memoization off (the pre-acceleration configuration);
//   accelerated: threads = N (default: hardware concurrency), memoized F(S) cache on —
// asserts the two arms select byte-identical strategies (64-bit fingerprint equality),
// and emits a JSON report suitable for committing as BENCH_selector.json.
//
// Usage:
//   bench_selector [--quick] [--threads N] [--configs DIR] [--out FILE] [--check FILE]
//                  [--metrics-out FILE]... [--trace-out FILE]...
//
// --quick       one repetition per arm instead of three (CI perf-smoke mode)
// --threads N   worker threads for the accelerated arm
// --configs DIR directory holding the shipped .ini files (default: configs)
// --out FILE    write the JSON report to FILE instead of stdout
// --check FILE  compare this run against a committed report; exit 1 when a strategy
//               fingerprint or either arm's evaluation or simulation count differs
//               (the counts are the same for every thread count, so they pin the
//               search's work and accounting exactly — the committed timings are
//               informational and are not compared), or when a warm re-selection
//               simulates any timeline (every query should hit); exits 1 before
//               selecting anything when FILE cannot be read or parsed, or lacks a combo
// --metrics-out write the run's metrics registry (Prometheus text; JSON for .json)
// --trace-out   write the run's wall-clock spans as a chrome trace
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_host.h"
#include "src/core/espresso.h"
#include "src/core/eval_cache.h"
#include "src/ddl/job_config.h"
#include "src/obs/cli.h"
#include "src/obs/span.h"
#include "src/obs/trace_writer.h"
#include "src/util/json_writer.h"
#include "src/util/parse_number.h"
#include "src/util/thread_pool.h"

namespace {

using namespace espresso;

struct Combo {
  std::string name;
  std::string model;
  std::string gc;
  std::string system;
};

const Combo kCombos[] = {
    {"custom-dgc-nvlink", "model_custom.ini", "gc_dgc.ini", "system_nvlink.ini"},
    {"custom-efsignsgd-pcie", "model_custom.ini", "gc_efsignsgd_limited.ini",
     "system_pcie.ini"},
    {"gpt2-dgc-nvlink", "model_gpt2.ini", "gc_dgc.ini", "system_nvlink.ini"},
    {"gpt2-efsignsgd-pcie", "model_gpt2.ini", "gc_efsignsgd_limited.ini",
     "system_pcie.ini"},
};

struct ArmResult {
  double seconds = 0.0;  // min over repetitions
  double warm_seconds = 0.0;  // re-selection on the same selector (warm cache); 0 = n/a
  SelectorTelemetry telemetry;
  SelectorTelemetry warm_telemetry;
  uint64_t fingerprint = 0;
  double iteration_time = 0.0;
};

std::string HexFingerprint(uint64_t fp) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, fp);
  return buf;
}

ArmResult RunArm(const JobConfig& job, const Compressor& compressor, size_t threads,
                 size_t cache_capacity, int repetitions) {
  ArmResult arm;
  arm.seconds = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    SelectorOptions options;
    options.threads = threads;
    options.cache_capacity = cache_capacity;
    EspressoSelector selector(job.model, job.cluster, compressor, options);
    const SelectionResult result = selector.Select();  // cold: fresh selector + cache
    const uint64_t fp = StrategyFingerprint(result.strategy);
    if (rep > 0 && fp != arm.fingerprint) {
      std::cerr << "FATAL: selector nondeterministic across repetitions\n";
      std::exit(1);
    }
    arm.fingerprint = fp;
    arm.iteration_time = result.iteration_time;
    if (result.telemetry.total_seconds < arm.seconds) {
      arm.seconds = result.telemetry.total_seconds;
      arm.telemetry = result.telemetry;
    }
    // Warm re-selection: the steady-state cost of re-deciding with unchanged inputs
    // (e.g. after a periodic profiler refresh) — every F(S) query hits the memo.
    if (cache_capacity > 0 && rep + 1 == repetitions) {
      arm.warm_seconds = 1e300;
      for (int warm = 0; warm < repetitions; ++warm) {
        const SelectionResult rewarm = selector.Select();
        if (StrategyFingerprint(rewarm.strategy) != fp) {
          std::cerr << "FATAL: warm re-selection diverged from cold selection\n";
          std::exit(1);
        }
        if (rewarm.telemetry.total_seconds < arm.warm_seconds) {
          arm.warm_seconds = rewarm.telemetry.total_seconds;
          arm.warm_telemetry = rewarm.telemetry;
        }
      }
    }
  }
  return arm;
}

void WriteArm(JsonWriter& json, const char* key, const ArmResult& arm) {
  json.Key(key);
  json.BeginObject();
  json.Field("seconds", arm.seconds);
  json.Field("evaluations", arm.telemetry.evaluations);
  json.Field("simulations", arm.telemetry.simulations);
  json.Field("threads", static_cast<uint64_t>(arm.telemetry.threads));
  json.Field("cache_hits", arm.telemetry.cache_hits);
  json.Field("cache_misses", arm.telemetry.cache_misses);
  json.Field("cache_hit_rate", arm.telemetry.CacheHitRate());
  json.Field("fanouts", arm.telemetry.fanouts);
  if (arm.warm_seconds > 0.0) {
    json.Field("warm_seconds", arm.warm_seconds);
    json.Field("warm_evaluations", arm.warm_telemetry.evaluations);
    json.Field("warm_simulations", arm.warm_telemetry.simulations);
    json.Field("warm_cache_hit_rate", arm.warm_telemetry.CacheHitRate());
    json.Field("warm_fanouts", arm.warm_telemetry.fanouts);
  }
  json.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  size_t threads = espresso::UsableCpus();
  std::string configs_dir = "configs";
  std::string out_path;
  std::string check_path;
  espresso::obs::ObsCliOptions obs_options;
  for (int i = 1; i < argc; ++i) {
    std::string obs_error;
    const auto obs_parse =
        espresso::obs::ObsCliOptions::ParseArg(argc, argv, &i, &obs_options, &obs_error);
    if (obs_parse == espresso::obs::ObsCliOptions::Parse::kConsumed) {
      continue;
    }
    if (obs_parse == espresso::obs::ObsCliOptions::Parse::kError) {
      std::cerr << obs_error << "\n";
      return 2;
    }
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--threads") {
      const std::string value = next();
      uint64_t parsed = 0;
      const NumberParse status = ParseUint64(value, &parsed);
      if (status != NumberParse::kOk) {
        std::cerr << "--threads " << value << " " << NumberParseMessage(status) << "\n";
        return 2;
      }
      threads = static_cast<size_t>(parsed);
    } else if (arg == "--configs") {
      configs_dir = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  const int repetitions = quick ? 1 : 3;
  obs_options.ApplyTraceEnable();

  JsonValue baseline;
  if (!check_path.empty()) {
    std::string error;
    if (!LoadBaseline(check_path, &baseline, &error)) {
      std::cerr << error << "\n";
      return 1;
    }
    for (const Combo& combo : kCombos) {
      if (BaselineEntry(baseline, "combos", combo.name) == nullptr) {
        std::cerr << "baseline " << check_path << " has no combo " << combo.name << "\n";
        return 1;
      }
    }
  }

  std::ostringstream report;
  JsonWriter json(report);
  json.BeginObject();
  json.Field("benchmark", "bench_selector");
  json.Field("quick", quick);
  json.Field("repetitions", static_cast<int64_t>(repetitions));
  WriteHostBlock(json);
  json.Key("combos");
  json.BeginArray();

  bool check_failed = false;
  for (const Combo& combo : kCombos) {
    const JobConfigResult loaded = LoadJobConfigFromFiles(
        configs_dir + "/" + combo.model, configs_dir + "/" + combo.gc,
        configs_dir + "/" + combo.system);
    if (!loaded.ok) {
      std::cerr << combo.name << ": " << loaded.error << "\n";
      return 1;
    }
    const JobConfig& job = loaded.job;
    const auto compressor = job.MakeCompressor();

    const ArmResult serial = RunArm(job, *compressor, 0, 0, repetitions);
    const ArmResult accel =
        RunArm(job, *compressor, threads, SelectorOptions{}.cache_capacity, repetitions);
    if (serial.fingerprint != accel.fingerprint) {
      std::cerr << "FATAL: " << combo.name
                << ": accelerated arm diverged from serial (serial "
                << HexFingerprint(serial.fingerprint) << ", accelerated "
                << HexFingerprint(accel.fingerprint) << ")\n";
      return 1;
    }
    const double speedup = accel.seconds > 0 ? serial.seconds / accel.seconds : 0.0;
    const double warm_speedup =
        accel.warm_seconds > 0 ? serial.seconds / accel.warm_seconds : 0.0;
    const std::string fingerprint = HexFingerprint(serial.fingerprint);

    json.BeginObject();
    json.Field("name", combo.name);
    json.Field("model", combo.model);
    json.Field("gc", combo.gc);
    json.Field("system", combo.system);
    json.Field("tensors", static_cast<uint64_t>(job.model.tensors.size()));
    json.Field("strategy_fingerprint", fingerprint);
    json.Field("iteration_time_ms", serial.iteration_time * 1e3);
    WriteArm(json, "serial", serial);
    WriteArm(json, "accelerated", accel);
    json.Field("speedup", speedup);
    json.Field("warm_speedup", warm_speedup);
    json.EndObject();

    std::fprintf(stderr,
                 "%-24s serial %8.2fms  accelerated %8.2fms (%.2fx)  warm %7.2fms "
                 "(%.1fx)  hit-rate %5.1f%%  %s\n",
                 combo.name.c_str(), serial.seconds * 1e3, accel.seconds * 1e3, speedup,
                 accel.warm_seconds * 1e3, warm_speedup,
                 accel.telemetry.CacheHitRate() * 100.0, fingerprint.c_str());

    if (!check_path.empty()) {
      const JsonValue& committed_combo = *BaselineEntry(baseline, "combos", combo.name);
      const std::string expected = BaselineText(committed_combo, "strategy_fingerprint");
      if (expected != fingerprint) {
        std::fprintf(stderr, "FAIL: %s fingerprint %s != committed %s\n",
                     combo.name.c_str(), fingerprint.c_str(), expected.c_str());
        check_failed = true;
      }
      for (const auto& [arm_name, arm] :
           {std::pair<std::string, const ArmResult*>{"serial", &serial},
            {"accelerated", &accel}}) {
        const JsonValue* committed_arm = committed_combo.Find(arm_name);
        for (const auto& [field, actual] :
             {std::pair<std::string, uint64_t>{"evaluations", arm->telemetry.evaluations},
              {"simulations", arm->telemetry.simulations}}) {
          const JsonValue* count =
              committed_arm != nullptr ? committed_arm->Find(field) : nullptr;
          uint64_t committed = 0;
          if (count == nullptr || !count->AsUint64(&committed) || committed != actual) {
            std::fprintf(stderr, "FAIL: %s %s %s %" PRIu64 " != committed %" PRIu64 "\n",
                         combo.name.c_str(), arm_name.c_str(), field.c_str(), actual,
                         committed);
            check_failed = true;
          }
        }
      }
      if (accel.warm_telemetry.simulations > 0) {
        std::fprintf(stderr, "FAIL: %s warm re-selection simulated %" PRIu64
                     " timelines, want 0\n",
                     combo.name.c_str(), accel.warm_telemetry.simulations);
        check_failed = true;
      }
    }
  }

  json.EndArray();
  json.EndObject();
  report << "\n";

  if (out_path.empty()) {
    std::cout << report.str();
  } else {
    std::ofstream out(out_path);
    out << report.str();
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
  }
  if (!obs_options.WriteMetricsFiles(espresso::obs::GlobalMetrics(), std::cerr)) {
    return 1;
  }
  for (const std::string& path : obs_options.trace_out) {
    std::ofstream trace_out(path);
    if (!trace_out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    espresso::obs::WriteSpanTrace(trace_out, espresso::obs::GlobalTrace());
  }
  if (check_failed) {
    std::cerr << "selector diverged from the committed baseline (strategy or work) or "
                 "missed its warm cache\n";
    return 1;
  }
  return 0;
}
