// Executor dataplane benchmark: steady-state step time and heap-allocation counts for
// the workspace-reusing execution path, in two arms per scenario —
//   cold: a fresh ExecutorWorkspace per step (every container re-grown from nothing);
//   warm: ONE workspace reused across steps (the trainer/strategy configuration) —
// asserts the two arms produce bit-identical aggregates (64-bit fingerprint equality),
// asserts the warm arm performs ZERO heap allocations per measured step, and emits a
// JSON report suitable for committing as BENCH_executor.json.
//
// Usage:
//   bench_executor [--quick] [--out FILE] [--check FILE]
//
// --quick   fewer measured steps (CI perf-smoke mode)
// --out     write the JSON report to FILE instead of stdout
// --check   compare this run's result fingerprints against a committed report; exit 1
//           on any divergence (the committed timings are informational only), and
//           before running anything when the report cannot be read or parsed, or
//           lacks a scenario or kernel entry
//
// The global allocating operators are replaced with counting forwarders, which is why
// this lives in its own binary: the zero-allocation claim is measured, not inferred.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<unsigned long long> g_allocations{0};

unsigned long long AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_host.h"
#include "src/compress/kernels/kernels.h"
#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/ddl/strategy_executor.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"

namespace {

using namespace espresso;

struct Scenario {
  std::string name;
  CompressorConfig compressor;
  bool aggregation_tree = false;  // EnumerateOptions({2,2,true}) instead of candidates
  size_t elements = 4096;
};

const Scenario kScenarios[] = {
    {"fp16-candidates", {.algorithm = "fp16"}, false, 4096},
    {"topk-candidates", {.algorithm = "topk", .ratio = 0.05}, false, 4096},
    {"qsgd-candidates", {.algorithm = "qsgd", .bits = 4}, false, 4096},
    {"randomk-aggregation", {.algorithm = "randomk", .ratio = 0.05}, true, 4096},
};

std::vector<CompressionOption> ScenarioOptions(const Scenario& scenario) {
  if (scenario.aggregation_tree) {
    return EnumerateOptions(TreeConfig{2, 2, true}).options;
  }
  const ClusterSpec cluster = NvlinkCluster(2, 2);
  std::vector<CompressionOption> options = CandidateOptions(TreeConfig{2, 2, false});
  options.push_back(InterOnlyIndivisibleOption(cluster, Device::kGpu));
  options.push_back(InterOnlyDivisibleOption(cluster, Device::kGpu));
  options.push_back(AlltoallAlltoallOption(cluster, Device::kGpu));
  return options;
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string HexFingerprint(uint64_t fp) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, fp);
  return buf;
}

struct ArmResult {
  double step_seconds = 0.0;               // min measured step wall time
  unsigned long long allocations = 0;      // heap allocations across measured steps
  uint64_t fingerprint = 0x0CF1BBCDCB7A5AULL;  // FNV offset basis variant
};

// Runs `steps` measured steps (after `warmup` unmeasured ones). `shared` selects the
// warm arm: one workspace for every step; the cold arm constructs a workspace per
// step. Both arms execute the identical option/seed/gradient sequence and fold every
// rank's final bits into the fingerprint.
ArmResult RunArm(const Scenario& scenario, const std::vector<CompressionOption>& options,
                 bool shared, int warmup, int steps) {
  const size_t ranks = 4;
  RankBuffers initial(ranks, std::vector<float>(scenario.elements));
  for (size_t r = 0; r < ranks; ++r) {
    Rng rng(DeriveSeed(2024, r));
    rng.FillNormal(initial[r], 0.0, 1.0);
  }
  RankBuffers buffers = initial;
  const auto compressor = CreateCompressor(scenario.compressor);
  std::vector<ErrorFeedback> feedback(ranks);
  ExecutorWorkspace workspace;  // used by the warm arm only

  ArmResult arm;
  arm.step_seconds = 1e300;
  for (int step = 0; step < warmup + steps; ++step) {
    const bool measured = step >= warmup;
    const auto start = std::chrono::steady_clock::now();
    const unsigned long long allocs_before = AllocationCount();
    ExecutorWorkspace* ws = &workspace;
    std::optional<ExecutorWorkspace> cold;
    if (!shared) {
      cold.emplace();  // the cold arm pays construction + growth every step
      ws = &*cold;
    }
    for (size_t o = 0; o < options.size(); ++o) {
      ExecutorConfig config{.machines = 2, .gpus_per_machine = 2,
                            .compressor = compressor.get(), .feedback = &feedback,
                            .seed = static_cast<uint64_t>(step)};
      for (size_t r = 0; r < ranks; ++r) {
        buffers[r].assign(initial[r].begin(), initial[r].end());
      }
      ExecuteOption(options[o], config, /*tensor_id=*/o, buffers, ws);
      // Fold only the first 3 measured steps so --quick (3 steps) and the full run
      // (10 steps) produce the same fingerprint and --check works across modes.
      if (measured && step < warmup + 3) {
        for (size_t r = 0; r < ranks; ++r) {
          arm.fingerprint = Fnv1a(arm.fingerprint, buffers[r].data(),
                                  buffers[r].size() * sizeof(float));
        }
      }
    }
    const unsigned long long allocs = AllocationCount() - allocs_before;
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start).count();
    if (measured) {
      arm.allocations += allocs;
      arm.step_seconds = std::min(arm.step_seconds, seconds);
    }
  }
  return arm;
}

// --- Kernel throughput arms ----------------------------------------------------------
//
// Per-compressor elements/s over the five vectorized hot loops, two arms each:
//   scalar:  per-tensor Compress with the scalar reference table forced;
//   simd:    per-tensor Compress with the best host-supported table forced.
// Both arms see identical (data, seed) pairs, so their payloads must be
// byte-identical; the run aborts with exit 1 if the arms' payload fingerprints
// diverge. The fingerprint is computed on the scalar arm, which makes it
// host-independent and safe to --check against a baseline from any ISA.

struct KernelScenario {
  std::string name;
  CompressorConfig compressor;
};

const KernelScenario kKernelScenarios[] = {
    {"kernel-topk", {.algorithm = "topk", .ratio = 0.05}},
    {"kernel-qsgd", {.algorithm = "qsgd", .bits = 4}},
    {"kernel-terngrad", {.algorithm = "terngrad"}},
    {"kernel-efsignsgd", {.algorithm = "efsignsgd"}},
    {"kernel-fp16", {.algorithm = "fp16"}},
};

// The kernel workload: many small tensors, compressed one by one.
constexpr size_t kKernelTensors = 64;
constexpr size_t kKernelElements = 4096;

uint64_t FoldPayload(uint64_t fp, const CompressedTensor& p) {
  fp = Fnv1a(fp, &p.original_elements, sizeof(p.original_elements));
  fp = Fnv1a(fp, p.indices.data(), p.indices.size() * sizeof(uint32_t));
  fp = Fnv1a(fp, p.values.data(), p.values.size() * sizeof(float));
  fp = Fnv1a(fp, p.scales.data(), p.scales.size() * sizeof(float));
  fp = Fnv1a(fp, p.bytes.data(), p.bytes.size());
  return fp;
}

struct KernelArmResult {
  double elements_per_second = 0.0;  // total elements / min pass wall time
  uint64_t fingerprint = 0;          // all payloads, in tensor order
};

uint64_t FingerprintPayloads(const std::vector<CompressedTensor>& payloads) {
  uint64_t fp = 0x0CF1BBCDCB7A5AULL;
  for (const CompressedTensor& p : payloads) {
    fp = FoldPayload(fp, p);
  }
  return fp;
}

// Per-tensor Compress arm with `table` forced (nullptr = automatic best choice).
KernelArmResult RunKernelPerTensorArm(const Compressor& compressor,
                                      const kernels::KernelOps* table,
                                      const std::vector<std::vector<float>>& tensors,
                                      std::vector<CompressedTensor>& payloads,
                                      int passes) {
  kernels::SetActiveForTesting(table);
  double best = 1e300;
  size_t total = 0;
  for (const auto& t : tensors) {
    total += t.size();
  }
  for (int pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t t = 0; t < tensors.size(); ++t) {
      compressor.Compress(tensors[t], DeriveSeed(2024, t), &payloads[t]);
    }
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start).count());
  }
  kernels::SetActiveForTesting(nullptr);
  KernelArmResult arm;
  arm.elements_per_second = best > 0 ? static_cast<double>(total) / best : 0.0;
  arm.fingerprint = FingerprintPayloads(payloads);
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
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
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  // Capacities circulate between workspace containers (StableVec::Swap exchanges whole
  // backing stores between the gather/alltoall staging vectors and per-rank payload
  // sets), so a buffer reaches its orbit's peak capacity only after visiting every
  // growth site: steady state arrives after 3 full option cycles, measured 4 for margin.
  const int warmup = 4;
  const int steps = quick ? 3 : 10;

  JsonValue baseline;
  if (!check_path.empty()) {
    std::string error;
    if (!LoadBaseline(check_path, &baseline, &error)) {
      std::cerr << error << "\n";
      return 1;
    }
    std::vector<std::pair<const char*, std::string>> entries;
    for (const Scenario& scenario : kScenarios) {
      entries.emplace_back("scenarios", scenario.name);
    }
    for (const KernelScenario& scenario : kKernelScenarios) {
      entries.emplace_back("kernels", scenario.name);
    }
    for (const auto& [list, name] : entries) {
      if (BaselineEntry(baseline, list, name) == nullptr) {
        std::cerr << "baseline " << check_path << " has no " << list << " entry " << name
                  << "\n";
        return 1;
      }
    }
  }
  // True when this run's fingerprint for `list` entry `name` equals the committed one.
  auto matches_baseline = [&](const char* list, const std::string& name,
                              const std::string& fingerprint) {
    const std::string expected =
        BaselineText(*BaselineEntry(baseline, list, name), "result_fingerprint");
    if (expected == fingerprint) {
      return true;
    }
    std::fprintf(stderr, "FAIL: %s fingerprint %s != committed %s\n", name.c_str(),
                 fingerprint.c_str(), expected.c_str());
    return false;
  };

  std::ostringstream report;
  JsonWriter json(report);
  json.BeginObject();
  json.Field("benchmark", "bench_executor");
  json.Field("quick", quick);
  json.Field("warmup_steps", static_cast<int64_t>(warmup));
  json.Field("measured_steps", static_cast<int64_t>(steps));
  WriteHostBlock(json);
  json.Key("scenarios");
  json.BeginArray();

  bool failed = false;
  bool check_failed = false;
  for (const Scenario& scenario : kScenarios) {
    const std::vector<CompressionOption> options = ScenarioOptions(scenario);
    const ArmResult cold = RunArm(scenario, options, /*shared=*/false, warmup, steps);
    const ArmResult warm = RunArm(scenario, options, /*shared=*/true, warmup, steps);

    if (cold.fingerprint != warm.fingerprint) {
      std::cerr << "FATAL: " << scenario.name
                << ": reused-workspace (warm) arm diverged from per-step (cold) arm (cold "
                << HexFingerprint(cold.fingerprint) << ", warm "
                << HexFingerprint(warm.fingerprint) << ")\n";
      failed = true;
    }
    if (warm.allocations != 0) {
      std::cerr << "FATAL: " << scenario.name << ": warm arm performed "
                << warm.allocations << " heap allocations in " << steps
                << " steady-state steps (expected 0)\n";
      failed = true;
    }
    const double speedup =
        warm.step_seconds > 0 ? cold.step_seconds / warm.step_seconds : 0.0;
    const std::string fingerprint = HexFingerprint(warm.fingerprint);

    json.BeginObject();
    json.Field("name", scenario.name);
    json.Field("compressor", scenario.compressor.algorithm);
    json.Field("options", static_cast<uint64_t>(options.size()));
    json.Field("elements", static_cast<uint64_t>(scenario.elements));
    json.Field("result_fingerprint", fingerprint);
    json.Field("cold_step_seconds", cold.step_seconds);
    json.Field("warm_step_seconds", warm.step_seconds);
    json.Field("speedup", speedup);
    json.Field("cold_allocations_per_step",
               static_cast<uint64_t>(cold.allocations / static_cast<unsigned>(steps)));
    json.Field("warm_steady_state_allocations", static_cast<uint64_t>(warm.allocations));
    json.EndObject();

    std::fprintf(stderr,
                 "%-22s cold %8.3fms (%6llu allocs/step)  warm %8.3fms (%llu allocs, "
                 "%.2fx)  %s\n",
                 scenario.name.c_str(), cold.step_seconds * 1e3,
                 cold.allocations / static_cast<unsigned long long>(steps),
                 warm.step_seconds * 1e3, warm.allocations, speedup,
                 fingerprint.c_str());

    if (!check_path.empty() && !matches_baseline("scenarios", scenario.name, fingerprint)) {
      check_failed = true;
    }
  }

  json.EndArray();

  // Kernel throughput arms: scalar vs best-ISA, payload-identical.
  const int kernel_passes = quick ? 5 : 30;
  const kernels::KernelOps* best = kernels::SupportedOps().back();
  json.Key("kernels");
  json.BeginArray();
  for (const KernelScenario& scenario : kKernelScenarios) {
    std::vector<std::vector<float>> tensors(kKernelTensors,
                                            std::vector<float>(kKernelElements));
    for (size_t t = 0; t < kKernelTensors; ++t) {
      Rng rng(DeriveSeed(77, t));
      rng.FillNormal(tensors[t], 0.0, 1.0);
    }
    std::vector<CompressedTensor> payloads(kKernelTensors);
    const auto compressor = CreateCompressor(scenario.compressor);

    const KernelArmResult scalar = RunKernelPerTensorArm(
        *compressor, &kernels::Scalar(), tensors, payloads, kernel_passes);
    const KernelArmResult simd =
        RunKernelPerTensorArm(*compressor, best, tensors, payloads, kernel_passes);

    if (simd.fingerprint != scalar.fingerprint) {
      std::cerr << "FATAL: " << scenario.name << ": payload divergence (scalar "
                << HexFingerprint(scalar.fingerprint) << ", " << best->isa << " "
                << HexFingerprint(simd.fingerprint) << ")\n";
      failed = true;
    }
    const double simd_speedup = scalar.elements_per_second > 0
                                    ? simd.elements_per_second / scalar.elements_per_second
                                    : 0.0;
    const std::string fingerprint = HexFingerprint(scalar.fingerprint);

    json.BeginObject();
    json.Field("name", scenario.name);
    json.Field("compressor", scenario.compressor.algorithm);
    json.Field("tensors", static_cast<uint64_t>(kKernelTensors));
    json.Field("elements_per_tensor", static_cast<uint64_t>(kKernelElements));
    json.Field("result_fingerprint", fingerprint);
    json.Field("scalar_elements_per_second", scalar.elements_per_second);
    json.Field("simd_isa", best->isa);
    json.Field("simd_elements_per_second", simd.elements_per_second);
    json.Field("simd_speedup", simd_speedup);
    json.EndObject();

    std::fprintf(stderr, "%-22s scalar %8.1fMe/s  %-6s %8.1fMe/s (%.2fx)  %s\n",
                 scenario.name.c_str(), scalar.elements_per_second * 1e-6, best->isa,
                 simd.elements_per_second * 1e-6, simd_speedup, fingerprint.c_str());

    if (!check_path.empty() && !matches_baseline("kernels", scenario.name, fingerprint)) {
      check_failed = true;
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
  if (check_failed) {
    std::cerr << "executor diverged from the committed baseline\n";
    return 1;
  }
  return failed ? 1 : 0;
}
