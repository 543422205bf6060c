// Determinism contract of the accelerated selector: for every combination of cluster,
// compressor, and selector mode, the parallel and/or memoized selector must choose a
// strategy bit-identical to the serial, uncached one (ISSUE 3 acceptance criterion).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "src/core/espresso.h"
#include "src/core/eval_cache.h"
#include "src/models/model_zoo.h"
#include "src/obs/metrics.h"

namespace espresso {
namespace {

std::unique_ptr<Compressor> Make(const std::string& algo) {
  return CreateCompressor(CompressorConfig{.algorithm = algo, .ratio = 0.01});
}

struct Mode {
  const char* name;
  bool force_cpu;
  bool force_compress_all;
  bool myopic;
};

constexpr Mode kModes[] = {
    {"default", false, false, false},
    {"force_cpu", true, false, false},
    {"force_compress_all", false, true, false},
    {"myopic", false, false, true},
};

SelectionResult RunOnce(const ModelProfile& model, const ClusterSpec& cluster,
                        const Compressor& compressor, const Mode& mode, size_t threads,
                        size_t cache_capacity) {
  SelectorOptions options;
  options.force_cpu = mode.force_cpu;
  options.force_compress_all = mode.force_compress_all;
  options.myopic = mode.myopic;
  options.threads = threads;
  options.cache_capacity = cache_capacity;
  EspressoSelector selector(model, cluster, compressor, options);
  return selector.Select();
}

// The full matrix from the issue: {Nvlink, Pcie} x {dgc, efsignsgd} x the four selector
// modes, each run serial/uncached, serial/cached, parallel/uncached, parallel/cached.
// Every accelerated configuration must reproduce the serial strategy exactly.
TEST(EspressoParallel, DeterminismMatrix) {
  const ModelProfile model = Vgg16();
  const struct {
    const char* name;
    ClusterSpec cluster;
  } clusters[] = {{"nvlink", NvlinkCluster()}, {"pcie", PcieCluster()}};
  for (const auto& [cluster_name, cluster] : clusters) {
    for (const char* algo : {"dgc", "efsignsgd"}) {
      const auto compressor = Make(algo);
      for (const Mode& mode : kModes) {
        SCOPED_TRACE(std::string(cluster_name) + "/" + algo + "/" + mode.name);
        const SelectionResult serial =
            RunOnce(model, cluster, *compressor, mode, /*threads=*/0,
                    /*cache_capacity=*/0);
        const uint64_t want = StrategyFingerprint(serial.strategy);
        const struct {
          size_t threads;
          size_t cache;
        } accelerated[] = {{0, 1 << 16}, {4, 0}, {4, 1 << 16}};
        for (const auto& [threads, cache] : accelerated) {
          const SelectionResult got =
              RunOnce(model, cluster, *compressor, mode, threads, cache);
          EXPECT_EQ(StrategyFingerprint(got.strategy), want)
              << "threads=" << threads << " cache=" << cache;
          EXPECT_DOUBLE_EQ(got.iteration_time, serial.iteration_time)
              << "threads=" << threads << " cache=" << cache;
          ASSERT_EQ(got.strategy.size(), serial.strategy.size());
          for (size_t i = 0; i < serial.strategy.size(); ++i) {
            EXPECT_EQ(got.strategy.options[i], serial.strategy.options[i])
                << "tensor " << i;
          }
        }
      }
    }
  }
}

// One large-model spot check: GPT-2 with every acceleration knob on matches serial.
TEST(EspressoParallel, Gpt2AcceleratedMatchesSerial) {
  const ModelProfile model = Gpt2();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Make("dgc");
  const SelectionResult serial = RunOnce(model, cluster, *compressor, kModes[0], 0, 0);
  const SelectionResult accel =
      RunOnce(model, cluster, *compressor, kModes[0], 4, SelectorOptions{}.cache_capacity);
  EXPECT_EQ(StrategyFingerprint(accel.strategy), StrategyFingerprint(serial.strategy));
  EXPECT_DOUBLE_EQ(accel.iteration_time, serial.iteration_time);
  // Logical evaluation counts are identical (the cache changes simulations, never
  // queries); the cached run simulates strictly fewer timelines.
  EXPECT_EQ(accel.telemetry.evaluations, serial.telemetry.evaluations);
  EXPECT_LT(accel.telemetry.simulations, serial.telemetry.simulations);
  EXPECT_GT(accel.telemetry.cache_hits, 0u);
  // A cold selection has batches of misses to spread over the pool; the serial one
  // never touches a pool.
  EXPECT_GT(accel.telemetry.fanouts, 0u);
  EXPECT_EQ(serial.telemetry.fanouts, 0u);
}

// Re-selecting on the same selector reuses the warm cache and still reproduces the
// cold result exactly — this is the steady-state re-decision path bench_selector
// reports as warm_speedup. Every F(S) query and every bubble set is then a cache hit,
// so the warm pass simulates nothing and never hands work to the pool.
TEST(EspressoParallel, WarmReselectionIsStable) {
  const ModelProfile model = Vgg16();
  const ClusterSpec cluster = PcieCluster();
  const auto compressor = Make("efsignsgd");
  for (const size_t threads : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SelectorOptions options;
    options.threads = threads;
    EspressoSelector selector(model, cluster, *compressor, options);
    const SelectionResult cold = selector.Select();
    const SelectionResult warm = selector.Select();
    EXPECT_EQ(StrategyFingerprint(warm.strategy), StrategyFingerprint(cold.strategy));
    EXPECT_DOUBLE_EQ(warm.iteration_time, cold.iteration_time);
    EXPECT_GT(cold.telemetry.simulations, 0u);
    EXPECT_EQ(warm.telemetry.simulations, 0u);
    EXPECT_EQ(warm.telemetry.cache_misses, 0u);
    EXPECT_EQ(warm.telemetry.fanouts, 0u);
    ASSERT_NE(selector.cache(), nullptr);
    EXPECT_GT(selector.cache()->stats().hits, 0u);
  }
}

// The saved-work identities hold on a warm re-selection too: every query is a hit or a
// miss, and every miss is one simulation. The bubble-set queries of Property 1 take
// part — they are looked up in the same cache and counted as evaluations.
TEST(EspressoParallel, WarmTelemetryCountsEveryQueryOnce) {
  const ModelProfile model = Gpt2();
  const ClusterSpec cluster = PcieCluster();
  const auto compressor = Make("efsignsgd");
  SelectorOptions options;
  options.threads = 2;
  EspressoSelector selector(model, cluster, *compressor, options);
  const SelectionResult cold = selector.Select();
  const SelectionResult warm = selector.Select();
  for (const SelectionResult* result : {&cold, &warm}) {
    const SelectorTelemetry& t = result->telemetry;
    EXPECT_EQ(t.evaluations - t.simulations, t.cache_hits);
    EXPECT_EQ(t.cache_hits + t.cache_misses, t.evaluations);
    EXPECT_EQ(t.cache_misses, t.simulations);
  }
  EXPECT_EQ(warm.telemetry.evaluations, cold.telemetry.evaluations);
  EXPECT_EQ(warm.telemetry.cache_hits, warm.telemetry.evaluations);
}

// The registry mirrors the per-call fan-out count, so a scrape shows how often
// selections paid for a pool round trip.
TEST(EspressoParallel, FanoutsAreMirroredInTheRegistry) {
  const auto fanouts_total = [] {
    return SelectorTelemetry::FromMetricsSnapshot(obs::GlobalMetrics().Scrape()).fanouts;
  };
  const uint64_t before = fanouts_total();
  const auto compressor = Make("dgc");
  SelectorOptions options;
  options.threads = 2;
  EspressoSelector selector(Vgg16(), NvlinkCluster(), *compressor, options);
  const SelectionResult result = selector.Select();
  EXPECT_GT(result.telemetry.fanouts, 0u);
  EXPECT_EQ(fanouts_total() - before, result.telemetry.fanouts);
}

// The process's OS thread count from /proc/self/status, or -1 when unreadable.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

// Every selector scores on the one process pool: a second cold selection that fans
// out, while the first selector is still alive, starts no thread of its own.
TEST(EspressoParallel, SelectorsShareTheProcessPool) {
  const auto compressor = Make("dgc");
  SelectorOptions options;
  options.threads = 4;
  EspressoSelector first(Vgg16(), NvlinkCluster(), *compressor, options);
  ASSERT_GT(first.Select().telemetry.fanouts, 0u);
  const int before = ProcessThreads();
  if (before < 0) {
    GTEST_SKIP() << "/proc/self/status is unreadable";
  }
  EspressoSelector second(Vgg16(), PcieCluster(), *compressor, options);
  EXPECT_GT(second.Select().telemetry.fanouts, 0u);
  EXPECT_EQ(ProcessThreads(), before);
}

// Telemetry invariants: stage walls partition the total, the atomic evaluation counter
// matches the result's evaluation count, and simulations never exceed evaluations.
TEST(EspressoParallel, TelemetryIsConsistent) {
  const ModelProfile model = Vgg16();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = Make("dgc");
  for (const size_t cache : {size_t{0}, SelectorOptions{}.cache_capacity}) {
    SelectorOptions options;
    options.cache_capacity = cache;
    EspressoSelector selector(model, cluster, *compressor, options);
    const SelectionResult result = selector.Select();
    const SelectorTelemetry& t = result.telemetry;
    EXPECT_GT(t.evaluations, 0u);
    EXPECT_EQ(t.evaluations, result.timeline_evaluations);
    EXPECT_LE(t.simulations, t.evaluations);
    EXPECT_GE(t.total_seconds, 0.0);
    const double stages = t.algorithm1_seconds + t.refine_seconds +
                          t.trajectory_seconds + t.offload_seconds;
    EXPECT_LE(stages, t.total_seconds + 1e-6);
    if (cache == 0) {
      EXPECT_EQ(t.cache_hits, 0u);
      EXPECT_EQ(t.cache_misses, 0u);
      // Uncached, non-myopic: every logical query simulates a timeline.
      EXPECT_EQ(t.simulations, t.evaluations);
    } else {
      // Cache hits are exactly the simulations saved. Every query — F(S) or a
      // Property-1 bubble set — is looked up once, so hits + misses account for every
      // evaluation.
      EXPECT_EQ(t.evaluations - t.simulations, t.cache_hits);
      EXPECT_EQ(t.cache_hits + t.cache_misses, t.evaluations);
      EXPECT_GT(t.cache_hits, 0u);
    }
  }
}

}  // namespace
}  // namespace espresso
