// The runtime half of the fail-closed deployment pipeline: atomic hot-swap (readers
// see a complete old or complete new strategy, never a mix), reject-keeps-last-known-
// good, audit log + metrics, and behaviour under concurrent readers (exercised with
// TSan in CI).
#include "src/ddl/strategy_deployment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/core/baselines.h"
#include "src/core/espresso.h"
#include "src/core/eval_cache.h"
#include "src/models/model_zoo.h"
#include "src/obs/metrics.h"

namespace espresso {
namespace {

uint64_t CounterValue(const char* name) {
  const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().Scrape();
  const obs::MetricValue* metric = snapshot.Find(name);
  return metric == nullptr ? 0 : metric->count;
}

struct DeployFixture {
  ModelProfile model = Lstm();
  ClusterSpec cluster = NvlinkCluster(2, 2);
  CompressorConfig gc{.algorithm = "dgc", .ratio = 0.01};
  std::unique_ptr<Compressor> compressor = CreateCompressor(gc);

  StrategyIR CompileSelected(uint64_t iteration = 0) const {
    EspressoSelector selector(model, cluster, *compressor);
    const SelectionResult result = selector.Select();
    StrategyProvenance provenance;
    provenance.origin = "test";
    provenance.selector = "espresso";
    provenance.iteration = iteration;
    return CompileStrategyIR(result.strategy, result.iteration_time, model, cluster, gc,
                             provenance);
  }

  StrategyIR CompileBaseline(const Strategy& strategy) const {
    const TimelineEvaluator evaluator(model, cluster, *compressor);
    StrategyProvenance provenance;
    provenance.origin = "test-baseline";
    provenance.selector = "manual";
    return CompileStrategyIR(strategy, evaluator.IterationTime(strategy), model, cluster,
                             gc, provenance);
  }

  StrategyDeployment MakeDeployment() const {
    return StrategyDeployment(model, cluster, *compressor, gc);
  }
};

TEST(StrategyDeployment, BootstrapThenAcquire) {
  const DeployFixture fixture;
  StrategyDeployment deployment = fixture.MakeDeployment();
  EXPECT_EQ(deployment.Acquire(), nullptr);
  EXPECT_EQ(deployment.version(), 0u);

  const Strategy fp32 = Fp32Strategy(fixture.model, fixture.cluster);
  deployment.Bootstrap(fp32, "selector", 0.5);
  const auto live = deployment.Acquire();
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->version, 1u);
  EXPECT_EQ(live->origin, "selector");
  EXPECT_EQ(live->fingerprint, StrategyFingerprint(fp32));
  ASSERT_EQ(deployment.events().size(), 1u);
  EXPECT_EQ(deployment.events()[0].event, "bootstrap");
}

TEST(StrategyDeployment, DeployValidIrSwapsAtomically) {
  const DeployFixture fixture;
  StrategyDeployment deployment = fixture.MakeDeployment();
  deployment.Bootstrap(Fp32Strategy(fixture.model, fixture.cluster), "selector", 0.5);
  const auto before = deployment.Acquire();

  const uint64_t deployed_before = CounterValue("espresso_deploy_deployed_total");
  const DeployResult result = deployment.Deploy(fixture.CompileSelected(7));
  EXPECT_TRUE(result.accepted) << result.reason;
  EXPECT_EQ(result.version, 2u);
  EXPECT_EQ(CounterValue("espresso_deploy_deployed_total"), deployed_before + 1);

  // The old snapshot is still intact for in-flight steps; new acquires see v2.
  EXPECT_EQ(before->version, 1u);
  EXPECT_EQ(before->fingerprint,
            StrategyFingerprint(Fp32Strategy(fixture.model, fixture.cluster)));
  const auto after = deployment.Acquire();
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(after->origin, "test");
  EXPECT_EQ(deployment.events().back().event, "deploy");
  EXPECT_EQ(deployment.events().back().iteration, 7u);
}

TEST(StrategyDeployment, RejectKeepsLastKnownGood) {
  const DeployFixture fixture;
  StrategyDeployment deployment = fixture.MakeDeployment();
  deployment.Bootstrap(Fp32Strategy(fixture.model, fixture.cluster), "selector", 0.5);

  StrategyIR stale = fixture.CompileSelected();
  stale.model_digest ^= 1;
  const uint64_t rejected_before = CounterValue("espresso_deploy_rejected_total");
  const DeployResult result = deployment.Deploy(stale);
  EXPECT_FALSE(result.accepted);
  EXPECT_FALSE(result.reason.empty());
  EXPECT_NE(result.reason.find("ir.digest-mismatch"), std::string::npos)
      << result.reason;
  EXPECT_EQ(result.version, 1u);  // still the bootstrap
  EXPECT_EQ(CounterValue("espresso_deploy_rejected_total"), rejected_before + 1);

  const auto live = deployment.Acquire();
  EXPECT_EQ(live->version, 1u);
  EXPECT_EQ(live->origin, "selector");
  EXPECT_EQ(deployment.events().back().event, "reject");

  // The rejection is visible in the audit log.
  bool found = false;
  for (const std::string& line : deployment.audit_log().entries()) {
    if (line.find("\"reject\"") != std::string::npos &&
        line.find("ir.digest-mismatch") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- Concurrency (run under TSan in CI) ---

// Readers hammer Acquire() while a writer alternates between two valid strategies.
// Every snapshot must be internally consistent: its fingerprint matches its own
// strategy bytes — a torn swap (mixing tensors of both strategies) cannot pass.
TEST(StrategyDeployment, ConcurrentAcquireSeesOnlyCompleteStrategies) {
  const DeployFixture fixture;
  StrategyDeployment deployment = fixture.MakeDeployment();
  const Strategy fp32 = Fp32Strategy(fixture.model, fixture.cluster);
  deployment.Bootstrap(fp32, "selector", 0.5);
  const StrategyIR selected = fixture.CompileSelected();
  const StrategyIR baseline = fixture.CompileBaseline(
      HiPressStrategy(fixture.model, fixture.cluster, *fixture.compressor));
  const uint64_t selected_fp = StrategyFingerprint(selected.strategy);
  const uint64_t baseline_fp = StrategyFingerprint(baseline.strategy);
  const uint64_t fp32_fp = StrategyFingerprint(fp32);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = deployment.Acquire();
        if (snapshot == nullptr) continue;
        const uint64_t fp = StrategyFingerprint(snapshot->strategy);
        if (fp != snapshot->fingerprint ||
            (fp != selected_fp && fp != baseline_fp && fp != fp32_fp)) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(deployment.Deploy(i % 2 == 0 ? selected : baseline).accepted);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(deployment.version(), 21u);
}

}  // namespace
}  // namespace espresso
