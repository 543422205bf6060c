// The runtime half of the fail-closed deployment pipeline: atomic hot-swap (readers
// see a complete old or complete new strategy, never a mix), reject-keeps-last-known-
// good, operator and watchdog rollback, audit log + metrics, and behaviour under
// concurrent stepping (exercised with TSan in CI).
#include "src/ddl/strategy_deployment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/baselines.h"
#include "src/core/espresso.h"
#include "src/core/eval_cache.h"
#include "src/models/model_zoo.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

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

  StrategyDeployment MakeDeployment(DeploymentConfig config = {}) const {
    return StrategyDeployment(model, cluster, *compressor, gc, std::move(config));
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
  EXPECT_FALSE(result.forced_digest);
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

TEST(StrategyDeployment, ForceDigestDeploysButMarksTheEvent) {
  const DeployFixture fixture;
  DeploymentConfig config;
  config.force_digest = true;
  StrategyDeployment deployment = fixture.MakeDeployment(config);
  deployment.Bootstrap(Fp32Strategy(fixture.model, fixture.cluster), "selector", 0.5);

  StrategyIR stale = fixture.CompileSelected();
  stale.cluster_digest ^= 1;
  const uint64_t forced_before = CounterValue("espresso_deploy_forced_total");
  const DeployResult result = deployment.Deploy(stale);
  EXPECT_TRUE(result.accepted) << result.reason;
  EXPECT_TRUE(result.forced_digest);
  EXPECT_EQ(CounterValue("espresso_deploy_forced_total"), forced_before + 1);
  EXPECT_EQ(deployment.events().back().event, "forced-deploy");
}

TEST(StrategyDeployment, OperatorRollbackRestoresPreviousStrategy) {
  const DeployFixture fixture;
  StrategyDeployment deployment = fixture.MakeDeployment();
  EXPECT_FALSE(deployment.Rollback("nothing yet"));

  const Strategy fp32 = Fp32Strategy(fixture.model, fixture.cluster);
  deployment.Bootstrap(fp32, "selector", 0.5);
  EXPECT_FALSE(deployment.Rollback("no swap yet"));

  ASSERT_TRUE(deployment.Deploy(fixture.CompileSelected()).accepted);
  ASSERT_TRUE(deployment.Rollback("operator said so"));
  const auto live = deployment.Acquire();
  EXPECT_EQ(live->fingerprint, StrategyFingerprint(fp32));
  EXPECT_EQ(live->version, 3u);  // versions are monotonic, content is the old one
  EXPECT_EQ(deployment.events().back().event, "rollback");
  EXPECT_EQ(deployment.events().back().detail, "operator said so");
  // Rolling back twice in a row has nothing left to restore.
  EXPECT_FALSE(deployment.Rollback("again"));
}

TEST(StrategyDeployment, RegressionWatchdogRollsBackAutomatically) {
  const DeployFixture fixture;
  DeploymentConfig config;
  config.regression_threshold = 2.0;
  config.baseline_window = 4;
  StrategyDeployment deployment = fixture.MakeDeployment(config);
  deployment.Bootstrap(Fp32Strategy(fixture.model, fixture.cluster), "selector", 0.5);

  // Build a healthy baseline of ~100ms steps.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(deployment.ReportStepTime(0.100));
  }
  ASSERT_TRUE(deployment.Deploy(fixture.CompileSelected()).accepted);
  const uint64_t rollbacks_before = CounterValue("espresso_deploy_rollbacks_total");

  // First post-swap step regresses 5x past the baseline: automatic rollback.
  EXPECT_TRUE(deployment.ReportStepTime(0.500));
  EXPECT_EQ(CounterValue("espresso_deploy_rollbacks_total"), rollbacks_before + 1);
  const auto live = deployment.Acquire();
  EXPECT_EQ(live->fingerprint,
            StrategyFingerprint(Fp32Strategy(fixture.model, fixture.cluster)));
  EXPECT_EQ(deployment.events().back().event, "rollback");

  // A healthy first post-swap step keeps the deployment.
  ASSERT_TRUE(deployment.Deploy(fixture.CompileSelected()).accepted);
  EXPECT_FALSE(deployment.ReportStepTime(0.110));
  EXPECT_EQ(deployment.Acquire()->origin, "test");
}

TEST(StrategyDeployment, WatchdogDisabledByNonPositiveThreshold) {
  const DeployFixture fixture;
  DeploymentConfig config;
  config.regression_threshold = 0.0;
  StrategyDeployment deployment = fixture.MakeDeployment(config);
  deployment.Bootstrap(Fp32Strategy(fixture.model, fixture.cluster), "selector", 0.5);
  for (int i = 0; i < 4; ++i) deployment.ReportStepTime(0.1);
  ASSERT_TRUE(deployment.Deploy(fixture.CompileSelected()).accepted);
  EXPECT_FALSE(deployment.ReportStepTime(100.0));
  EXPECT_EQ(deployment.Acquire()->origin, "test");
}

TEST(StrategyDeployment, AuditLogPersistsToJsonlFile) {
  const DeployFixture fixture;
  const std::string path = ::testing::TempDir() + "/deploy_audit.jsonl";
  std::remove(path.c_str());
  DeploymentConfig config;
  config.audit_log_path = path;
  {
    StrategyDeployment deployment = fixture.MakeDeployment(config);
    deployment.Bootstrap(Fp32Strategy(fixture.model, fixture.cluster), "selector", 0.5);
    StrategyIR stale = fixture.CompileSelected();
    stale.model_digest ^= 1;
    deployment.Deploy(stale);
    deployment.Deploy(fixture.CompileSelected());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"event\":\"bootstrap\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"event\":\"reject\""), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("\"event\":\"deploy\""), std::string::npos) << lines[2];
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"seq\":" + std::to_string(i)), std::string::npos)
        << lines[i];
  }
  std::remove(path.c_str());
}

TEST(StrategyDeployment, ExecuteUsesOneSnapshotPerStep) {
  const DeployFixture fixture;
  StrategyDeployment deployment = fixture.MakeDeployment();

  ExecutorConfig exec;
  exec.machines = fixture.cluster.machines;
  exec.gpus_per_machine = fixture.cluster.gpus_per_machine;
  exec.compressor = fixture.compressor.get();
  std::vector<RankBuffers> gradients(fixture.model.tensors.size(),
                                     RankBuffers(exec.ranks(), std::vector<float>(64)));
  for (size_t t = 0; t < gradients.size(); ++t) {
    for (size_t r = 0; r < gradients[t].size(); ++r) {
      Rng rng(DeriveSeed(1234 + t, r));
      rng.FillNormal(gradients[t][r], 0.0, 1.0);
    }
  }
  const std::vector<RankBuffers> untouched = gradients;

  // Nothing deployed: no snapshot, gradients untouched.
  EXPECT_EQ(ExecuteDeployedStrategy(deployment, exec, gradients), nullptr);
  EXPECT_EQ(gradients, untouched);

  deployment.Bootstrap(Fp32Strategy(fixture.model, fixture.cluster), "selector", 0.5);
  const auto used = ExecuteDeployedStrategy(deployment, exec, gradients);
  ASSERT_NE(used, nullptr);
  EXPECT_EQ(used->version, 1u);
  // FP32 allreduce across equal-sized buffers: every rank ends identical.
  for (size_t t = 0; t < gradients.size(); ++t) {
    for (size_t r = 1; r < gradients[t].size(); ++r) {
      EXPECT_EQ(gradients[t][r], gradients[t][0]) << "tensor " << t;
    }
  }
}

TEST(StrategyDeployment, TraceInstantsRenderTheHistory) {
  const DeployFixture fixture;
  StrategyDeployment deployment = fixture.MakeDeployment();
  deployment.Bootstrap(Fp32Strategy(fixture.model, fixture.cluster), "selector", 0.5);
  deployment.Deploy(fixture.CompileSelected(10));
  deployment.Rollback("test");

  const std::vector<obs::TraceInstant> instants =
      DeployTraceInstants(deployment.events(), 0.5);
  ASSERT_EQ(instants.size(), 3u);
  EXPECT_EQ(instants[0].name, "deploy_bootstrap");
  EXPECT_EQ(instants[1].name, "deploy_deploy");
  EXPECT_DOUBLE_EQ(instants[1].time_s, 5.0);  // iteration 10 x 0.5s
  EXPECT_EQ(instants[2].name, "deploy_rollback");
  EXPECT_NE(instants[2].detail.find("test"), std::string::npos);
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

// Rollback under load: readers step through Acquire() continuously while a deploy
// lands and the regression watchdog rolls it straight back. Every snapshot observed
// on the way — old, new, and restored — must be complete and self-consistent.
TEST(StrategyDeployment, RollbackUnderConcurrentStepping) {
  const DeployFixture fixture;
  DeploymentConfig config;
  config.regression_threshold = 2.0;
  StrategyDeployment deployment = fixture.MakeDeployment(config);
  const Strategy fp32 = Fp32Strategy(fixture.model, fixture.cluster);
  deployment.Bootstrap(fp32, "selector", 0.5);
  for (int i = 0; i < 4; ++i) deployment.ReportStepTime(0.1);

  std::atomic<bool> stop{false};
  std::atomic<int> inconsistent{0};
  std::vector<std::thread> steppers;
  for (int r = 0; r < 3; ++r) {
    steppers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = deployment.Acquire();
        if (snapshot == nullptr) continue;
        if (StrategyFingerprint(snapshot->strategy) != snapshot->fingerprint) {
          inconsistent.fetch_add(1);
        }
      }
    });
  }
  ASSERT_TRUE(deployment.Deploy(fixture.CompileSelected()).accepted);
  // The chaos channel: the new deployment's first measured step is 5x the baseline,
  // so the watchdog reverts it while the steppers are mid-flight.
  EXPECT_TRUE(deployment.ReportStepTime(0.5));
  stop.store(true);
  for (std::thread& t : steppers) t.join();
  EXPECT_EQ(inconsistent.load(), 0);
  const auto live = deployment.Acquire();
  EXPECT_EQ(live->origin, "selector");
  EXPECT_EQ(live->fingerprint, StrategyFingerprint(fp32));
  EXPECT_EQ(deployment.events().back().event, "rollback");
}

}  // namespace
}  // namespace espresso
