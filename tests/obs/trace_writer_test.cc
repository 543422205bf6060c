#include "src/obs/trace_writer.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/obs/validate.h"

namespace espresso::obs {
namespace {

ModelProfile TwoTensorModel() {
  ModelProfile model;
  model.name = "toy";
  model.tensors.push_back({"t0", 1000, 1e-3});
  model.tensors.push_back({"t1", 2000, 2e-3});
  return model;
}

ClusterSpec ToyCluster() {
  ClusterSpec cluster;
  cluster.machines = 2;
  cluster.gpus_per_machine = 2;
  cluster.intra = LinkSpec{"intra", 1e-6, 100.0e9};
  cluster.inter = LinkSpec{"inter", 10e-6, 10.0e9};
  return cluster;
}

// A compress -> send -> decompress chain for tensor 0 plus a lone compute slice for
// tensor 1 (chains of one op get no flow arrows).
std::vector<TimelineEntry> ChainEntries() {
  return {
      {0, "compress", "gpu", 0.0, 1e-3},
      {0, "allgather", "inter", 1e-3, 3e-3},
      {0, "decompress", "gpu", 3e-3, 4e-3},
      {1, "compute", "gpu", 0.0, 5e-4},
      {0, "compress", "cpu", 5e-3, 6e-3},
      {1, "allreduce", "intra", 1e-3, 2e-3},
  };
}

std::string Render(const TraceCollector* wall = nullptr) {
  std::ostringstream os;
  WriteExtendedChromeTrace(os, TwoTensorModel(), ToyCluster(), ChainEntries(), {}, wall);
  return os.str();
}

TEST(ExtendedTrace, OutputIsValidJson) {
  const std::string text = Render();
  const ValidationResult valid = ValidateJsonDocument(text);
  EXPECT_TRUE(valid.ok) << valid.error;
  EXPECT_GT(valid.samples, 0u);
}

TEST(ExtendedTrace, EmitsFlowEventsAlongTensorChains) {
  const std::string text = Render();
  // Tensor 0 has a 4-op chain: one start, two steps, one finish, all flow id 1.
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"flow\""), std::string::npos);
}

TEST(ExtendedTrace, EmitsCounterTracks) {
  const std::string text = Render();
  EXPECT_NE(text.find("\"name\":\"cpu_pool_occupancy\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"intra_link_bandwidth_bytes_per_s\""),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"inter_link_bandwidth_bytes_per_s\""),
            std::string::npos);
  // The inter track rises to the link's full bandwidth (1e10 B/s, shortest-form
  // double) while the send is in flight.
  EXPECT_NE(text.find("\"value\":1e+10"), std::string::npos);
}

TEST(ExtendedTrace, NamesTensorsInSliceArgs) {
  const std::string text = Render();
  EXPECT_NE(text.find("\"tensor\":\"t0\""), std::string::npos);
  EXPECT_NE(text.find("\"tensor\":\"t1\""), std::string::npos);
}

TEST(ExtendedTrace, SimulatedPartIsDeterministic) {
  EXPECT_EQ(Render(), Render());
}

TEST(ExtendedTrace, AppendsWallSpansAsSecondProcess) {
  TraceCollector wall;
  wall.set_enabled(true);
  wall.Record({"selector.select", "selector", 0, 0.0, 0.5});
  const std::string text = Render(&wall);
  EXPECT_NE(text.find("\"name\":\"wall clock\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"selector.select\""), std::string::npos);
  EXPECT_NE(text.find("\"pid\":1"), std::string::npos);
  const ValidationResult valid = ValidateJsonDocument(text);
  EXPECT_TRUE(valid.ok) << valid.error;
}

TEST(SpanTrace, WallOnlyOutputValidates) {
  TraceCollector wall;
  wall.set_enabled(true);
  wall.Record({"bench.arm", "bench", 3, 0.0, 1.0});
  std::ostringstream os;
  WriteSpanTrace(os, wall);
  const ValidationResult valid = ValidateJsonDocument(os.str());
  EXPECT_TRUE(valid.ok) << valid.error;
  EXPECT_NE(os.str().find("\"tid\":103"), std::string::npos);  // wall tid base + 3
}

}  // namespace
}  // namespace espresso::obs
