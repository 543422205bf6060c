#include "src/ddl/job_config.h"

#include <gtest/gtest.h>

#include <string>

namespace espresso {
namespace {

#ifndef ESPRESSO_CONFIG_DIR
#error "ESPRESSO_CONFIG_DIR must point at the repository's configs/ directory"
#endif

ConfigFile ModelZooFile() { return ConfigFile::ParseString("[model]\nname = gpt2\n"); }
ConfigFile GcFile() {
  return ConfigFile::ParseString("[compression]\nalgorithm = dgc\nratio = 0.01\n");
}
ConfigFile SystemFile() {
  return ConfigFile::ParseString("[cluster]\ntestbed = nvlink\nmachines = 4\n");
}

TEST(JobConfig, LoadsZooModel) {
  const JobConfigResult r = LoadJobConfig(ModelZooFile(), GcFile(), SystemFile());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.job.model.name, "gpt2");
  EXPECT_EQ(r.job.model.TensorCount(), 148u);
  EXPECT_EQ(r.job.compressor.algorithm, "dgc");
  EXPECT_EQ(r.job.cluster.machines, 4u);
  EXPECT_EQ(r.job.cluster.gpus_per_machine, 8u);  // preset default preserved
  EXPECT_NE(r.job.MakeCompressor(), nullptr);
}

TEST(JobConfig, LoadsCustomModelInBackwardOrder) {
  const ConfigFile model = ConfigFile::ParseString(R"(
[model]
label = tiny
forward_ms = 10
optimizer_ms = 1
batch_size = 4
unit = samples/s
[tensors]
out.weight = 1000, 0.5
in.weight = 2000, 1.5
)");
  const JobConfigResult r = LoadJobConfig(model, GcFile(), SystemFile());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.job.model.name, "tiny");
  ASSERT_EQ(r.job.model.TensorCount(), 2u);
  EXPECT_EQ(r.job.model.tensors[0].name, "out.weight");
  EXPECT_EQ(r.job.model.tensors[1].elements, 2000u);
  EXPECT_DOUBLE_EQ(r.job.model.tensors[1].backward_time_s, 1.5e-3);
  EXPECT_DOUBLE_EQ(r.job.model.forward_time_s, 10e-3);
  EXPECT_EQ(r.job.model.batch_size, 4u);
}

TEST(JobConfig, ClusterOverrides) {
  const ConfigFile system = ConfigFile::ParseString(R"(
[cluster]
testbed = pcie
machines = 2
gpus_per_machine = 4
inter_gbps = 40
inter_latency_us = 10
cpu_workers_per_gpu = 5
host_copy_contends_intra = false
)");
  const JobConfigResult r = LoadJobConfig(ModelZooFile(), GcFile(), system);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.job.cluster.machines, 2u);
  EXPECT_EQ(r.job.cluster.gpus_per_machine, 4u);
  EXPECT_DOUBLE_EQ(r.job.cluster.inter.bytes_per_second, 40e9 / 8.0);
  EXPECT_DOUBLE_EQ(r.job.cluster.inter.latency_s, 10e-6);
  EXPECT_EQ(r.job.cluster.cpu_workers_per_gpu, 5u);
  EXPECT_FALSE(r.job.cluster.host_copy_contends_intra);
}

TEST(JobConfig, MaxCompressOpsConstraint) {
  const ConfigFile gc = ConfigFile::ParseString(
      "[compression]\nalgorithm = efsignsgd\nmax_compress_ops = 1\n");
  const JobConfigResult r = LoadJobConfig(ModelZooFile(), gc, SystemFile());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.job.max_compress_ops, 1u);
}

TEST(JobConfig, RejectsBadInputs) {
  // Missing tensors and no zoo name.
  EXPECT_FALSE(LoadJobConfig(ConfigFile::ParseString("[model]\nbatch_size = 4\n"),
                             GcFile(), SystemFile())
                   .ok);
  // Malformed tensor entry.
  EXPECT_FALSE(LoadJobConfig(ConfigFile::ParseString("[tensors]\nw = 100\n"), GcFile(),
                             SystemFile())
                   .ok);
  // Ratio out of range.
  EXPECT_FALSE(LoadJobConfig(ModelZooFile(),
                             ConfigFile::ParseString("[compression]\nratio = 1.5\n"),
                             SystemFile())
                   .ok);
  // Unknown testbed.
  EXPECT_FALSE(LoadJobConfig(ModelZooFile(), GcFile(),
                             ConfigFile::ParseString("[cluster]\ntestbed = tpu\n"))
                   .ok);
  // Parse error propagates with a file tag.
  const JobConfigResult r =
      LoadJobConfig(ConfigFile::ParseString("broken"), GcFile(), SystemFile());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("model config"), std::string::npos);

  // Values that would otherwise abort a later stage (the model zoo, the compressor
  // factory, the simulator) or wrap around in a size_t cast, and present values that do
  // not parse, which must not load as if absent (with the default).
  for (const char* model :
       {"[model]\nname = gpt3\n", "[model]\nname = gpt2\nbatch_size = -1\n",
        "[model]\nname = gpt2\nforward_ms = nan\n",
        "[model]\nname = gpt2\noptimizer_ms = -5\n", "[tensors]\nw = 100, nan\n",
        "[tensors]\nw = 100, inf\n", "[model]\nname = gpt2\nforward_ms = fast\n",
        "[model]\nname = gpt2\nbatch_size = 3.5\n"}) {
    const JobConfigResult bad =
        LoadJobConfig(ConfigFile::ParseString(model), GcFile(), SystemFile());
    EXPECT_FALSE(bad.ok) << model;
    EXPECT_NE(bad.error.find("model config"), std::string::npos) << bad.error;
  }
  for (const char* gc : {"[compression]\nalgorithm = bogus\n",
                         "[compression]\nalgorithm = randomk\nratio = nan\n",
                         "[compression]\nalgorithm = threshold\nthreshold = -1\n",
                         "[compression]\nalgorithm = qsgd\nbits = 4294967297\n",
                         "[compression]\nalgorithm = dgc\nmax_compress_ops = -1\n",
                         "[compression]\nalgorithm = randomk\nratio = 0,05\n",
                         "[compression]\nalgorithm = qsgd\nbits = x\n",
                         "[compression]\nalgorithm = dgc\nmax_compress_ops = two\n",
                         "[compression]\nalgorithm = threshold\nthreshold = abc\n"}) {
    const JobConfigResult bad =
        LoadJobConfig(ModelZooFile(), ConfigFile::ParseString(gc), SystemFile());
    EXPECT_FALSE(bad.ok) << gc;
    EXPECT_NE(bad.error.find("gc config"), std::string::npos) << bad.error;
  }
  for (const char* cluster :
       {"machines = -1", "machines = 0", "gpus_per_machine = -2", "cpu_workers_per_gpu = 0",
        "cpu_workers_per_gpu = -1", "intra_gbps = -1", "inter_gbps = -10", "inter_gbps = 0",
        "intra_gbps = nan", "inter_gbps = inf", "inter_gbps = 1e308", "intra_latency_us = -5",
        "inter_latency_us = inf", "machines = four", "machines = 4.5",
        "cpu_workers_per_gpu = x", "inter_gbps = fast", "host_copy_contends_intra = maybe"}) {
    const JobConfigResult bad = LoadJobConfig(
        ModelZooFile(), GcFile(),
        ConfigFile::ParseString(std::string("[cluster]\ntestbed = nvlink\n") + cluster));
    EXPECT_FALSE(bad.ok) << cluster;
    EXPECT_NE(bad.error.find("system config"), std::string::npos) << bad.error;
  }
  // The bounds are inclusive where they should be.
  EXPECT_TRUE(LoadJobConfig(ModelZooFile(), GcFile(),
                            ConfigFile::ParseString("[cluster]\nmachines = 1\n"
                                                    "gpus_per_machine = 1\n"
                                                    "cpu_workers_per_gpu = 1\n"
                                                    "intra_latency_us = 0\n"))
                  .ok);
}

TEST(JobConfig, ShippedConfigFilesLoad) {
  // The sample files in configs/ must stay valid.
  const std::string dir = ESPRESSO_CONFIG_DIR;
  const JobConfigResult r = LoadJobConfigFromFiles(
      dir + "/model_gpt2.ini", dir + "/gc_dgc.ini", dir + "/system_nvlink.ini");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.job.model.name, "gpt2");
  EXPECT_EQ(r.job.cluster.intra.name, "nvlink");
}

}  // namespace
}  // namespace espresso
