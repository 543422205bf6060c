#include <gtest/gtest.h>

#include <sstream>

#include "src/core/baselines.h"
#include "src/core/timeline.h"
#include "src/models/model_zoo.h"
#include "src/obs/trace_writer.h"
#include "src/obs/validate.h"

namespace espresso {
namespace {

TEST(ChromeTrace, EmitsValidLookingJson) {
  const ModelProfile model = Lstm();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = CreateCompressor(CompressorConfig{.algorithm = "dgc"});
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const TimelineResult result =
      evaluator.Evaluate(HiPressStrategy(model, cluster, *compressor), true);

  std::ostringstream os;
  obs::WriteExtendedChromeTrace(os, model, cluster, result.entries);
  const std::string json = os.str();
  const obs::ValidationResult valid = obs::ValidateJsonDocument(json);
  EXPECT_TRUE(valid.ok) << valid.error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("embedding.weight"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
}

TEST(ChromeTrace, EventCountMatchesEntries) {
  const ModelProfile model = Lstm();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = CreateCompressor(CompressorConfig{.algorithm = "dgc"});
  TimelineEvaluator evaluator(model, cluster, *compressor);
  const TimelineResult result =
      evaluator.Evaluate(Fp32Strategy(model, cluster), true);
  std::ostringstream os;
  obs::WriteExtendedChromeTrace(os, model, cluster, result.entries);
  const std::string json = os.str();
  size_t events = 0;
  for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, result.entries.size());
}

}  // namespace
}  // namespace espresso
