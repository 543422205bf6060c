// Cluster trace exporter: runs one simulated training iteration under a chosen scheme
// and writes the timeline as a chrome://tracing / Perfetto JSON file, with one track per
// resource (gpu / cpu / intra / inter), flow arrows along each tensor's pipeline, and
// link/CPU occupancy counter tracks. Open the file at https://ui.perfetto.dev.
//
// Usage: cluster_trace [model] [algorithm] [testbed] [scheme] [output.json]
//   scheme: fp32 | hipress | hitopkcomm | bytepscompress | espresso
#include <fstream>
#include <iostream>
#include <string>

#include "src/core/baselines.h"
#include "src/core/espresso.h"
#include "src/models/model_zoo.h"
#include "src/obs/trace_writer.h"

int main(int argc, char** argv) {
  using namespace espresso;
  const std::string model_name = argc > 1 ? argv[1] : "gpt2";
  const std::string algorithm = argc > 2 ? argv[2] : "dgc";
  const std::string testbed = argc > 3 ? argv[3] : "nvlink";
  const std::string scheme = argc > 4 ? argv[4] : "espresso";
  const std::string output = argc > 5 ? argv[5] : model_name + "_" + scheme + "_trace.json";

  const ModelProfile model = GetModel(model_name);
  const ClusterSpec cluster = testbed == "pcie" ? PcieCluster() : NvlinkCluster();
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = algorithm, .ratio = 0.01});

  Strategy strategy;
  if (scheme == "fp32") {
    strategy = Fp32Strategy(model, cluster);
  } else if (scheme == "hipress") {
    strategy = HiPressStrategy(model, cluster, *compressor);
  } else if (scheme == "hitopkcomm") {
    strategy = HiTopKCommStrategy(model, cluster, *compressor);
  } else if (scheme == "bytepscompress") {
    strategy = BytePSCompressStrategy(model, cluster, *compressor);
  } else if (scheme == "espresso") {
    EspressoSelector selector(model, cluster, *compressor);
    strategy = selector.Select().strategy;
  } else {
    std::cerr << "unknown scheme: " << scheme << "\n";
    return 1;
  }

  TimelineEvaluator evaluator(model, cluster, *compressor);
  const TimelineResult result = evaluator.Evaluate(strategy, /*record_entries=*/true);

  std::ofstream file(output);
  if (!file) {
    std::cerr << "cannot write " << output << "\n";
    return 1;
  }
  obs::WriteExtendedChromeTrace(file, model, cluster, result.entries);
  std::cout << "Simulated one iteration of " << model.name << " + " << algorithm << " ("
            << scheme << ") on " << testbed << ": iteration "
            << result.iteration_time * 1e3 << " ms, " << result.entries.size()
            << " timeline events.\n";
  std::cout << "Trace written to " << output << " — open it at https://ui.perfetto.dev\n";
  return 0;
}
