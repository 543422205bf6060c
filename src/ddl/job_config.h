// Espresso's three input files (§4.1, Figure 6): the model information (tensor sizes
// and backward-computation times), the GC information (algorithm + parameters), and the
// training-system information (machines, GPUs, networks). This module turns those files
// into the runtime objects the selector consumes.
//
// Model file:
//   [model]
//   name = gpt2                  # load a zoo profile; everything else optional
//   # -- or describe a custom model --
//   forward_ms = 40
//   optimizer_ms = 5
//   batch_size = 80
//   unit = tokens/s
//   [tensors]                    # backward-completion order
//   ln_f.weight = 768, 0.01      # elements, backward time in ms
//   mlp.proj.weight = 2359296, 2.0
//
// GC file:
//   [compression]
//   algorithm = dgc              # randomk | dgc/topk | efsignsgd | qsgd | terngrad | fp16
//   ratio = 0.01
//   bits = 4
//   max_compress_ops = 2         # optional user pruning constraint (§4.2.2)
//
// System file:
//   [cluster]
//   machines = 8
//   gpus_per_machine = 8
//   testbed = nvlink             # nvlink | pcie preset, then optional overrides:
//   inter_gbps = 100
//   inter_latency_us = 15
//   intra_gbps = 960
//   intra_latency_us = 4
//   cpu_workers_per_gpu = 3
#ifndef SRC_DDL_JOB_CONFIG_H_
#define SRC_DDL_JOB_CONFIG_H_

#include <memory>
#include <string>

#include "src/compress/compressor.h"
#include "src/costmodel/calibration.h"
#include "src/models/model_profile.h"
#include "src/util/config.h"

namespace espresso {

struct JobConfig {
  ModelProfile model;
  CompressorConfig compressor;
  ClusterSpec cluster;
  size_t max_compress_ops = 0;  // 0 = unlimited

  std::unique_ptr<Compressor> MakeCompressor() const { return CreateCompressor(compressor); }
};

struct JobConfigResult {
  bool ok = false;
  std::string error;
  JobConfig job;
};

// Parses the three configuration objects; `error` names the offending file/field. A
// key that is present with a value that does not parse is an error, never a default.
JobConfigResult LoadJobConfig(const ConfigFile& model_file, const ConfigFile& gc_file,
                              const ConfigFile& system_file);

// Convenience: loads the three files from disk.
JobConfigResult LoadJobConfigFromFiles(const std::string& model_path,
                                       const std::string& gc_path,
                                       const std::string& system_path);

}  // namespace espresso

#endif  // SRC_DDL_JOB_CONFIG_H_
