// Data-parallel trainer wiring the MLP to the *real* compression pipeline: per-worker
// gradients flow through error feedback, the compressor, and a functional communication
// scheme (Figures 3-4) before the update. Each scheme is a flat option of the
// one-machine decision tree over the workers, run by the strategy executor
// (src/ddl/strategy_executor.h) — the same code that runs a selected strategy — with one
// persistent ExecutorWorkspace for the whole run. Because synchronous data-parallel
// replicas stay identical, one model instance plus per-worker gradient computation is
// an exact simulation of K workers. The workers' backward passes run one after another
// on the calling thread, in worker order, so every run is deterministic. This is the
// engine behind the Figure-16 convergence bench.
#ifndef SRC_NN_PARALLEL_TRAINER_H_
#define SRC_NN_PARALLEL_TRAINER_H_

#include <cstdint>
#include <vector>

#include "src/collectives/channel.h"
#include "src/compress/compressor.h"
#include "src/core/option.h"
#include "src/nn/dataset.h"
#include "src/nn/mlp.h"

namespace espresso {

enum class SyncScheme {
  kExactAllreduce,          // FP32 baseline: flat[ar]
  kCompressedIndivisible,   // Figure 3: flat[comp+agc+dec]
  // Figure 4 (alltoall | allgather): flat[comp+a2ac|dec+comp+agc+dec], or
  // flat[comp+a2ac|skip+agc+dec] when the compressor aggregates compressed payloads.
  kCompressedDivisible,
};

struct TrainConfig {
  size_t workers = 8;
  size_t hidden_dim = 64;
  size_t batch_per_worker = 32;
  double learning_rate = 0.1;
  size_t epochs = 10;
  SyncScheme scheme = SyncScheme::kExactAllreduce;
  const Compressor* compressor = nullptr;  // required for compressed schemes
  // Optional imperfect transport for compressed payloads (fault injection), passed to
  // the executor as ExecutorConfig::channel; the trainer announces each global step via
  // BeginIteration so schedules stay deterministic. nullptr = perfect network.
  PayloadChannel* channel = nullptr;
  bool error_feedback = true;
  // DGC momentum correction factor for the error-feedback store (0 = plain EF).
  double momentum_correction = 0.0;
  uint64_t seed = 1;
};

struct EpochStats {
  size_t epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  // Fault accounting for the epoch (zero on a perfect channel).
  size_t payloads_dropped = 0;
  size_t payloads_corrupted = 0;
  // Wall-clock decomposition of the epoch's steps: gradient computation (the
  // workers' backward passes) vs gradient synchronization (compress + collective +
  // update). Also published to the metrics registry as espresso_trainer_*.
  double compute_seconds = 0.0;
  double sync_seconds = 0.0;
};

std::vector<EpochStats> TrainDataParallel(const Dataset& train, const Dataset& test,
                                          const TrainConfig& config);

// The option TrainDataParallel runs for `scheme`: the flat path of the one-machine
// decision tree over `workers` ranks named beside each SyncScheme. `compressor` (null
// for the exact scheme) decides whether the divisible scheme skips its middle stage.
CompressionOption SyncOption(SyncScheme scheme, size_t workers, const Compressor* compressor);

}  // namespace espresso

#endif  // SRC_NN_PARALLEL_TRAINER_H_
