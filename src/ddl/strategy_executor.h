// Runtime execution of a compression strategy (§4.1: after selection, Espresso
// "applies the compression strategy to the DDL framework to execute the compression
// option for each tensor at run-time whenever their gradients are ready").
//
// This module is that runtime, at functional fidelity: each tensor's gradient — one
// buffer per global rank — flows through its CompressionOption's op pipeline with real
// compression (error feedback included) and real collective data movement over the
// in-process ranks. Hierarchical options run their intra phases on per-machine rank
// groups and the inter phase on the cross-machine groups that own each shard, exactly
// as Figure 1 describes. The paper's indivisible and divisible compressed schemes
// (Table 2, Figures 3-4) are the flat options flat[comp+agc+dec] and
// flat[comp+a2ac|dec+comp+agc+dec] (flat[comp+a2ac|skip+agc+dec] when the compressor
// aggregates in the compressed domain); the data-parallel trainer (src/nn) runs them
// here, so this is the program's one dataplane. The executor is the semantic ground
// truth the timeline engine prices: tests verify that every candidate option
// aggregates correctly (exactly with a near-lossless compressor, approximately
// otherwise).
//
// An optional PayloadChannel models an imperfect network (src/fault). Only the payloads
// compressed at an option's first compression site — the ones error feedback covers —
// cross it; a part a rank keeps for itself stays local. A dropped payload is excluded
// from every receiver and folded back into its sender's residual (a compressed set
// whose payloads were all dropped decodes to zeros); a corrupted one is aggregated as
// delivered. Re-compressions at later stages are treated as local.
#ifndef SRC_DDL_STRATEGY_EXECUTOR_H_
#define SRC_DDL_STRATEGY_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/collectives/channel.h"
#include "src/collectives/rank_group.h"
#include "src/compress/compressor.h"
#include "src/compress/error_feedback.h"
#include "src/core/strategy.h"

namespace espresso {

struct ExecutorConfig {
  size_t machines = 2;
  size_t gpus_per_machine = 2;
  const Compressor* compressor = nullptr;          // required for compressed options
  std::vector<ErrorFeedback>* feedback = nullptr;  // one per global rank, optional
  uint64_t seed = 0;
  PayloadChannel* channel = nullptr;  // nullptr = perfect network

  size_t ranks() const { return machines * gpus_per_machine; }
};

// The channel's verdicts on one execution's payloads (zero without a channel).
struct ChannelTally {
  size_t payloads_dropped = 0;
  size_t payloads_corrupted = 0;  // delivered mutated, and aggregated as they arrived
};

// Persistent scratch for the option interpreter: per-rank states (compressed payload
// sets, recycled via capacity-keeping containers), group index lists, payload
// gather/shuffle staging, and one float scratch buffer (group sums, uncompressed
// allgather merges, broadcast staging). The ranks' raw ranges are not stored here: each
// execution swaps the caller's buffers in and hands the same allocations back, so the
// workspace keeps no per-rank tensor copy. One workspace serves every tensor of a
// strategy and every step of a run — after the first execution at a given topology and
// tensor shape, the executor performs no heap allocations. A workspace is
// single-threaded; executions with different shapes/topologies may share one
// (containers grow to the high-water mark).
class ExecutorWorkspace {
 public:
  ExecutorWorkspace();
  ~ExecutorWorkspace();
  ExecutorWorkspace(const ExecutorWorkspace&) = delete;
  ExecutorWorkspace& operator=(const ExecutorWorkspace&) = delete;

  // The calling thread's shared workspace (what the nullptr default resolves to).
  static ExecutorWorkspace& ThreadDefault();

  struct Impl;  // defined in strategy_executor.cc
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

// Executes `option` for one tensor. `buffers` holds each global rank's local gradient
// (machine-major order: rank = machine * gpus_per_machine + local); on return every
// rank holds the aggregated tensor, in the same allocation it passed in (the executor
// runs in the caller's buffers). `tensor_id` keys the error-feedback residual and names
// the tensor to the channel. `workspace` supplies all scratch; nullptr resolves to the
// calling thread's default. Returns what the channel did to the payloads.
ChannelTally ExecuteOption(const CompressionOption& option, const ExecutorConfig& config,
                           uint64_t tensor_id, RankBuffers& buffers,
                           ExecutorWorkspace* workspace = nullptr);

// Executes a whole strategy: `gradients[t]` is tensor t's per-rank buffers. The one
// workspace is reused across all tensors.
void ExecuteStrategy(const Strategy& strategy, const ExecutorConfig& config,
                     std::vector<RankBuffers>& gradients,
                     ExecutorWorkspace* workspace = nullptr);

}  // namespace espresso

#endif  // SRC_DDL_STRATEGY_EXECUTOR_H_
