// The timeline engine: derives the full computation/communication/compression timeline
// of one training iteration under a compression strategy, and from it the iteration
// time F(S) (§4.3 "Expressing interactions", §4.4.1).
//
// The engine exploits data-parallel symmetry (every GPU runs the same op sequence on
// equal shards) and simulates one representative GPU and machine over four contended
// resources:
//   gpu    — serial stream shared by backward-compute kernels and GPU (de)compression
//            kernels; sharing is what makes GPU compression "compete for GPU resources
//            with tensor computation" (§3.1, Figure 2(c));
//   cpu    — pool of CPU compression workers (off the GPU critical path);
//   intra  — the intra-machine fabric (NVLink or PCIe);
//   inter  — the machine's NIC.
// Tensor pipelines are chains: backward(i) -> op1 -> op2 -> ... with WFBP FIFO priority
// (tensors closer to the output layer enqueue first). Bubbles, overlaps, and the
// communication/compression *overheads* of §3 all emerge from this schedule.
#ifndef SRC_CORE_TIMELINE_H_
#define SRC_CORE_TIMELINE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/compress/compressor.h"
#include "src/core/strategy.h"
#include "src/costmodel/calibration.h"
#include "src/models/model_profile.h"
#include "src/sim/engine.h"

namespace espresso {

// One scheduled interval attributed to a tensor, for traces and bubble analysis.
struct TimelineEntry {
  size_t tensor = 0;
  std::string kind;     // "compute", "compress", "decompress", or a routine name
  std::string resource; // "gpu", "cpu", "intra", "inter"
  double start = 0.0;
  double end = 0.0;
};

struct TimelineResult {
  double makespan = 0.0;        // backward start -> last synchronization completes
  double iteration_time = 0.0;  // forward + makespan + optimizer
  std::vector<TimelineEntry> entries;  // only filled when record_entries is set
};

// Per-resource execution-speed multipliers applied to the simulated iteration. Factors
// below 1 slow the resource down (a straggler GPU, a CPU-contention spike, a congested
// fabric); 1 is the profiled baseline. The fault injector produces these per iteration.
struct ResourceScales {
  double gpu = 1.0;
  double cpu = 1.0;
  double intra = 1.0;
  double inter = 1.0;

  bool Neutral() const { return gpu == 1.0 && cpu == 1.0 && intra == 1.0 && inter == 1.0; }
  bool operator==(const ResourceScales&) const = default;
};

class TimelineEvaluator {
 public:
  // Reusable per-call scratch for the simulation: the engine (tasks, event heap,
  // resources) and the op-record buffers survive across evaluations, so the decision
  // algorithm's hot loop runs allocation-free after warm-up — a resume copy-assigns the
  // checkpoint's engine into the context's storage, which keeps its capacity. A context
  // belongs to one caller thread at a time; parallel scoring workers each own one.
  // Evaluation results are byte-identical with and without a context.
  class EvalContext;

  // The simulation of one base strategy stopped just before tensor i's backward
  // compute completes. Every event before that point is the same for any option at
  // tensors >= i: their ops all hang off compute(i), which compute(i+1) also waits for,
  // and they take the same task ids in a resumed build as in a one-shot one. So all
  // candidates for tensor i resume from one copy of this prefix. A checkpoint holds
  // the options it was built from and is only reused for a base whose options match
  // them exactly, under the same ResourceScales. One owner advances it; any number of
  // threads may resume from it concurrently while it is not being advanced.
  class Checkpoint;

  // `compressor` supplies payload sizing (CompressedBytes); it must outlive the
  // evaluator. `zero_compression_cost` prices all (de)compression at zero — the Upper
  // Bound configuration of §5.1.
  TimelineEvaluator(const ModelProfile& model, const ClusterSpec& cluster,
                    const Compressor& compressor, bool zero_compression_cost = false);

  // Iteration time F(S). The hot path of the decision algorithm. Thread-safe: the
  // evaluator keeps no mutable simulation state — each call works off its own (or the
  // supplied) EvalContext.
  double IterationTime(const Strategy& strategy) const;
  double IterationTime(const Strategy& strategy, EvalContext* ctx) const;

  // Moves `checkpoint` to tensor `index` of `base`. It advances in place when it
  // stands at or before `index` and base's options below its index are unchanged;
  // otherwise it is rebuilt. Counts no simulation. After warm-up neither path
  // allocates.
  void AdvanceCheckpoint(const Strategy& base, size_t index, Checkpoint* checkpoint) const;

  // F(S') where S' is `base` with options[checkpoint.index()] replaced by `candidate`,
  // resumed from `checkpoint`, which must have been advanced to that index of `base`.
  // Equal as a double to IterationTime(S'), and counts as one simulation. Neither the
  // caller's strategy nor the checkpoint is mutated or copied: the selector scores a
  // tensor's candidates concurrently against one shared base and checkpoint.
  double ResumeWithOption(const Checkpoint& checkpoint, const Strategy& base,
                          const CompressionOption& candidate, EvalContext* ctx) const;

  // F(S') where S' substitutes overrides[i] (when non-null) for options[i]. Used by
  // the CPU-offload odometer to evaluate many-tensor device moves without
  // materializing a strategy per visit. `overrides` must have strategy.size() entries.
  double ScoreWithOverrides(const Strategy& strategy,
                            const CompressionOption* const* overrides,
                            EvalContext* ctx = nullptr) const;

  // Number of timeline simulations actually run (cache hits in the selector skip the
  // simulation and do not count). Accurate under parallel scoring.
  uint64_t simulations() const { return simulations_.load(std::memory_order_relaxed); }

  // Installs fault-injected speed multipliers applied to every subsequent simulation
  // (compute on the gpu scale as well as pipeline ops). Scales must be positive.
  void SetResourceScales(const ResourceScales& scales);
  const ResourceScales& resource_scales() const { return resource_scales_; }

  // Full evaluation with per-op entries for traces/plots.
  TimelineResult Evaluate(const Strategy& strategy, bool record_entries) const;

  // Bubble analysis for Algorithm 1's Remove(): flags tensors whose communications all
  // complete before the last bubble (idle gap) of the links they use — compressing them
  // only widens the gap (§4.4.2 Property 1, Figure 9).
  std::vector<bool> BeforeBubble(const Strategy& strategy,
                                 EvalContext* ctx = nullptr) const;

  // Wall-clock duration of a single op on a tensor with `elements` floats. Exposed for
  // tests and for Figure 10 (benefit-ratio) style analyses.
  double OpDuration(const Op& op, size_t elements) const;

  const ModelProfile& model() const { return model_; }
  const ClusterSpec& cluster() const { return cluster_; }
  const Compressor& compressor() const { return compressor_; }

 private:
  // Allocation-light per-op record used on the decision algorithm's hot path; Evaluate
  // converts these to named TimelineEntry values on demand.
  struct RawEntry {
    size_t tensor;
    size_t op_index;  // index into the option's ops, or kComputeOp / kHostCopyOp
    ResourceId resource;
    double start;
    double end;
  };
  static constexpr size_t kComputeOp = SIZE_MAX - 1;
  static constexpr size_t kHostCopyOp = SIZE_MAX;

  // Scheduled-op bookkeeping kept only when records are requested (or under
  // ESPRESSO_VERIFY_SCHEDULES).
  struct OpTaskRec {
    size_t tensor;
    size_t op_index;  // kHostCopyOp marks a host copy
    ResourceId resource;
    TaskId task;
  };

  // The strategy being simulated, optionally with a per-index override table applied
  // (ScoreWithOverrides), so modified strategies are evaluated with zero copies. A
  // single substitution goes through a Checkpoint instead.
  struct OptionView {
    const Strategy* strategy = nullptr;
    const CompressionOption* const* table = nullptr;  // per-index override table

    const CompressionOption& at(size_t i) const {
      return table != nullptr && table[i] != nullptr ? *table[i] : strategy->options[i];
    }
  };

  // Builds and runs the schedule; fills per-op raw records when requested. Uses the
  // context's engine and buffers (a local context when ctx is null).
  double RunRaw(const OptionView& view, std::vector<RawEntry>* raw,
                EvalContext* ctx) const;

  // Readies ctx's engine for a new schedule: resources (kept across calls), the
  // fault-injected speed factors, and the backward-compute chain, whose tasks take ids
  // 0..n-1 so compute(i) is task i. Clears the op records.
  void StartSchedule(EvalContext* ctx) const;

  // Appends tensor i's pipeline under `option`, host copies included, chained off
  // compute(i) with priority i. Records each op when `record` is set. RunRaw and the
  // checkpoint paths build every schedule through here, so their task ids agree.
  void AppendTensorOps(size_t i, const CompressionOption& option, bool record,
                       EvalContext* ctx) const;

  // Runs ctx's fully built schedule to completion and returns its makespan. This is
  // the one place a simulation is counted. Fills `raw` when non-null.
  double CompleteSchedule(std::vector<RawEntry>* raw, EvalContext* ctx) const;

  // Compute intervals first, then each recorded op in tensor order.
  void CollectRaw(const EvalContext& ctx, std::vector<RawEntry>* raw) const;

#ifdef ESPRESSO_VERIFY_SCHEDULES
  // Aborts unless ctx's finished schedule satisfies the scheduling invariants for
  // `simulated`, the strategy it was built from. Uses `raw` when non-null.
  void VerifySchedule(const Strategy& simulated, const std::vector<RawEntry>* raw,
                      const EvalContext& ctx) const;
#endif

  // Converts raw records to named entries (trace/verifier representation).
  std::vector<TimelineEntry> ToEntries(const Strategy& strategy,
                                       const std::vector<RawEntry>& raw) const;

  ModelProfile model_;
  ClusterSpec cluster_;
  const Compressor& compressor_;
  CompressionCostModel cost_model_;
  bool zero_compression_cost_;
  ResourceScales resource_scales_;
  LinkSpec inter_link_;  // NIC bandwidth divided by the g flows sharing it
  LinkSpec flat_link_;
  mutable std::atomic<uint64_t> simulations_{0};
};

class TimelineEvaluator::EvalContext {
 public:
  EvalContext() = default;
  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

 private:
  friend class TimelineEvaluator;
  SimEngine engine;
  bool engine_ready = false;  // resources added and matching cpu_lanes
  size_t cpu_lanes = 0;
  std::vector<OpTaskRec> op_tasks;
  std::vector<RawEntry> raw_scratch;  // BeforeBubble records
};

class TimelineEvaluator::Checkpoint {
 public:
  // The tensor whose backward compute the engine is stopped before.
  size_t index() const { return index_; }

 private:
  friend class TimelineEvaluator;
  // True when `option` has the content tensor t (< index_) was built from.
  bool PrefixMatches(size_t t, const CompressionOption& option) const {
    return std::equal(option.ops.begin(), option.ops.end(),
                      prefix_ops_.begin() + static_cast<ptrdiff_t>(prefix_begin_[t]),
                      prefix_ops_.begin() + static_cast<ptrdiff_t>(prefix_begin_[t + 1]));
  }
  // The stopped engine, and the prefix's op records in verify-schedules builds.
  EvalContext storage_;
  const TimelineEvaluator* owner_ = nullptr;  // null until first built
  ResourceScales scales_;
  size_t index_ = 0;
  // The ops of options[0, index_) of the base the engine holds — the content
  // CompressionOption::operator== compares — flattened: tensor t's ops are
  // [prefix_begin_[t], prefix_begin_[t + 1]). Both keep their capacity across
  // rebuilds, so advancing allocates nothing after warm-up.
  std::vector<Op> prefix_ops_;
  std::vector<size_t> prefix_begin_;
};

}  // namespace espresso

#endif  // SRC_CORE_TIMELINE_H_
