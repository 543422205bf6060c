// Espresso's compression decision algorithm (§4.4).
//
// Stage 1 — Algorithm 1 (GPU compression): tensors are sorted by descending size and
// grouped; within a group, tensors closer to the output layer come first (Property 2).
// Tensors communicated before bubbles are ruled out, and re-ruled out whenever a new
// assignment creates new bubbles (Property 1, Remove()). For each remaining tensor,
// GetBestOption() scores the no-change candidate plus every GPU compression candidate by
// deriving the *full strategy timeline* — overheads, not wall-clock times, drive the
// choice (Property 3).
//
// Stage 2 — Algorithm 2 (CPU offloading): compressed tensors are grouped by (size,
// option); by Lemma 1 the optimal offload within a group is a prefix of the tensors
// farthest from the output layer, so only the product space over per-group offload
// counts U = {u_1..u_d} needs searching (Theorem 1). When that product exceeds a
// budget, per-group coordinate descent is used instead (and flagged in the result).
//
// Search acceleration: every F(S) query and every Property-1 bubble set is memoized
// in a fingerprint-keyed LRU (SelectorOptions::cache_capacity). A batch of queries is
// first probed against that cache on the caller's thread; only the misses are
// simulated, split into SelectorOptions::threads chunks on the process-wide
// GlobalThreadPool() through TimelineEvaluator's thread-safe non-mutating scoring entry
// points. A selection whose queries all hit submits no task and runs no simulation.
// A tensor's candidates resume from one TimelineEvaluator::Checkpoint
// of the timeline prefix they share; refinement sweeps visit tensors in ascending
// order, so the checkpoint mostly advances in place. Both knobs are bit-exact: the
// accelerated selector returns the same strategy as the serial, uncached one — ties
// always resolve to the lowest candidate index. See docs/PERFORMANCE.md.
#ifndef SRC_CORE_ESPRESSO_H_
#define SRC_CORE_ESPRESSO_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/core/decision_tree.h"
#include "src/core/eval_cache.h"
#include "src/core/strategy.h"
#include "src/core/timeline.h"

namespace espresso::obs {
struct MetricsSnapshot;
}  // namespace espresso::obs

namespace espresso {

struct SelectorOptions {
  // Candidate options for GetBestOption; empty = CandidateOptions(tree config).
  std::vector<CompressionOption> candidates;
  bool force_compress_all = false;  // Figure 15 "All compression": skip Remove, drop the
                                    // uncompressed candidates
  bool myopic = false;              // Figure 15 "Myopic": score candidates by the sum of
                                    // their op durations instead of the strategy timeline
  bool enable_cpu_offload = true;   // run Algorithm 2 after Algorithm 1
  bool force_cpu = false;           // Figure 15 "CPU compression": all ops on CPUs
  // Ablation switch: skip Property 1's bubble-based elimination (Remove()). Every
  // tensor is then scored, trading selection time for (rarely) a better strategy.
  bool disable_bubble_elimination = false;
  // Algorithm 2 exhaustive-search budget; beyond it coordinate descent over the group
  // counts takes over (Lemma 1 still fixes the within-group order either way).
  size_t offload_search_budget = 3000;
  // Fan-out width: a batch with at least two cache misses is split into this many
  // chunks, simulated on the process-wide GlobalThreadPool() (0 or 1 = simulate on
  // the caller's thread). A fully cached selection submits nothing. The selected
  // strategy is identical for any width.
  size_t threads = 0;
  // Capacity of the memoized F(S) cache (0 disables memoization). The cache is keyed
  // by 64-bit strategy fingerprints and scoped to this selector's evaluator
  // configuration; it is shared with the nested forced-compression trajectory.
  size_t cache_capacity = 1 << 16;
};

// Per-selection performance counters. Stage walls partition total_seconds; evaluation
// counts are taken at the one batch-scoring chokepoint on the caller's thread, so they
// stay exact under parallel scoring (no hand-maintained tallies).
struct SelectorTelemetry {
  double algorithm1_seconds = 0.0;   // Algorithm 1 greedy pass
  double refine_seconds = 0.0;       // fixpoint refinement sweeps
  double trajectory_seconds = 0.0;   // uniform-seed + forced-compression trajectories
  double offload_seconds = 0.0;      // Algorithm 2
  double total_seconds = 0.0;
  uint64_t evaluations = 0;          // logical F(S) and bubble-set queries (hits included)
  uint64_t simulations = 0;          // timelines actually simulated (cache misses)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t fanouts = 0;              // batches whose misses were submitted to the pool
  size_t threads = 0;                // fan-out width (SelectorOptions::threads)

  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }

  // The registry view: rebuilds a telemetry aggregate from scraped
  // espresso_selector_* metrics (cumulative across every selection in the
  // process, not a single Select call). Missing metrics read as zero.
  static SelectorTelemetry FromMetricsSnapshot(const obs::MetricsSnapshot& snapshot);
};

struct SelectionResult {
  Strategy strategy;
  double iteration_time = 0.0;
  double gpu_stage_seconds = 0.0;      // Table 5: Algorithm 1 wall-clock
  double offload_stage_seconds = 0.0;  // Table 6: Algorithm 2 wall-clock
  size_t timeline_evaluations = 0;
  size_t offload_combinations = 0;     // |U| actually traversed
  size_t offload_tensor_count = 0;     // |T_gpu|
  bool offload_exact = true;           // false if coordinate descent was used
  SelectorTelemetry telemetry;
};

class EspressoSelector {
 public:
  EspressoSelector(const ModelProfile& model, const ClusterSpec& cluster,
                   const Compressor& compressor, SelectorOptions options = {});

  // Shares an externally owned evaluation cache instead of creating one. The cache's
  // fingerprints are only meaningful for ONE evaluator configuration, so the caller
  // must guarantee `shared_cache` was populated against an identical (model, cluster,
  // compressor) triple — the selection service keys its cache pool by the config
  // digests to uphold this. Also used internally by the nested forced-compression
  // trajectory (same evaluator configuration by construction).
  EspressoSelector(const ModelProfile& model, const ClusterSpec& cluster,
                   const Compressor& compressor, SelectorOptions options,
                   std::shared_ptr<EvaluationCache> shared_cache);

  // Full pipeline: Algorithm 1, then (if enabled) Algorithm 2. One selection at a
  // time per selector instance (scoring scratch and counters are per-instance).
  SelectionResult Select() const;

  // Algorithm 1 only. `evaluations` (optional) accumulates timeline-eval counts.
  Strategy SelectGpuCompression(size_t* evaluations = nullptr) const;

  // Algorithm 2 only, applied to the output of Algorithm 1.
  Strategy OffloadToCpu(const Strategy& gpu_strategy, size_t* combinations = nullptr,
                        bool* exact = nullptr, size_t* evaluations = nullptr) const;

  // One greedy improvement sweep over every tensor (GetBestOption without the bubble
  // elimination). Select() runs these to a fixpoint after Algorithm 1, which removes
  // the order dependence of the single greedy pass. Returns true if anything changed.
  bool RefineSweep(Strategy* strategy, size_t* evaluations = nullptr) const;

  const TimelineEvaluator& evaluator() const { return evaluator_; }
  // Null when SelectorOptions::cache_capacity == 0.
  const EvaluationCache* cache() const { return cache_.get(); }

 private:
  void Init();

  // Answers `count` F(S) queries; every query the selector makes goes through here,
  // and this is where evaluations are counted. `key(i)` is query i's fingerprint,
  // `simulate(i, chunk, ctx)` computes its F(S), and `store(i, value)` receives the
  // answer. The cache is probed on the caller's thread; only the misses reach
  // ParallelFor, and their values enter the cache in query order, so the cache's
  // contents and statistics are the same for every thread count. `prepare()` runs on
  // the caller's thread before the misses are simulated, and only if there are any.
  template <typename KeyFn, typename PrepareFn, typename SimulateFn, typename StoreFn>
  void ScoreBatch(size_t count, const KeyFn& key, const PrepareFn& prepare,
                  const SimulateFn& simulate, const StoreFn& store) const;

  // Memoized, non-mutating score of `candidate` at `index` within `base` (whose
  // fingerprint is tracked by `hasher`). A miss resumes from checkpoint_.
  double CachedScore(const Strategy& base, const StrategyHasher& hasher, size_t index,
                     const CompressionOption& candidate) const;

  // Memoized full-strategy F(S) (fingerprint computed from scratch).
  double CachedIterationTime(const Strategy& strategy) const;

  // Runs fn(i, chunk, context) for i in [0, count), split into min(threads, count)
  // chunks on GlobalThreadPool() under a per-call TaskGroup, with one EvalContext per
  // chunk. Runs inline on the caller's thread, in index order, unless both `count` and
  // threads are at least two.
  template <typename Fn>
  void ParallelFor(size_t count, const Fn& fn) const;

  // Scores every candidate against `base` with options[index] substituted, into
  // `times` (resized to candidates_.size()). A candidate equal to `skip` (if non-null)
  // is left at +inf — the caller already scored it. Misses resume from checkpoint_.
  void ScoreCandidates(const Strategy& base, const StrategyHasher& hasher, size_t index,
                       std::vector<double>* times,
                       const CompressionOption* skip) const;

  // One cache miss of a ScoreBatch call: the query, its key and its computed F(S).
  struct Miss {
    size_t query;
    uint64_t key;
    double value;
  };

  ModelProfile model_;
  TreeConfig tree_config_;
  SelectorOptions options_;
  TimelineEvaluator evaluator_;
  std::vector<CompressionOption> candidates_;
  std::vector<uint64_t> candidate_fingerprints_;  // OptionFingerprint(candidates_[j])
  CompressionOption default_option_;
  std::shared_ptr<EvaluationCache> cache_;        // null = memoization disabled
  mutable std::deque<TimelineEvaluator::EvalContext> contexts_;  // one per chunk
  // The shared prefix for candidate scoring: advanced on the caller's thread, resumed
  // read-only by every chunk.
  mutable TimelineEvaluator::Checkpoint checkpoint_;
  mutable uint64_t evaluations_ = 0;              // logical F(S) and bubble-set queries
  mutable uint64_t fanouts_ = 0;                  // ParallelFor calls that used the pool
  mutable std::vector<size_t> scored_;            // ScoreCandidates' candidate indices
  mutable std::vector<Miss> misses_;              // ScoreBatch's misses
};

}  // namespace espresso

#endif  // SRC_CORE_ESPRESSO_H_
