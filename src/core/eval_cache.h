// Memoized evaluation support for the decision algorithm (§4.4): 64-bit strategy
// fingerprints and a thread-safe LRU cache mapping fingerprint -> F(S) and, for
// Property 1's Remove(), fingerprint -> bubble set.
//
// F(S) is a pure function of the per-tensor option contents (the ops, not the labels)
// for a fixed evaluator configuration (model, cluster, compressor, resource scales), so
// one cache is valid for exactly one TimelineEvaluator configuration. EspressoSelector
// owns a cache per selection and shares it with the nested forced-compression
// trajectory, whose evaluator is configured identically.
//
// The fingerprint is additive: the strategy key is the wrapping sum of per-index mixed
// option hashes, finalized with an avalanche step at lookup time. Addition makes
// single-option substitutions O(1) (subtract the old mixed hash, add the new one),
// which is what StrategyHasher exploits on the hot path — no rehash of the other n-1
// tensors per candidate score, and no strategy copy at all.
#ifndef SRC_CORE_EVAL_CACHE_H_
#define SRC_CORE_EVAL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/core/strategy.h"
#include "src/util/lru_cache.h"

namespace espresso {

// Content hash of one option: every op field that influences the simulated timeline.
// Labels are deliberately excluded — CompressionOption::operator== compares ops only,
// and two options with equal ops produce equal timelines.
uint64_t OptionFingerprint(const CompressionOption& option);

// Position-mixed option hash. Mixing the tensor index in keeps the strategy key
// order-sensitive even though the per-index hashes are combined by addition.
uint64_t MixIndexedOption(size_t index, const CompressionOption& option);

// Avalanche finalizer applied to the additive total before it is used as a cache key.
uint64_t FinalizeStrategyKey(uint64_t total);

// Full-strategy fingerprint: FinalizeStrategyKey(sum of MixIndexedOption over tensors).
uint64_t StrategyFingerprint(const Strategy& strategy);

// StrategyFingerprint(UniformStrategy(tensors, option)), without building the strategy.
uint64_t UniformStrategyFingerprint(size_t tensors, const CompressionOption& option);

// Incremental fingerprint tracker for a strategy being mutated one option at a time.
class StrategyHasher {
 public:
  StrategyHasher() = default;

  void Reset(const Strategy& strategy);

  // Key of the tracked strategy.
  uint64_t Key() const { return FinalizeStrategyKey(total_); }
  // Key of the tracked strategy with options[index] replaced by `option` (not applied).
  uint64_t KeyWith(size_t index, const CompressionOption& option) const;
  // The same, for an option whose OptionFingerprint the caller already holds. Hashing
  // an option costs more than a cache probe, so scoring loops precompute it.
  uint64_t KeyWith(size_t index, uint64_t option_fingerprint) const;
  // Applies a substitution so subsequent keys reflect it.
  void Set(size_t index, const CompressionOption& option);

  // Raw additive total (pre-finalization), for callers composing their own deltas
  // (e.g. the offload odometer's per-group prefix sums).
  uint64_t Total() const { return total_; }

 private:
  std::vector<uint64_t> mixed_;  // MixIndexedOption(i, options[i])
  uint64_t total_ = 0;           // wrapping sum of mixed_
};

struct EvalCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

// Thread-safe fingerprint -> F(S) LRU. Concurrent selections that share a cache hit
// it from several threads; a single mutex suffices because a lookup is ~two orders of
// magnitude cheaper than the timeline simulation it saves.
//
// It also memoizes Property 1's bubble sets (TimelineEvaluator::BeforeBubble), which
// are as pure as F(S) and cost one simulation each. Both tables count into the same
// hit/miss/eviction statistics, so hits are exactly the simulations saved. The
// bubble table holds as many entries as the F(S) table but reserves nothing up
// front: a selection that never repeats a strategy pays only for what it inserts.
class EvaluationCache {
 public:
  explicit EvaluationCache(size_t capacity) : lru_(capacity), bubbles_(capacity) {
    lru_.Reserve();
  }

  EvaluationCache(const EvaluationCache&) = delete;
  EvaluationCache& operator=(const EvaluationCache&) = delete;

  // On a hit stores F(S) in *value and returns true. Counts hit/miss either way.
  bool Lookup(uint64_t key, double* value);

  void Insert(uint64_t key, double value);

  // On a hit stores the bubble set of the strategy with fingerprint `key` in *before
  // and returns true. Counts hit/miss either way.
  bool LookupBubbles(uint64_t key, std::vector<bool>* before);

  void InsertBubbles(uint64_t key, std::vector<bool> before);

  EvalCacheStats stats() const;
  size_t size() const;  // F(S) entries; bubble sets are not counted
  size_t capacity() const;

 private:
  mutable std::mutex mu_;
  LruCache<uint64_t, double> lru_;
  LruCache<uint64_t, std::vector<bool>> bubbles_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace espresso

#endif  // SRC_CORE_EVAL_CACHE_H_
