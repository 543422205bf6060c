#include "src/core/eval_cache.h"

#include <utility>

#include "src/util/hash.h"
#include "src/util/logging.h"

namespace espresso {

uint64_t OptionFingerprint(const CompressionOption& option) {
  uint64_t h = Mix64(option.ops.size());
  for (const Op& op : option.ops) {
    uint64_t fields = static_cast<uint64_t>(op.task);
    fields = fields * 8 + static_cast<uint64_t>(op.phase);
    fields = fields * 16 + static_cast<uint64_t>(op.routine);
    fields = fields * 4 + static_cast<uint64_t>(op.device);
    fields = fields * 2 + static_cast<uint64_t>(op.compressed);
    fields = fields * 2 + static_cast<uint64_t>(op.machine_level);
    h = HashCombine(h, fields);
    h = HashCombine(h, DoubleBits(op.domain_fraction));
    h = HashCombine(h, DoubleBits(op.payload_fraction));
    h = HashCombine(h, static_cast<uint64_t>(op.fan_in));
  }
  return h;
}

namespace {

uint64_t MixIndexedFingerprint(size_t index, uint64_t option_fingerprint) {
  return Mix64(option_fingerprint + Mix64(static_cast<uint64_t>(index) + 1));
}

}  // namespace

uint64_t MixIndexedOption(size_t index, const CompressionOption& option) {
  return MixIndexedFingerprint(index, OptionFingerprint(option));
}

uint64_t FinalizeStrategyKey(uint64_t total) { return Mix64(total); }

uint64_t StrategyFingerprint(const Strategy& strategy) {
  uint64_t total = 0;
  for (size_t i = 0; i < strategy.options.size(); ++i) {
    total += MixIndexedOption(i, strategy.options[i]);
  }
  return FinalizeStrategyKey(total);
}

uint64_t UniformStrategyFingerprint(size_t tensors, const CompressionOption& option) {
  const uint64_t fingerprint = OptionFingerprint(option);
  uint64_t total = 0;
  for (size_t i = 0; i < tensors; ++i) {
    total += MixIndexedFingerprint(i, fingerprint);
  }
  return FinalizeStrategyKey(total);
}

void StrategyHasher::Reset(const Strategy& strategy) {
  mixed_.resize(strategy.options.size());
  total_ = 0;
  for (size_t i = 0; i < strategy.options.size(); ++i) {
    mixed_[i] = MixIndexedOption(i, strategy.options[i]);
    total_ += mixed_[i];
  }
}

uint64_t StrategyHasher::KeyWith(size_t index, const CompressionOption& option) const {
  return KeyWith(index, OptionFingerprint(option));
}

uint64_t StrategyHasher::KeyWith(size_t index, uint64_t option_fingerprint) const {
  ESP_CHECK_LT(index, mixed_.size());
  return FinalizeStrategyKey(total_ - mixed_[index] +
                             MixIndexedFingerprint(index, option_fingerprint));
}

void StrategyHasher::Set(size_t index, const CompressionOption& option) {
  ESP_CHECK_LT(index, mixed_.size());
  const uint64_t mixed = MixIndexedOption(index, option);
  total_ += mixed - mixed_[index];
  mixed_[index] = mixed;
}

bool EvaluationCache::Lookup(uint64_t key, double* value) {
  ESP_CHECK(value != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  if (const double* found = lru_.Get(key)) {
    *value = *found;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void EvaluationCache::Insert(uint64_t key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lru_.Put(key, value)) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool EvaluationCache::LookupBubbles(uint64_t key, std::vector<bool>* before) {
  ESP_CHECK(before != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  if (const std::vector<bool>* found = bubbles_.Get(key)) {
    *before = *found;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void EvaluationCache::InsertBubbles(uint64_t key, std::vector<bool> before) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bubbles_.Put(key, std::move(before))) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

EvalCacheStats EvaluationCache::stats() const {
  EvalCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

size_t EvaluationCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t EvaluationCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.capacity();
}

}  // namespace espresso
