#include "src/core/eval_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/core/decision_tree.h"
#include "src/core/strategy.h"
#include "src/util/lru_cache.h"

namespace espresso {
namespace {

std::vector<CompressionOption> Options() {
  return CandidateOptions(TreeConfig{8, 8, false});
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  EXPECT_FALSE(cache.Put(1, 10));
  EXPECT_FALSE(cache.Put(2, 20));
  ASSERT_NE(cache.Get(1), nullptr);  // 1 becomes most-recent
  EXPECT_TRUE(cache.Put(3, 30));     // evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 10);
  ASSERT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(*cache.Get(3), 30);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCache, PutExistingKeyUpdatesWithoutEviction) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_FALSE(cache.Put(1, 11));  // update, no eviction
  EXPECT_EQ(*cache.Get(1), 11);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EvalCache, CountsHitsMissesEvictions) {
  EvaluationCache cache(2);
  double value = 0.0;
  EXPECT_FALSE(cache.Lookup(1, &value));
  cache.Insert(1, 1.5);
  EXPECT_TRUE(cache.Lookup(1, &value));
  EXPECT_EQ(value, 1.5);
  cache.Insert(2, 2.5);
  cache.Insert(3, 3.5);  // evicts one entry
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.capacity(), 2u);
}

TEST(EvalCache, BubbleSetsShareTheStatisticsNotTheEntries) {
  EvaluationCache cache(1);
  std::vector<bool> before;
  EXPECT_FALSE(cache.LookupBubbles(7, &before));
  cache.InsertBubbles(7, {true, false, true});
  ASSERT_TRUE(cache.LookupBubbles(7, &before));
  EXPECT_EQ(before, (std::vector<bool>{true, false, true}));
  // The same fingerprint keys F(S) in a table of its own.
  double value = 0.0;
  EXPECT_FALSE(cache.Lookup(7, &value));
  cache.Insert(7, 2.5);
  ASSERT_TRUE(cache.LookupBubbles(7, &before));
  cache.InsertBubbles(8, {false});  // evicts bubble set 7, not F(S) 7
  EXPECT_FALSE(cache.LookupBubbles(7, &before));
  EXPECT_TRUE(cache.Lookup(7, &value));
  EXPECT_EQ(value, 2.5);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);  // F(S) entries only
}

TEST(Fingerprint, DistinguishesOptionsAndPositions) {
  const auto options = Options();
  ASSERT_GE(options.size(), 2u);
  // Distinct options at the same index get distinct keys; the same option at
  // different indices gets distinct keys (position matters).
  EXPECT_NE(OptionFingerprint(options[0]), OptionFingerprint(options[1]));
  EXPECT_NE(MixIndexedOption(0, options[0]), MixIndexedOption(1, options[0]));
  // Identical content hashes identically regardless of the label.
  CompressionOption relabeled = options[1];
  relabeled.label = "renamed";
  EXPECT_EQ(OptionFingerprint(relabeled), OptionFingerprint(options[1]));
}

TEST(Fingerprint, StrategyFingerprintIsOrderSensitive) {
  const auto options = Options();
  ASSERT_GE(options.size(), 2u);
  Strategy a = UniformStrategy(2, options[0]);
  a.options[1] = options[1];
  Strategy b = UniformStrategy(2, options[1]);
  b.options[1] = options[0];
  EXPECT_NE(StrategyFingerprint(a), StrategyFingerprint(b));
  EXPECT_EQ(StrategyFingerprint(a), StrategyFingerprint(a));
}

TEST(Fingerprint, UniformStrategyFingerprintMatchesTheBuiltStrategy) {
  for (const CompressionOption& option : Options()) {
    for (const size_t tensors : {size_t{0}, size_t{1}, size_t{148}}) {
      EXPECT_EQ(UniformStrategyFingerprint(tensors, option),
                StrategyFingerprint(UniformStrategy(tensors, option)))
          << option.label << " x" << tensors;
    }
  }
}

TEST(StrategyHasher, IncrementalMatchesFullRecompute) {
  const auto options = Options();
  ASSERT_GE(options.size(), 3u);
  Strategy strategy = UniformStrategy(5, options[0]);
  StrategyHasher hasher;
  hasher.Reset(strategy);
  EXPECT_EQ(hasher.Key(), StrategyFingerprint(strategy));

  // KeyWith previews a single substitution without committing it.
  Strategy substituted = strategy;
  substituted.options[3] = options[2];
  EXPECT_EQ(hasher.KeyWith(3, options[2]), StrategyFingerprint(substituted));
  EXPECT_EQ(hasher.KeyWith(3, OptionFingerprint(options[2])),
            StrategyFingerprint(substituted));
  EXPECT_EQ(hasher.Key(), StrategyFingerprint(strategy));  // hasher unchanged

  // Set commits; a chain of Sets tracks the full recompute exactly.
  hasher.Set(3, options[2]);
  strategy.options[3] = options[2];
  hasher.Set(0, options[1]);
  strategy.options[0] = options[1];
  EXPECT_EQ(hasher.Key(), StrategyFingerprint(strategy));
}

TEST(EvalCache, ConcurrentLookupInsertIsSafe) {
  // Exercised under TSan in CI: hammer one cache from several threads.
  EvaluationCache cache(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      double value = 0.0;
      for (uint64_t i = 0; i < 2000; ++i) {
        const uint64_t key = (i + static_cast<uint64_t>(t) * 7) % 128;
        if (!cache.Lookup(key, &value)) {
          cache.Insert(key, static_cast<double>(key) * 0.5);
        } else {
          EXPECT_EQ(value, static_cast<double>(key) * 0.5);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const EvalCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace espresso
