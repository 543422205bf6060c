#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/thread_pool.h"

namespace espresso::obs {
namespace {

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry registry;
  const Counter c = registry.RegisterCounter("requests_total", "help text");
  registry.Add(c);
  registry.Add(c, 41);
  const MetricsSnapshot snapshot = registry.Scrape();
  const MetricValue* m = snapshot.Find("requests_total");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kCounter);
  EXPECT_EQ(m->count, 42u);
  EXPECT_EQ(m->help, "help text");
}

TEST(MetricsRegistry, GaugeIsLastWriteWins) {
  MetricsRegistry registry;
  const Gauge g = registry.RegisterGauge("temperature", "");
  registry.Set(g, 1.5);
  registry.Set(g, -2.25);
  const MetricsSnapshot snapshot = registry.Scrape();
  const MetricValue* m = snapshot.Find("temperature");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(m->value, -2.25);
}

TEST(MetricsRegistry, HistogramBucketsAndSum) {
  MetricsRegistry registry;
  const Histogram h = registry.RegisterHistogram("latency", "", {1.0, 2.0, 4.0});
  registry.Observe(h, 0.5);   // bucket 0 (le 1)
  registry.Observe(h, 1.0);   // bucket 0 (le semantics: value <= bound)
  registry.Observe(h, 3.0);   // bucket 2 (le 4)
  registry.Observe(h, 100.0); // overflow (+Inf)
  const MetricsSnapshot snapshot = registry.Scrape();
  const MetricValue* m = snapshot.Find("latency");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kHistogram);
  ASSERT_EQ(m->bucket_counts.size(), 4u);
  EXPECT_EQ(m->bucket_counts[0], 2u);
  EXPECT_EQ(m->bucket_counts[1], 0u);
  EXPECT_EQ(m->bucket_counts[2], 1u);
  EXPECT_EQ(m->bucket_counts[3], 1u);
  EXPECT_EQ(m->count, 4u);
  EXPECT_DOUBLE_EQ(m->value, 104.5);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  const Counter a = registry.RegisterCounter("dup_total", "first");
  const Counter b = registry.RegisterCounter("dup_total", "second help ignored");
  EXPECT_EQ(a.cell, b.cell);
  registry.Add(a);
  registry.Add(b);
  const MetricsSnapshot snapshot = registry.Scrape();
  const MetricValue* m = snapshot.Find("dup_total");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 2u);
  EXPECT_EQ(m->help, "first");
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(MetricsRegistry, InvalidHandlesAreInert) {
  MetricsRegistry registry;
  registry.Add(Counter{});
  registry.Set(Gauge{}, 1.0);
  registry.Observe(Histogram{}, 1.0);
  EXPECT_EQ(registry.Scrape().metrics.size(), 0u);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry registry;
  registry.RegisterCounter("zebra", "");
  registry.RegisterCounter("alpha", "");
  registry.RegisterGauge("mid", "");
  const MetricsSnapshot snapshot = registry.Scrape();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  EXPECT_EQ(snapshot.metrics[0].name, "alpha");
  EXPECT_EQ(snapshot.metrics[1].name, "mid");
  EXPECT_EQ(snapshot.metrics[2].name, "zebra");
}

// The core shard-merge property: increments from many threads land in per-thread
// shards, and Scrape() must sum them all — deterministically, regardless of the
// interleaving that produced them.
TEST(MetricsRegistry, MergesThreadShardsExactly) {
  MetricsRegistry registry;
  const Counter c = registry.RegisterCounter("work_total", "");
  const Histogram h = registry.RegisterHistogram("work_seconds", "", {0.5, 1.5, 2.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  {
    ThreadPool pool(kThreads);
    TaskGroup group;
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit(group, [&registry, c, h, t] {
        for (int i = 0; i < kPerThread; ++i) {
          registry.Add(c);
          registry.Observe(h, static_cast<double>(t % 3));
        }
      });
    }
    group.Wait();
  }
  const MetricsSnapshot snapshot = registry.Scrape();
  const MetricValue* counter = snapshot.Find("work_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->count, static_cast<uint64_t>(kThreads) * kPerThread);
  const MetricValue* hist = snapshot.Find("work_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<uint64_t>(kThreads) * kPerThread);
  // t % 3 over 8 threads: values 0 (x3 threads), 1 (x3), 2 (x2).
  ASSERT_EQ(hist->bucket_counts.size(), 4u);
  EXPECT_EQ(hist->bucket_counts[0], 3u * kPerThread);  // 0.0 <= 0.5
  EXPECT_EQ(hist->bucket_counts[1], 3u * kPerThread);  // 1.0 <= 1.5
  EXPECT_EQ(hist->bucket_counts[2], 2u * kPerThread);  // 2.0 <= 2.5
  EXPECT_EQ(hist->bucket_counts[3], 0u);
  EXPECT_DOUBLE_EQ(hist->value, (3.0 * 0 + 3.0 * 1 + 2.0 * 2) * kPerThread);
  EXPECT_GE(registry.shard_count(), 1u);
}

// Scraping twice with no recording in between must be byte-identical — the basis of
// the "byte-stable JSON metrics dump" guarantee.
TEST(MetricsRegistry, RepeatedScrapesAreIdentical) {
  MetricsRegistry registry;
  const Counter c = registry.RegisterCounter("stable_total", "");
  const Histogram h = registry.RegisterHistogram("stable_seconds", "", {1.0});
  registry.Add(c, 7);
  registry.Observe(h, 0.25);
  const MetricsSnapshot a = registry.Scrape();
  const MetricsSnapshot b = registry.Scrape();
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].name, b.metrics[i].name);
    EXPECT_EQ(a.metrics[i].count, b.metrics[i].count);
    EXPECT_EQ(a.metrics[i].value, b.metrics[i].value);
    EXPECT_EQ(a.metrics[i].bucket_counts, b.metrics[i].bucket_counts);
  }
}

TEST(MetricsRegistry, ResetZeroesEverything) {
  MetricsRegistry registry;
  const Counter c = registry.RegisterCounter("resettable_total", "");
  const Gauge g = registry.RegisterGauge("resettable", "");
  registry.Add(c, 5);
  registry.Set(g, 9.0);
  registry.Reset();
  const MetricsSnapshot snapshot = registry.Scrape();
  EXPECT_EQ(snapshot.Find("resettable_total")->count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.Find("resettable")->value, 0.0);
}

TEST(MetricsRegistry, ThreadLocalCacheSurvivesRegistryTeardown) {
  // A thread that recorded into registry A must not write into registry B when B
  // reuses A's address (generation check in the thread-local shard cache).
  auto a = std::make_unique<MetricsRegistry>();
  const Counter ca = a->RegisterCounter("x_total", "");
  a->Add(ca);
  a.reset();
  MetricsRegistry b;
  const Counter cb = b.RegisterCounter("x_total", "");
  b.Add(cb, 3);
  const MetricsSnapshot snapshot = b.Scrape();
  EXPECT_EQ(snapshot.Find("x_total")->count, 3u);
}

// Threads that come and go, like a daemon's connection threads, reuse the shards of
// threads that exited: the shard count stays at the peak of concurrently recording
// threads, and the exited threads' counts stay in the scrape.
TEST(MetricsRegistry, ExitedThreadsHandTheirShardsBack) {
  MetricsRegistry registry;
  const Counter c = registry.RegisterCounter("connections_total", "");
  for (int t = 0; t < 64; ++t) {
    std::thread([&registry, c] { registry.Add(c); }).join();
  }
  EXPECT_LE(registry.shard_count(), 2u);
  EXPECT_EQ(registry.Scrape().Find("connections_total")->count, 64u);
}

// A thread that exits after the registry it recorded into was destroyed must not
// touch the freed registry (the ASan leg turns a touch into a failure).
TEST(MetricsRegistry, ThreadExitingAfterItsRegistryIsDestroyedTouchesNothing) {
  auto registry = std::make_unique<MetricsRegistry>();
  const Counter c = registry->RegisterCounter("short_lived_total", "");
  std::promise<void> recorded;
  std::promise<void> destroyed;
  std::shared_future<void> destroyed_future(destroyed.get_future());
  std::thread worker([&registry, c, &recorded, destroyed_future] {
    registry->Add(c);
    recorded.set_value();
    destroyed_future.wait();
  });
  recorded.get_future().wait();
  EXPECT_EQ(registry->Scrape().Find("short_lived_total")->count, 1u);
  registry.reset();
  destroyed.set_value();
  worker.join();
}

TEST(GlobalMetrics, IsASingleton) {
  EXPECT_EQ(&GlobalMetrics(), &GlobalMetrics());
}

TEST(Buckets, HelpersProduceMonotoneBounds) {
  const std::vector<double> linear = LinearBuckets(1.0, 2.0, 4);
  ASSERT_EQ(linear.size(), 4u);
  EXPECT_DOUBLE_EQ(linear[0], 1.0);
  EXPECT_DOUBLE_EQ(linear[3], 7.0);
  const std::vector<double> expo = ExponentialBuckets(1e-6, 10.0, 5);
  for (size_t i = 1; i < expo.size(); ++i) {
    EXPECT_GT(expo[i], expo[i - 1]);
  }
  const std::vector<double> defaults = DefaultTimeBuckets();
  for (size_t i = 1; i < defaults.size(); ++i) {
    EXPECT_GT(defaults[i], defaults[i - 1]);
  }
}

}  // namespace
}  // namespace espresso::obs
