#include "src/obs/span.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace espresso::obs {
namespace {

TEST(TraceCollector, DisabledCollectorDropsRecords) {
  TraceCollector collector;  // disabled by default
  collector.Record({"span", "cat", 0, 0.0, 1.0});
  EXPECT_TRUE(collector.spans().empty());
}

TEST(TraceCollector, SpansComeBackSorted) {
  TraceCollector collector;
  collector.set_enabled(true);
  collector.Record({"late", "cat", 0, 2.0, 3.0});
  collector.Record({"early", "cat", 0, 0.0, 1.0});
  collector.Record({"mid", "cat", 0, 1.0, 2.0});
  const auto spans = collector.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "early");
  EXPECT_EQ(spans[1].name, "mid");
  EXPECT_EQ(spans[2].name, "late");
}

TEST(ScopedSpan, RecordsIntoCollectorAndHistogram) {
  MetricsRegistry registry;
  const Histogram h = registry.RegisterHistogram("span_seconds", "", {10.0});
  TraceCollector collector;
  collector.set_enabled(true);
  {
    ScopedSpan span("unit", "test", h, &registry, &collector);
    EXPECT_GE(span.ElapsedSeconds(), 0.0);
  }
  const auto spans = collector.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit");
  EXPECT_EQ(spans[0].category, "test");
  EXPECT_GE(spans[0].end_s, spans[0].start_s);
  const MetricsSnapshot snapshot = registry.Scrape();
  const MetricValue* m = snapshot.Find("span_seconds");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 1u);
}

TEST(ScopedSpan, NestingTracksDepthAndContainment) {
  TraceCollector collector;
  collector.set_enabled(true);
  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
  {
    ScopedSpan outer("outer", "test", {}, nullptr, &collector);
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
    {
      ScopedSpan inner("inner", "test", {}, nullptr, &collector);
      EXPECT_EQ(ScopedSpan::CurrentDepth(), 2);
    }
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
  }
  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
  const auto spans = collector.spans();
  ASSERT_EQ(spans.size(), 2u);
  const auto& outer_span = spans[0].name == "outer" ? spans[0] : spans[1];
  const auto& inner_span = spans[0].name == "outer" ? spans[1] : spans[0];
  EXPECT_EQ(outer_span.name, "outer");
  EXPECT_EQ(inner_span.name, "inner");
  // Inner is contained in outer, so Perfetto renders them as a flame stack.
  EXPECT_LE(outer_span.start_s, inner_span.start_s);
  EXPECT_GE(outer_span.end_s, inner_span.end_s);
}

// Spans from concurrent worker threads must record cleanly and carry distinct thread
// ordinals; run under TSan in CI this also proves the record path is race-free.
TEST(ScopedSpan, NestsUnderThreadPool) {
  MetricsRegistry registry;
  const Histogram h = registry.RegisterHistogram("pool_span_seconds", "", {10.0});
  TraceCollector collector;
  collector.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &collector, h] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan outer("outer", "pool", h, &registry, &collector);
        ScopedSpan inner("inner", "pool", h, &registry, &collector);
        EXPECT_GE(ScopedSpan::CurrentDepth(), 2);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  const auto spans = collector.spans();
  EXPECT_EQ(spans.size(), 2u * kThreads * kPerThread);
  const MetricsSnapshot snapshot = registry.Scrape();
  const MetricValue* m = snapshot.Find("pool_span_seconds");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 2u * kThreads * kPerThread);
}

TEST(TraceCollector, ClearEmptiesTheBuffer) {
  TraceCollector collector;
  collector.set_enabled(true);
  collector.Record({"a", "b", 0, 0.0, 1.0});
  collector.Clear();
  EXPECT_TRUE(collector.spans().empty());
}

}  // namespace
}  // namespace espresso::obs
