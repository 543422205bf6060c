#include "src/obs/audit_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/metrics.h"

namespace espresso::obs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

size_t FileLineCount(const std::string& path) {
  std::ifstream in(path);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  return lines;
}

TEST(AuditLog, EnvelopeAndFields) {
  AuditLog log;
  const uint64_t seq0 = log.Append("deploy", [](JsonWriter& json) {
    json.Field("version", static_cast<uint64_t>(3));
  });
  const uint64_t seq1 = log.Append("reject");
  EXPECT_EQ(seq0, 0u);
  EXPECT_EQ(seq1, 1u);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], "{\"seq\":0,\"event\":\"deploy\",\"version\":3}");
  EXPECT_EQ(entries[1], "{\"seq\":1,\"event\":\"reject\"}");
  EXPECT_EQ(log.size(), 2u);
  EXPECT_FALSE(log.write_failed());
}

// Regression: pre-fix, entries_ grew without bound — a leak in any long-lived
// process that audits every request.
TEST(AuditLog, InMemoryRetentionIsBounded) {
  const std::string path = TempPath("audit_ring.jsonl");
  std::remove(path.c_str());
  AuditLog log(/*retention=*/4);
  ASSERT_TRUE(log.Open(path));
  for (int i = 0; i < 10; ++i) {
    log.Append("event");
  }
  EXPECT_EQ(log.size(), 10u);  // total appended, not capped
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 4u);  // ring of the last N
  // The ring holds the MOST RECENT lines, sequence numbers intact.
  EXPECT_EQ(entries.front(), "{\"seq\":6,\"event\":\"event\"}");
  EXPECT_EQ(entries.back(), "{\"seq\":9,\"event\":\"event\"}");
  // Full history only on disk.
  EXPECT_EQ(FileLineCount(path), 10u);
  std::remove(path.c_str());
}

TEST(AuditLog, ZeroRetentionKeepsDiskOnlyHistory) {
  const std::string path = TempPath("audit_zero.jsonl");
  std::remove(path.c_str());
  AuditLog log(/*retention=*/0);
  ASSERT_TRUE(log.Open(path));
  log.Append("a");
  log.Append("b");
  EXPECT_TRUE(log.entries().empty());
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(FileLineCount(path), 2u);
  EXPECT_FALSE(log.write_failed());
  std::remove(path.c_str());
}

// Regression: pre-fix, a failed write (disk full) was silently ignored — audit
// records vanished with no counter, no sticky state, nothing for an operator to
// alert on. /dev/full deterministically fails every flush with ENOSPC.
TEST(AuditLog, WriteFailureIsCountedAndSticky) {
  AuditLog log;
  std::string error;
  if (!log.Open("/dev/full", &error)) {
    GTEST_SKIP() << "/dev/full unavailable: " << error;
  }
  MetricsRegistry& registry = GlobalMetrics();
  // Find() points into its snapshot, so each snapshot is kept while it is read.
  const MetricsSnapshot before_snapshot = registry.Scrape();
  const MetricValue* before_metric =
      before_snapshot.Find("espresso_audit_write_failures_total");
  const uint64_t before = before_metric != nullptr ? before_metric->count : 0;

  log.Append("doomed");
  EXPECT_TRUE(log.write_failed());
  EXPECT_EQ(log.write_failures(), 1u);
  EXPECT_NE(log.last_write_error().find("/dev/full"), std::string::npos);
  EXPECT_NE(log.last_write_error().find("seq 0"), std::string::npos);

  // Still counting: the stream error is cleared so later appends keep trying.
  log.Append("also doomed");
  EXPECT_EQ(log.write_failures(), 2u);
  // Sticky: the first failure's description is retained.
  EXPECT_NE(log.last_write_error().find("seq 0"), std::string::npos);

  const MetricsSnapshot after_snapshot = registry.Scrape();
  const MetricValue* after_metric =
      after_snapshot.Find("espresso_audit_write_failures_total");
  ASSERT_NE(after_metric, nullptr);
  EXPECT_EQ(after_metric->count, before + 2);

  // The in-memory ring still has both lines — degraded, not lost.
  EXPECT_EQ(log.entries().size(), 2u);
}

TEST(AuditLog, HealthyFileWritesDoNotTripTheFailureState) {
  const std::string path = TempPath("audit_ok.jsonl");
  std::remove(path.c_str());
  AuditLog log;
  ASSERT_TRUE(log.Open(path));
  for (int i = 0; i < 5; ++i) {
    log.Append("fine");
  }
  EXPECT_FALSE(log.write_failed());
  EXPECT_EQ(log.write_failures(), 0u);
  EXPECT_EQ(log.last_write_error(), "");
  EXPECT_EQ(FileLineCount(path), 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace espresso::obs
