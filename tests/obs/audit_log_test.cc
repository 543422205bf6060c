#include "src/obs/audit_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace espresso::obs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::string> FileLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(AuditLog, EnvelopeAndFields) {
  const std::string path = TempPath("audit_envelope.jsonl");
  std::remove(path.c_str());
  AuditLog log;
  ASSERT_TRUE(log.Open(path));
  log.Append("deploy", [](JsonWriter& json) {
    json.Field("version", static_cast<uint64_t>(3));
  });
  log.Append("reject");
  const std::vector<std::string> lines = FileLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"seq\":0,\"event\":\"deploy\",\"version\":3}");
  EXPECT_EQ(lines[1], "{\"seq\":1,\"event\":\"reject\"}");
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
  EXPECT_EQ(FileLines(path).size(), 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace espresso::obs
