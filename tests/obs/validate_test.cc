#include "src/obs/validate.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace espresso::obs {
namespace {

// Writes `text` to a temp file and returns its path; removed by the caller.
std::string WriteTempFile(const std::string& tag, const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "espresso_validate_" + tag + ".txt";
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

TEST(ValidateJson, AcceptsWellFormedDocuments) {
  EXPECT_TRUE(ValidateJsonDocument("{}").ok);
  EXPECT_TRUE(ValidateJsonDocument("[]").ok);
  EXPECT_TRUE(ValidateJsonDocument("  {\"a\":[1,2.5,-3e-2,true,false,null]} ").ok);
  EXPECT_TRUE(ValidateJsonDocument(R"({"s":"\"\\\/\b\f\n\r\té"})").ok);
  EXPECT_TRUE(ValidateJsonDocument(R"({"nested":{"deep":[{"x":1}]}})").ok);
}

TEST(ValidateJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(ValidateJsonDocument("").ok);
  EXPECT_FALSE(ValidateJsonDocument("{").ok);
  EXPECT_FALSE(ValidateJsonDocument("{\"a\":}").ok);
  EXPECT_FALSE(ValidateJsonDocument("[1,]").ok);
  EXPECT_FALSE(ValidateJsonDocument("{\"a\":1}{").ok);  // trailing bytes
  EXPECT_FALSE(ValidateJsonDocument(R"({"s":"bad \x escape"})").ok);
  EXPECT_FALSE(ValidateJsonDocument("{\"s\":\"unterminated").ok);
  EXPECT_FALSE(ValidateJsonDocument("{\"a\" 1}").ok);  // missing colon
  const ValidationResult trailing = ValidateJsonDocument("{} extra");
  EXPECT_FALSE(trailing.ok);
  EXPECT_NE(trailing.error.find("trailing"), std::string::npos);
}

TEST(ValidateJson, RefusesDeepNestingWithoutCrashing) {
  // A recursive reader without a depth bound overflows its stack on this document.
  constexpr size_t kDepth = 100000;
  const std::string text =
      "{\"metrics\":" + std::string(kDepth, '[') + std::string(kDepth, ']') + "}";
  const ValidationResult r = ValidateJsonDocument(text);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("nesting too deep"), std::string::npos) << r.error;
}

TEST(ValidateJson, CountsMetricsArrayElements) {
  const ValidationResult r =
      ValidateJsonDocument(R"({"metrics":[{"a":1},{"b":2},{"c":3}]})");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.samples, 3u);
}

TEST(ValidateJson, CountsTraceEventsArrayElements) {
  const ValidationResult r =
      ValidateJsonDocument(R"({"traceEvents":[{"ph":"X"},{"ph":"M"}]})");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.samples, 2u);
}

TEST(ValidateJson, OnlyFirstCountedArrayIsCounted) {
  // Nested "metrics" keys inside counted elements must not double-count.
  const ValidationResult r = ValidateJsonDocument(
      R"({"metrics":[{"metrics":[1,2,3,4]}],"traceEvents":[1,2]})");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.samples, 1u);
}

TEST(ValidateJson, NoCountedKeyMeansZeroSamples) {
  const ValidationResult r = ValidateJsonDocument(R"({"other":[1,2,3]})");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.samples, 0u);
}

TEST(ValidatePrometheus, AcceptsTextExpositionFormat) {
  const ValidationResult r = ValidatePrometheusText(
      "# HELP demo_total helps\n"
      "# TYPE demo_total counter\n"
      "demo_total 42\n"
      "demo_seconds_bucket{le=\"+Inf\"} 3\n"
      "demo_ratio -0.5\n"
      "demo_inf +Inf\n");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.samples, 4u);  // comment lines are not samples
}

TEST(ValidatePrometheus, RejectsBadLines) {
  EXPECT_FALSE(ValidatePrometheusText("demo_total\n").ok);        // no value
  EXPECT_FALSE(ValidatePrometheusText("1bad_name 1\n").ok);       // bad name
  EXPECT_FALSE(ValidatePrometheusText("demo_total abc\n").ok);    // bad value
  EXPECT_FALSE(ValidatePrometheusText("demo{le=\"1\" 2\n").ok);   // unclosed labels
}

TEST(ValidatePrometheus, RejectsZeroSamples) {
  const ValidationResult r = ValidatePrometheusText("# only comments\n\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no metric samples"), std::string::npos);
}

TEST(ValidateFile, MissingFileFails) {
  const ValidationResult r = ValidateMetricsFile("/nonexistent/metrics.prom");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot read"), std::string::npos);
}

TEST(ValidateFile, EmptyFileFails) {
  const std::string path = WriteTempFile("empty", "  \n\t");
  const ValidationResult r = ValidateMetricsFile(path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("empty file"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ValidateFile, DispatchesOnLeadingBrace) {
  const std::string json =
      WriteTempFile("json", R"({"metrics":[{"name":"x","count":1}]})");
  const ValidationResult jr = ValidateMetricsFile(json);
  EXPECT_TRUE(jr.ok) << jr.error;
  EXPECT_EQ(jr.samples, 1u);
  std::remove(json.c_str());

  const std::string prom = WriteTempFile("prom", "demo_total 1\n");
  const ValidationResult pr = ValidateMetricsFile(prom);
  EXPECT_TRUE(pr.ok) << pr.error;
  EXPECT_EQ(pr.samples, 1u);
  std::remove(prom.c_str());
}

TEST(ValidateFile, JsonWithZeroSamplesFails) {
  const std::string path = WriteTempFile("zero", R"({"metrics":[]})");
  const ValidationResult r = ValidateMetricsFile(path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no metrics or traceEvents entries"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ValidateFile, ErrorsArePrefixedWithThePath) {
  const std::string path = WriteTempFile("bad", "{broken");
  const ValidationResult r = ValidateMetricsFile(path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find(path), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace espresso::obs
