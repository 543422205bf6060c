#include "src/util/config.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace espresso {
namespace {

TEST(ConfigFile, ParsesSectionsKeysAndComments) {
  const ConfigFile c = ConfigFile::ParseString(R"(
# leading comment
[model]
name = gpt2      # trailing comment
batch_size = 80
[cluster]
testbed = nvlink ; another comment style
)");
  ASSERT_TRUE(c.ok()) << c.error();
  EXPECT_EQ(c.Get("model", "name"), "gpt2");
  EXPECT_EQ(c.GetIntOr("model", "batch_size", 0, INT64_MIN, INT64_MAX), 80);
  EXPECT_EQ(c.Get("cluster", "testbed"), "nvlink");
  EXPECT_EQ(c.Entries("model").size(), 2u);
  EXPECT_TRUE(c.Entries("compression").empty());
}

TEST(ConfigFile, MissingKeysReturnNullopt) {
  const ConfigFile c = ConfigFile::ParseString("[a]\nx = 1\n");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c.Get("a", "y").has_value());
  EXPECT_FALSE(c.Get("b", "x").has_value());
  EXPECT_EQ(c.GetOr("a", "y", "fallback"), "fallback");
}

TEST(ConfigFile, TypedGettersRejectGarbage) {
  const ConfigFile c = ConfigFile::ParseString("[a]\nx = 12abc\ny = maybe\nz = 2.5\n");
  ASSERT_TRUE(c.ok());
  // Any int64 is in range, so only a parse failure returns the fallback.
  EXPECT_EQ(c.GetIntOr("a", "x", -1, INT64_MIN, INT64_MAX), -1);
  EXPECT_FALSE(c.GetBool("a", "y").has_value());
  EXPECT_EQ(c.GetDoubleOr("a", "z", 0.0, 0.0, 10.0), 2.5);
  ASSERT_EQ(c.warnings().size(), 1u);
  EXPECT_NE(c.warnings()[0].find("x = 12abc"), std::string::npos) << c.warnings()[0];
}

TEST(ConfigFile, BoolSpellings) {
  const ConfigFile c =
      ConfigFile::ParseString("[a]\nt1 = true\nt2 = 1\nt3 = on\nf1 = false\nf2 = no\n");
  for (const char* key : {"t1", "t2", "t3"}) {
    EXPECT_EQ(c.GetBool("a", key), true) << key;
  }
  for (const char* key : {"f1", "f2"}) {
    EXPECT_EQ(c.GetBool("a", key), false) << key;
  }
}

TEST(ConfigFile, EntriesPreserveOrderAndDuplicates) {
  const ConfigFile c = ConfigFile::ParseString(R"(
[tensors]
c = 3, 1
a = 1, 2
a = 9, 9
b = 2, 3
)");
  const auto entries = c.Entries("tensors");
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].first, "c");
  EXPECT_EQ(entries[1].first, "a");
  EXPECT_EQ(entries[2].second, "9, 9");
  EXPECT_EQ(entries[3].first, "b");
}

TEST(ConfigFile, MalformedInputReportsLine) {
  EXPECT_FALSE(ConfigFile::ParseString("[oops\n").ok());
  EXPECT_FALSE(ConfigFile::ParseString("[a]\nno_equals_here\n").ok());
  EXPECT_FALSE(ConfigFile::ParseString("[a]\n = value\n").ok());
  const ConfigFile bad = ConfigFile::ParseString("[a]\nx = 1\nbroken\n");
  EXPECT_NE(bad.error().find("line 3"), std::string::npos);
}

TEST(ConfigFile, LoadMissingFileFails) {
  const ConfigFile c = ConfigFile::Load("/nonexistent/path.ini");
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.error().find("cannot open"), std::string::npos);
}

TEST(ConfigFile, GetDoubleOrRangeChecksWithDiagnostics) {
  const ConfigFile c = ConfigFile::ParseString(
      "[faults]\n"
      "ok = 0.5\n"
      "too_big = 1.7\n"
      "not_a_number = oops\n");
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c.GetDoubleOr("faults", "ok", 0.1, 0.0, 1.0), 0.5);
  // Missing key: silent fallback, no warning.
  EXPECT_DOUBLE_EQ(c.GetDoubleOr("faults", "absent", 0.1, 0.0, 1.0), 0.1);
  EXPECT_TRUE(c.warnings().empty());
  // Out of range and malformed values fall back AND warn, citing the line.
  EXPECT_DOUBLE_EQ(c.GetDoubleOr("faults", "too_big", 0.2, 0.0, 1.0), 0.2);
  EXPECT_DOUBLE_EQ(c.GetDoubleOr("faults", "not_a_number", 0.3, 0.0, 1.0), 0.3);
  ASSERT_EQ(c.warnings().size(), 2u);
  EXPECT_NE(c.warnings()[0].find("line 3"), std::string::npos);
  EXPECT_NE(c.warnings()[0].find("too_big"), std::string::npos);
  EXPECT_NE(c.warnings()[0].find("out of range"), std::string::npos);
  EXPECT_NE(c.warnings()[1].find("line 4"), std::string::npos);
}

TEST(ConfigFile, GetIntOrRangeChecksWithDiagnostics) {
  const ConfigFile c = ConfigFile::ParseString(
      "[retry]\n"
      "max_attempts = 100\n"
      "base = 3\n");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.GetIntOr("retry", "base", 1, 0, 10), 3);
  EXPECT_EQ(c.GetIntOr("retry", "missing", 7, 0, 10), 7);
  EXPECT_TRUE(c.warnings().empty());
  EXPECT_EQ(c.GetIntOr("retry", "max_attempts", 4, 1, 64), 4);
  ASSERT_EQ(c.warnings().size(), 1u);
  EXPECT_NE(c.warnings()[0].find("max_attempts"), std::string::npos);
  EXPECT_NE(c.warnings()[0].find("[1, 64]"), std::string::npos);
}

TEST(SplitFields, SplitsAndTrims) {
  const auto fields = SplitFields(" a ,  b,c ,, d ", ",");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[3], "d");
}

TEST(TrimView, Trims) {
  EXPECT_EQ(TrimView("  x  "), "x");
  EXPECT_EQ(TrimView("\t\n"), "");
  EXPECT_EQ(TrimView("abc"), "abc");
}

}  // namespace
}  // namespace espresso
