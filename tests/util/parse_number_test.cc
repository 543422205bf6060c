#include "src/util/parse_number.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace espresso {
namespace {

TEST(ParseNumber, DoubleHappyPath) {
  double d = -1.0;
  EXPECT_EQ(ParseDouble("0.25", &d), NumberParse::kOk);
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_EQ(ParseDouble("-3.5e2", &d), NumberParse::kOk);
  EXPECT_DOUBLE_EQ(d, -350.0);
  EXPECT_EQ(ParseDouble("+1.5", &d), NumberParse::kOk);  // sto* compatibility
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_EQ(ParseDouble("42", &d), NumberParse::kOk);
  EXPECT_DOUBLE_EQ(d, 42.0);
}

TEST(ParseNumber, DoubleMalformed) {
  double d = 7.0;
  EXPECT_EQ(ParseDouble("", &d), NumberParse::kMalformed);
  EXPECT_EQ(ParseDouble("abc", &d), NumberParse::kMalformed);
  EXPECT_EQ(ParseDouble("1.5x", &d), NumberParse::kMalformed);  // trailing garbage
  EXPECT_EQ(ParseDouble(" 1.5", &d), NumberParse::kMalformed);  // no whitespace skip
  EXPECT_EQ(ParseDouble("++1", &d), NumberParse::kMalformed);
  EXPECT_EQ(ParseDouble("0,25", &d), NumberParse::kMalformed);  // comma is never a
                                                                // decimal separator
  EXPECT_DOUBLE_EQ(d, 7.0);  // *out untouched on failure
}

TEST(ParseNumber, DoubleOutOfRangeDiagnosesInsteadOfThrowing) {
  double d = 7.0;
  EXPECT_EQ(ParseDouble("1e999", &d), NumberParse::kOutOfRange);
  EXPECT_EQ(ParseDouble("-1e999", &d), NumberParse::kOutOfRange);
  EXPECT_DOUBLE_EQ(d, 7.0);
}

TEST(ParseNumber, Int64) {
  int64_t v = 0;
  EXPECT_EQ(ParseInt64("-42", &v), NumberParse::kOk);
  EXPECT_EQ(v, -42);
  EXPECT_EQ(ParseInt64("+7", &v), NumberParse::kOk);
  EXPECT_EQ(v, 7);
  EXPECT_EQ(ParseInt64("9223372036854775807", &v), NumberParse::kOk);
  EXPECT_EQ(v, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseInt64("9223372036854775808", &v), NumberParse::kOutOfRange);
  EXPECT_EQ(ParseInt64("1.5", &v), NumberParse::kMalformed);
  EXPECT_EQ(ParseInt64("", &v), NumberParse::kMalformed);
}

TEST(ParseNumber, Uint64) {
  uint64_t v = 0;
  EXPECT_EQ(ParseUint64("18446744073709551615", &v), NumberParse::kOk);
  EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(ParseUint64("18446744073709551616", &v), NumberParse::kOutOfRange);
  EXPECT_EQ(ParseUint64("99999999999999999999", &v), NumberParse::kOutOfRange);
  EXPECT_EQ(ParseUint64("-1", &v), NumberParse::kMalformed);
}

TEST(ParseNumber, Messages) {
  EXPECT_STREQ(NumberParseMessage(NumberParse::kMalformed), "is not a number");
  EXPECT_STREQ(NumberParseMessage(NumberParse::kOutOfRange), "is out of range");
}

}  // namespace
}  // namespace espresso
