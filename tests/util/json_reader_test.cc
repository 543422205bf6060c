#include "src/util/json_reader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/util/json_writer.h"

namespace espresso {
namespace {

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null").value.IsNull());
  EXPECT_TRUE(ParseJson("true").value.bool_value);
  EXPECT_FALSE(ParseJson("false").value.bool_value);
  EXPECT_DOUBLE_EQ(ParseJson("-2.5e3").value.number, -2500.0);
  EXPECT_EQ(ParseJson("\"hi\\n\\\"there\\\"\"").value.text, "hi\n\"there\"");
}

TEST(JsonReader, ParsesNestedStructure) {
  const JsonParseResult r = ParseJson(R"({
    "a": [1, 2, {"b": true}],
    "c": {"d": null}
  })");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.value.IsObject());
  const JsonValue* a = r.value.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_TRUE(a->items[2].Find("b")->bool_value);
  EXPECT_TRUE(r.value.Find("c")->Find("d")->IsNull());
  EXPECT_EQ(r.value.Find("missing"), nullptr);
}

TEST(JsonReader, TracksLineNumbers) {
  const JsonParseResult r = ParseJson("{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.line, 1);
  EXPECT_EQ(r.value.Find("a")->line, 2);
  EXPECT_EQ(r.value.Find("b")->line, 3);
  EXPECT_EQ(r.value.Find("b")->items[0].line, 4);
}

TEST(JsonReader, Uint64RoundTripsExactly) {
  // 2^64 - 1 is not representable as a double; the raw-token read must be exact.
  uint64_t value = 0;
  ASSERT_TRUE(ParseJson("18446744073709551615").value.AsUint64(&value));
  EXPECT_EQ(value, 18446744073709551615ull);
  int64_t negative = 0;
  ASSERT_TRUE(ParseJson("-9223372036854775808").value.AsInt64(&negative));
  EXPECT_EQ(negative, INT64_MIN);
}

TEST(JsonReader, IntegerReadsRejectNonIntegers) {
  uint64_t value = 0;
  EXPECT_FALSE(ParseJson("1.5").value.AsUint64(&value));
  EXPECT_FALSE(ParseJson("-1").value.AsUint64(&value));
  EXPECT_FALSE(ParseJson("18446744073709551616").value.AsUint64(&value));  // 2^64
  EXPECT_FALSE(ParseJson("\"7\"").value.AsUint64(&value));
  int64_t signed_value = 0;
  EXPECT_FALSE(ParseJson("9223372036854775808").value.AsInt64(&signed_value));
}

TEST(JsonReader, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",           "{",           "[1,]",          "{\"a\":}",
      "{\"a\" 1}",  "[1 2]",       "tru",           "01",
      "+1",         "1.",          "\"unterminated", "{\"a\":1} trailing",
      "[1],",       "nan",         "\"bad\\x\"",    "{'a': 1}",
  };
  for (const char* text : bad) {
    const JsonParseResult r = ParseJson(text);
    EXPECT_FALSE(r.ok) << "accepted: " << text;
    EXPECT_FALSE(r.error.empty()) << text;
  }
}

TEST(JsonReader, RefusesRawControlBytesInStrings) {
  // RFC 8259 section 7: every byte below 0x20 inside a string must be escaped.
  for (const char raw : {'\t', '\r', '\x01', '\n'}) {
    const JsonParseResult r = ParseJson(std::string("\"a") + raw + "b\"");
    EXPECT_FALSE(r.ok) << "accepted raw byte " << static_cast<int>(raw);
    EXPECT_NE(r.error.find("control character"), std::string::npos) << r.error;
  }
  EXPECT_EQ(ParseJson(R"("a\tb")").value.text, "a\tb");
  EXPECT_EQ(ParseJson(R"("a\rb")").value.text, "a\rb");
  EXPECT_EQ(ParseJson(R"("a\u0001b")").value.text, std::string("a\x01" "b"));
}

TEST(JsonReader, ReadsBackEveryQuotedAsciiByte) {
  std::string all;
  for (int byte = 0; byte < 0x80; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    const JsonParseResult r = ParseJson(JsonQuoted(one));
    ASSERT_TRUE(r.ok) << "byte " << byte << ": " << r.error;
    EXPECT_EQ(r.value.text, one) << "byte " << byte;
    all += one;
  }
  EXPECT_EQ(ParseJson(JsonQuoted(all)).value.text, all);
}

TEST(JsonReader, ErrorsCiteTheLine) {
  const JsonParseResult r = ParseJson("{\n  \"a\": 1,\n  \"b\": tru\n}");
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
}

TEST(JsonReader, BoundsNestingDepth) {
  // 100 nested arrays exceeds the depth cap; the parser must diagnose, not overflow.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  const JsonParseResult r = ParseJson(deep);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("nest"), std::string::npos) << r.error;
}

TEST(JsonReader, KeepsDuplicateKeysInFileOrder) {
  // The DOM layer preserves duplicates (Find returns the first); schema layers that
  // must refuse duplicates (the strategy IR) do so themselves.
  const JsonParseResult r = ParseJson("{\"a\": 1, \"a\": 2}");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.value.members.size(), 2u);
  EXPECT_DOUBLE_EQ(r.value.Find("a")->number, 1.0);
}

}  // namespace
}  // namespace espresso
