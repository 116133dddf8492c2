#include "util/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/status.h"

namespace gva {
namespace {

TEST(ParseJsonTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->as_bool());
  EXPECT_FALSE(ParseJson("false")->as_bool());
  EXPECT_DOUBLE_EQ(ParseJson("42")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-3.25e2")->as_number(), -325.0);
  EXPECT_EQ(ParseJson("\"hi\"")->as_string(), "hi");
}

TEST(ParseJsonTest, ParsesNestedStructures) {
  auto doc = ParseJson(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  const JsonValue* b = a->items()[2].Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->as_bool());
  EXPECT_EQ(doc->Find("c")->as_string(), "x");
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(ParseJsonTest, ObjectMembersKeepInsertionOrder) {
  auto doc = ParseJson(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->members().size(), 3u);
  EXPECT_EQ(doc->members()[0].first, "z");
  EXPECT_EQ(doc->members()[1].first, "a");
  EXPECT_EQ(doc->members()[2].first, "m");
}

TEST(ParseJsonTest, DecodesEscapes) {
  auto doc = ParseJson(R"("line\n\t\"q\" \\ \u0041 \u00e9 \ud83d\ude00")");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->as_string(), "line\n\t\"q\" \\ A \xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());          // trailing comma
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());     // missing colon
  EXPECT_FALSE(ParseJson("1 2").ok());           // trailing garbage
  EXPECT_FALSE(ParseJson("'single'").ok());      // wrong quotes
  EXPECT_FALSE(ParseJson("{a: 1}").ok());        // unquoted key
  EXPECT_FALSE(ParseJson("// comment\n1").ok()); // comments
  EXPECT_FALSE(ParseJson("\"\\ud83d\"").ok());   // lone surrogate
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("[1e999]").ok());       // overflows to +inf
  EXPECT_FALSE(ParseJson("-1e999").ok());        // overflows to -inf
  for (const char* bad : {"{", "[1,]", "1 2", "[1e999]", "-1e999"}) {
    EXPECT_EQ(ParseJson(bad).status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ParseJsonTest, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep.append(100, ']');
  auto doc = ParseJson(deep);
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);

  // 32 levels is comfortably inside the cap.
  std::string ok(32, '[');
  ok += "1";
  ok.append(32, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
}

TEST(ParseJsonTest, ReportsByteOffsetInErrors) {
  auto doc = ParseJson("[1, 2, oops]");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().ToString().find("7"), std::string::npos)
      << doc.status().ToString();
}

TEST(ParseJsonTest, NumbersKeepStrtodRangeRules) {
  // Underflow is accepted: to zero past the subnormals, exactly within them.
  auto tiny = ParseJson("1e-400");
  ASSERT_TRUE(tiny.ok()) << tiny.status();
  EXPECT_EQ(tiny->as_number(), 0.0);
  auto subnormal = ParseJson("4.9e-324");
  ASSERT_TRUE(subnormal.ok()) << subnormal.status();
  EXPECT_EQ(subnormal->as_number(), std::numeric_limits<double>::denorm_min());
  // Overflow is not.
  EXPECT_FALSE(ParseJson("1e309").ok());
  EXPECT_FALSE(ParseJson("-1e309").ok());
  EXPECT_FALSE(ParseJson("[1, 1e309]").ok());
  auto negative_zero = ParseJson("-0");
  ASSERT_TRUE(negative_zero.ok());
  EXPECT_EQ(negative_zero->as_number(), 0.0);
  EXPECT_TRUE(std::signbit(negative_zero->as_number()));
}

TEST(ParseJsonTest, NumbersParseToTheBitsStrtodGives) {
  // 17 significant digits, as serverd bodies carry them, over magnitudes
  // from subnormal to near the top of the range.
  Rng rng(2024);
  for (int i = 0; i < 10000; ++i) {
    const double mantissa = rng.UniformDouble() * 2.0 - 1.0;
    const int exponent = static_cast<int>(rng.UniformInRange(-320, 305));
    const double x = mantissa * std::pow(10.0, exponent);
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", x);
    const double expected = std::strtod(text, nullptr);
    auto parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    uint64_t got_bits = 0;
    uint64_t expected_bits = 0;
    const double got = parsed->as_number();
    std::memcpy(&got_bits, &got, sizeof(got));
    std::memcpy(&expected_bits, &expected, sizeof(expected));
    EXPECT_EQ(got_bits, expected_bits) << text;
  }
}

TEST(JsonDumpTest, RoundTripIsBitExactForDoubles) {
  // The server's result JSON must reparse to the exact double the detector
  // produced — %.17g guarantees it.
  const double values[] = {0.0, 1.0 / 3.0, 1e-300, 6.0891742720344588,
                           -14.573329369448601};
  for (const double v : values) {
    JsonValue num = JsonValue::Number(v);
    auto back = ParseJson(num.Dump());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->as_number(), v) << num.Dump();
  }
}

TEST(JsonDumpTest, DumpsCompactDocument) {
  JsonValue obj = JsonValue::Object();
  obj.Set("id", JsonValue::Number(7));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::String("a\"b"));
  arr.Append(JsonValue::Bool(true));
  arr.Append(JsonValue::Null());
  obj.Set("items", std::move(arr));
  EXPECT_EQ(obj.Dump(), R"({"id":7,"items":["a\"b",true,null]})");
}

TEST(JsonDumpTest, NonFiniteNumbersRenderAsNull) {
  EXPECT_EQ(JsonValue::Number(std::nan("")).Dump(), "null");
  EXPECT_EQ(JsonValue::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonEscapeTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape(std::string("\x01\n", 2)), "\\u0001\\n");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

}  // namespace
}  // namespace gva
