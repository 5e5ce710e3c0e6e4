#include "util/json.h"

#include <gtest/gtest.h>

namespace coursenav {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_EQ(*JsonValue::Parse("true")->GetBool(), true);
  EXPECT_EQ(*JsonValue::Parse("false")->GetBool(), false);
  EXPECT_DOUBLE_EQ(*JsonValue::Parse("3.25")->GetNumber(), 3.25);
  EXPECT_EQ(*JsonValue::Parse("-17")->GetInt(), -17);
  EXPECT_EQ(*JsonValue::Parse("\"hi\"")->GetString(), "hi");
}

TEST(JsonParseTest, NestedStructures) {
  auto doc = JsonValue::Parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->is_object());
  auto a = doc->Get("a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(*a->array()[0].GetInt(), 1);
  EXPECT_EQ(*a->array()[2].Get("b")->GetBool(), true);
  EXPECT_EQ(*doc->Get("c")->GetString(), "x");
}

TEST(JsonParseTest, StringEscapes) {
  auto v = JsonValue::Parse(R"("a\"b\\c\nd\tA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v->GetString(), "a\"b\\c\nd\tA");
}

TEST(JsonParseTest, UnicodeEscapeToUtf8) {
  auto v = JsonValue::Parse(R"("é")");  // é
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v->GetString(), "\xc3\xa9");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("trulse").ok());
  EXPECT_FALSE(JsonValue::Parse("{1: 2}").ok());
  EXPECT_FALSE(JsonValue::Parse("[1] extra").ok());
  EXPECT_FALSE(JsonValue::Parse(R"("\q")").ok());
}

TEST(JsonParseTest, NestingIsCappedAt256Levels) {
  auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(JsonValue::Parse(nested(256)).ok());
  auto too_deep = JsonValue::Parse(nested(257));
  EXPECT_TRUE(too_deep.status().IsParseError()) << too_deep.status().ToString();
  auto mixed = JsonValue::Parse(std::string(200, '[') + std::string(100, '{'));
  EXPECT_TRUE(mixed.status().IsParseError()) << mixed.status().ToString();
}

TEST(JsonParseTest, HundredThousandOpenBracketsAreAParseError) {
  // Deep enough to overflow the stack if the parser recursed without a cap.
  auto parsed = JsonValue::Parse(std::string(100'000, '['));
  EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status().ToString();
}

TEST(JsonParseTest, WhitespaceTolerated) {
  auto v = JsonValue::Parse("  {\n \"a\" :\t1 }  ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v->Get("a")->GetInt(), 1);
}

TEST(JsonAccessTest, TypeMismatchErrors) {
  JsonValue num(3.5);
  EXPECT_FALSE(num.GetBool().ok());
  EXPECT_FALSE(num.GetString().ok());
  EXPECT_FALSE(num.GetInt().ok());  // non-integral
  EXPECT_FALSE(num.Get("key").ok());
  EXPECT_FALSE(num.Has("key"));
}

TEST(JsonAccessTest, MissingKeyIsNotFound) {
  auto doc = JsonValue::Parse(R"({"a": 1})");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->Get("b").status().IsNotFound());
  EXPECT_TRUE(doc->Has("a"));
}

TEST(JsonDumpTest, CompactRoundTrip) {
  const char* text = R"({"arr":[1,2.5,"x"],"nested":{"t":true},"z":null})";
  auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.ok());
  std::string dumped = doc->Dump();
  auto reparsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(), dumped);
}

TEST(JsonDumpTest, EscapesControlCharacters) {
  JsonValue v(std::string("a\nb\x01"));
  EXPECT_EQ(v.Dump(), "\"a\\nb\\u0001\"");
}

TEST(JsonDumpTest, IntegersPrintWithoutDecimal) {
  JsonValue v(static_cast<int64_t>(41556657));
  EXPECT_EQ(v.Dump(), "41556657");
}

TEST(JsonDumpTest, PrettyPrintIndents) {
  JsonValue::Object obj;
  obj["a"] = JsonValue(1);
  std::string pretty = JsonValue(std::move(obj)).Dump(2);
  EXPECT_EQ(pretty, "{\n  \"a\": 1\n}");
}

TEST(JsonDumpTest, ObjectKeysSorted) {
  auto doc = JsonValue::Parse(R"({"b":1,"a":2})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Dump(), R"({"a":2,"b":1})");
}

TEST(JsonEscapeTest, QuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("a\"b\\"), "\"a\\\"b\\\\\"");
}

}  // namespace
}  // namespace coursenav
