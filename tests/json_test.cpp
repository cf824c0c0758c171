#include <gtest/gtest.h>

#include <cmath>

#include "util/json.h"

namespace autodml::util {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, WhitespaceTolerant) {
  const JsonValue v = parse_json("  {\n\t\"a\" : [ 1 , 2 ] }  ");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(JsonParse, NestedStructures) {
  const JsonValue v = parse_json(
      R"({"name":"run","tags":["a","b"],"meta":{"depth":2,"ok":true}})");
  EXPECT_EQ(v.at("name").as_string(), "run");
  EXPECT_EQ(v.at("tags").as_array()[1].as_string(), "b");
  EXPECT_DOUBLE_EQ(v.at("meta").at("depth").as_number(), 2.0);
  EXPECT_TRUE(v.at("meta").at("ok").as_bool());
}

TEST(JsonParse, StringEscapes) {
  const JsonValue v = parse_json(R"("line\nquote\"tab\tslash\\u:A")");
  EXPECT_EQ(v.as_string(), "line\nquote\"tab\tslash\\u:A");
}

TEST(JsonParse, UnicodeEscapeToUtf8) {
  EXPECT_EQ(parse_json(R"("é")").as_string(), "\xc3\xa9");  // é
  EXPECT_EQ(parse_json(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse_json("[]").as_array().empty());
  EXPECT_TRUE(parse_json("{}").as_object().empty());
}

TEST(JsonParse, Errors) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "\"open", "{\"a\":}", "1 2", "{'a':1}",
        "[1,]x", "nul", "--3", "\"\\u00g1\""}) {
    EXPECT_THROW(parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, NestingDepthIsBounded) {
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const auto objects = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += R"({"a":)";
    return text + "1" + std::string(static_cast<std::size_t>(depth), '}');
  };
  EXPECT_NO_THROW(parse_json(arrays(kMaxJsonDepth)));
  EXPECT_NO_THROW(parse_json(objects(kMaxJsonDepth)));
  EXPECT_THROW(parse_json(arrays(kMaxJsonDepth + 1)), std::invalid_argument);
  EXPECT_THROW(parse_json(objects(kMaxJsonDepth + 1)), std::invalid_argument);
  // The frame that overflowed the stack before the limit existed: ~50 KB
  // of unclosed brackets must fail cleanly, not crash.
  const std::string hostile =
      R"({"op":"ping","id":1,"x":)" + std::string(50000, '[');
  EXPECT_THROW(parse_json(hostile), std::invalid_argument);
}

TEST(JsonParse, DepthErrorIsTyped) {
  // Too deep is a JsonDepthError (still an std::invalid_argument); other
  // malformed input, however deep, is not.
  const std::string deep(static_cast<std::size_t>(kMaxJsonDepth) + 1, '[');
  EXPECT_THROW(parse_json(deep), JsonDepthError);
  try {
    parse_json(std::string(10, '[') + "1,]" + std::string(9, ']'));
    ADD_FAILURE() << "malformed input parsed";
  } catch (const JsonDepthError&) {
    ADD_FAILURE() << "shallow syntax error reported as too deep";
  } catch (const std::invalid_argument&) {
  }
}

TEST(JsonParse, TrailingGarbageRejected) {
  EXPECT_THROW(parse_json("{} {}"), std::invalid_argument);
}

TEST(JsonDump, CompactRoundTrip) {
  const char* doc =
      R"({"a":[1,2.5,true,null],"b":{"c":"x"},"d":false})";
  const JsonValue v = parse_json(doc);
  const JsonValue again = parse_json(dump_json(v));
  EXPECT_EQ(v, again);
}

TEST(JsonDump, PrettyRoundTrip) {
  const JsonValue v = parse_json(R"({"k":[{"n":1},{"n":2}],"s":"v"})");
  const std::string pretty = dump_json(v, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse_json(pretty), v);
}

TEST(JsonDump, IntegersPrintWithoutFraction) {
  EXPECT_EQ(dump_json(JsonValue(7.0)), "7");
  EXPECT_EQ(dump_json(JsonValue(-12345.0)), "-12345");
  EXPECT_EQ(dump_json(JsonValue(0.5)), "0.5");
}

TEST(JsonDump, LargeDoublesRoundTripExactly) {
  const double x = 1.2345678901234567e-12;
  EXPECT_DOUBLE_EQ(parse_json(dump_json(JsonValue(x))).as_number(), x);
}

TEST(JsonDump, StringsEscaped) {
  EXPECT_EQ(dump_json(JsonValue("a\"b\\c\nd")), R"("a\"b\\c\nd")");
}

TEST(JsonValueApi, AtAndContains) {
  const JsonValue v = parse_json(R"({"x":1})");
  EXPECT_TRUE(v.contains("x"));
  EXPECT_FALSE(v.contains("y"));
  EXPECT_THROW(v.at("y"), std::out_of_range);
  EXPECT_FALSE(parse_json("3").contains("x"));
}

TEST(JsonValueApi, TypeMismatchThrows) {
  const JsonValue v = parse_json("\"str\"");
  EXPECT_THROW(v.as_number(), std::bad_variant_access);
  EXPECT_THROW(v.as_array(), std::bad_variant_access);
}

}  // namespace
}  // namespace autodml::util
