//===- JsonTest.cpp - The support JSON parser ----------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
//
// The recursive-descent parser behind kisscheck --config and the kissd
// wire protocol: value kinds, key/value source positions (the hook for
// file:line:col config diagnostics), located errors, raw number
// preservation, and the quote() escaping twin.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "gtest/gtest.h"

#include <random>

using namespace kiss;

namespace {

json::Value parseOk(std::string_view Text) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, "t.json", V, Error)) << Error;
  return V;
}

std::string parseErr(std::string_view Text) {
  json::Value V;
  std::string Error;
  EXPECT_FALSE(json::parse(Text, "t.json", V, Error));
  return Error;
}

TEST(Json, Scalars) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").asBool());
  EXPECT_FALSE(parseOk("false").asBool());
  EXPECT_EQ(parseOk("\"hi\\n\"").asString(), "hi\n");
  EXPECT_EQ(parseOk("  42 ").asDouble(), 42.0);
  EXPECT_EQ(parseOk("-1.5e2").asDouble(), -150.0);
}

TEST(Json, RawNumberPreserved) {
  // Integer consumers re-parse the token text, immune to double rounding.
  EXPECT_EQ(parseOk("18446744073709551615").rawNumber(),
            "18446744073709551615");
  uint64_t N = 0;
  EXPECT_TRUE(parseOk("18446744073709551615").asU64(N));
  EXPECT_EQ(N, 18446744073709551615ull);
  EXPECT_FALSE(parseOk("18446744073709551616").asU64(N)); // overflow
  EXPECT_FALSE(parseOk("-3").asU64(N));                   // negative
  EXPECT_FALSE(parseOk("2.0").asU64(N));                  // fraction
  EXPECT_FALSE(parseOk("1e3").asU64(N));                  // exponent
}

TEST(Json, ObjectKeepsOrderAndPositions) {
  json::Value V = parseOk("{\n  \"a\": 1,\n  \"b\": [true, null]\n}");
  ASSERT_TRUE(V.isObject());
  ASSERT_EQ(V.members().size(), 2u);
  EXPECT_EQ(V.members()[0].Key, "a");
  EXPECT_EQ(V.members()[0].KeyLine, 2u);
  EXPECT_EQ(V.members()[0].KeyCol, 3u);
  EXPECT_EQ(V.members()[1].Key, "b");
  EXPECT_EQ(V.members()[1].KeyLine, 3u);
  const json::Value *B = V.find("b");
  ASSERT_NE(B, nullptr);
  ASSERT_TRUE(B->isArray());
  ASSERT_EQ(B->items().size(), 2u);
  EXPECT_TRUE(B->items()[0].asBool());
  EXPECT_TRUE(B->items()[1].isNull());
  EXPECT_EQ(V.find("missing"), nullptr);
  // The value position points at the value, not the key.
  EXPECT_EQ(V.memberValue(V.members()[0]).line(), 2u);
  EXPECT_EQ(V.memberValue(V.members()[0]).col(), 8u);
}

TEST(Json, ErrorsAreLocated) {
  EXPECT_EQ(parseErr(""), "t.json:1:1: unexpected end of input");
  EXPECT_EQ(parseErr("{\"a\": }"), "t.json:1:7: unexpected character");
  EXPECT_EQ(parseErr("{\"a\": 1,}"), "t.json:1:9: expected '\"'");
  EXPECT_EQ(parseErr("[1 2]"), "t.json:1:4: expected ',' or ']'");
  EXPECT_EQ(parseErr("{\n \"a\" 1}"), "t.json:2:6: expected ':'");
  EXPECT_EQ(parseErr("1 2"), "t.json:1:3: trailing characters after JSON value");
  EXPECT_EQ(parseErr("01"), "t.json:1:2: leading zero in number");
  EXPECT_EQ(parseErr("\"ab"), "t.json:1:4: unterminated string");
  EXPECT_EQ(parseErr("\"\\q\""), "t.json:1:4: invalid escape character");
}

TEST(Json, ErrorsAfterLongStringRunsAreLocated) {
  // A string's plain bytes are scanned as runs; every error position
  // must still count each byte as one column.
  const std::string Run(300, 'a');
  EXPECT_EQ(parseErr("\"" + Run + "\x01\""),
            "t.json:1:303: unescaped control character in string");
  // A raw newline is the control byte that also starts a line.
  EXPECT_EQ(parseErr("\"" + Run + "\n\""),
            "t.json:2:1: unescaped control character in string");
  EXPECT_EQ(parseErr("\"" + Run + "\\q\""),
            "t.json:1:304: invalid escape character");
  EXPECT_EQ(parseErr("\"" + Run + "\\u00g0\""),
            "t.json:1:307: invalid hex digit in \\u escape");
  EXPECT_EQ(parseErr("\"" + Run + "\\u00e9\""),
            "t.json:1:308: non-ASCII \\u escape unsupported (use raw UTF-8)");
  EXPECT_EQ(parseErr("\"" + Run), "t.json:1:302: unterminated string");
  EXPECT_EQ(parseErr("\"" + Run + "\\"), "t.json:1:303: unterminated string");
  EXPECT_EQ(parseErr("\"" + Run + "\\u00"),
            "t.json:1:306: unterminated \\u escape");
  // Runs on either side of escapes, and UTF-8 bytes (one column each).
  EXPECT_EQ(parseErr("[\n\n \"" + Run + "\\n" + Run + "caf\xc3\xa9\" x]"),
            "t.json:3:612: expected ',' or ']'");
}

TEST(Json, PositionsAfterLongStrings) {
  const std::string Run(1000, 'x');
  json::Value V = parseOk("{\"k\": \"" + Run + "\", \"v\": 7,\n  \"" + Run +
                          "\\t\\u0041caf\xc3\xa9\": [\"" + Run +
                          "\", true]}");
  ASSERT_TRUE(V.isObject());
  ASSERT_EQ(V.members().size(), 3u);
  const json::Member &K = V.members()[0], &Num = V.members()[1],
                     &Long = V.members()[2];
  EXPECT_EQ(V.memberValue(K).asString(), Run);
  EXPECT_EQ(V.memberValue(K).line(), 1u);
  EXPECT_EQ(V.memberValue(K).col(), 7u);
  EXPECT_EQ(Num.KeyLine, 1u);
  EXPECT_EQ(Num.KeyCol, 1011u);
  EXPECT_EQ(V.memberValue(Num).col(), 1016u);
  EXPECT_EQ(Long.Key, Run + "\tAcaf\xc3\xa9");
  EXPECT_EQ(Long.KeyLine, 2u);
  EXPECT_EQ(Long.KeyCol, 3u);
  const json::Value &Arr = V.memberValue(Long);
  EXPECT_EQ(Arr.line(), 2u);
  EXPECT_EQ(Arr.col(), 1020u);
  ASSERT_EQ(Arr.items().size(), 2u);
  EXPECT_EQ(Arr.items()[0].col(), 1021u);
  EXPECT_EQ(Arr.items()[1].line(), 2u);
  EXPECT_EQ(Arr.items()[1].col(), 2025u);
}

TEST(Json, DepthBounded) {
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  std::string E = parseErr(Deep);
  EXPECT_NE(E.find("nesting too deep"), std::string::npos) << E;
}

TEST(Json, QuoteEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json::quote("plain text"), "\"plain text\"");
  EXPECT_EQ(json::quote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(json::quote("C:\\path\\file"), "\"C:\\\\path\\\\file\"");
  EXPECT_EQ(json::quote("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
  EXPECT_EQ(json::quote("\b\f"), "\"\\b\\f\"");
  // Control characters without a short escape get the \u00xx form.
  EXPECT_EQ(json::quote(std::string_view("\x01\x1f", 2)),
            "\"\\u0001\\u001f\"");
  // NUL must not truncate the string.
  EXPECT_EQ(json::quote(std::string_view("a\0b", 3)), "\"a\\u0000b\"");
  // Bytes >= 0x20 (including UTF-8 continuation bytes) pass through.
  EXPECT_EQ(json::quote("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
}

TEST(Json, QuoteRoundTrips) {
  std::string EveryControlByte;
  for (int C = 0; C != 0x20; ++C)
    EveryControlByte.push_back(static_cast<char>(C));
  for (const std::string &Hostile :
       {std::string("a\"b\\c\nd\te\x01"),
        EveryControlByte + "\"\\/ caf\xc3\xa9"}) {
    json::Value V;
    std::string Error;
    ASSERT_TRUE(json::parse(json::quote(Hostile), "q", V, Error)) << Error;
    EXPECT_EQ(V.asString(), Hostile);
  }
  // Long strings with bytes that need escapes at random offsets, so the
  // parser's plain runs start and stop everywhere, UTF-8 bytes included.
  std::mt19937 Rng(2004);
  const std::string Special = EveryControlByte + "\"\\/\xc3\xa9\x7f";
  for (unsigned Case = 0; Case != 200; ++Case) {
    std::string Long(Rng() % 4096, 'x');
    for (char &C : Long)
      C = static_cast<char>(' ' + Rng() % 95);
    for (unsigned N = Rng() % 16; N; --N)
      if (!Long.empty())
        Long[Rng() % Long.size()] = Special[Rng() % Special.size()];
    json::Value V;
    std::string Error;
    ASSERT_TRUE(json::parse(json::quote(Long), "q", V, Error)) << Error;
    EXPECT_EQ(V.asString(), Long) << "case " << Case;
  }
}

} // namespace
