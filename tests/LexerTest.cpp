//===- LexerTest.cpp ------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <gtest/gtest.h>

#include <iterator>
#include <utility>

using namespace kiss;
using namespace kiss::lang;

namespace {

std::vector<Token> lexAll(const std::string &Source,
                          DiagnosticEngine *DiagsOut = nullptr) {
  static SourceManager SM; // Buffers must outlive the returned tokens.
  DiagnosticEngine LocalDiags;
  DiagnosticEngine &Diags = DiagsOut ? *DiagsOut : LocalDiags;
  uint32_t Id = SM.addBuffer("lex.kiss", Source);
  Lexer L(SM, Id, Diags);
  std::vector<Token> Out;
  while (true) {
    Token T = L.next();
    Out.push_back(T);
    if (T.is(TokenKind::Eof))
      break;
  }
  return Out;
}

std::vector<TokenKind> kindsOf(const std::string &Source) {
  std::vector<TokenKind> Kinds;
  for (const Token &T : lexAll(Source))
    Kinds.push_back(T.Kind);
  Kinds.pop_back(); // Drop EOF.
  return Kinds;
}

TEST(LexerTest, Keywords) {
  auto Kinds = kindsOf("struct void bool int func true false null if else "
                       "while return assert assume atomic async choice or "
                       "iter skip new nondet_int nondet_bool");
  std::vector<TokenKind> Expected = {
      TokenKind::KwStruct, TokenKind::KwVoid,   TokenKind::KwBool,
      TokenKind::KwInt,    TokenKind::KwFunc,   TokenKind::KwTrue,
      TokenKind::KwFalse,  TokenKind::KwNull,   TokenKind::KwIf,
      TokenKind::KwElse,   TokenKind::KwWhile,  TokenKind::KwReturn,
      TokenKind::KwAssert, TokenKind::KwAssume, TokenKind::KwAtomic,
      TokenKind::KwAsync,  TokenKind::KwChoice, TokenKind::KwOr,
      TokenKind::KwIter,   TokenKind::KwSkip,   TokenKind::KwNew,
      TokenKind::KwNondetInt, TokenKind::KwNondetBool};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, Identifiers) {
  auto Toks = lexAll("foo _bar baz123 BCSP_PnpStop");
  ASSERT_EQ(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].Text, "foo");
  EXPECT_EQ(Toks[1].Text, "_bar");
  EXPECT_EQ(Toks[2].Text, "baz123");
  EXPECT_EQ(Toks[3].Text, "BCSP_PnpStop");
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Toks[I].Kind, TokenKind::Identifier);
}

TEST(LexerTest, IntegerLiterals) {
  auto Toks = lexAll("0 42 123456789");
  ASSERT_GE(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].IntValue, 0);
  EXPECT_EQ(Toks[1].IntValue, 42);
  EXPECT_EQ(Toks[2].IntValue, 123456789);
}

TEST(LexerTest, IntegerOverflowDiagnosed) {
  DiagnosticEngine Diags;
  lexAll("999999999999999999999999999999", &Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, Punctuation) {
  auto Kinds = kindsOf("( ) { } ; , * & && || -> = == != < <= > >= + - !");
  std::vector<TokenKind> Expected = {
      TokenKind::LParen,  TokenKind::RParen,    TokenKind::LBrace,
      TokenKind::RBrace,  TokenKind::Semi,      TokenKind::Comma,
      TokenKind::Star,    TokenKind::Amp,       TokenKind::AmpAmp,
      TokenKind::PipePipe, TokenKind::Arrow,    TokenKind::Assign,
      TokenKind::EqEq,    TokenKind::NotEq,     TokenKind::Less,
      TokenKind::LessEq,  TokenKind::Greater,   TokenKind::GreaterEq,
      TokenKind::Plus,    TokenKind::Minus,     TokenKind::Bang};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, MaximalMunchWithoutSpaces) {
  auto Kinds = kindsOf("a->b!=c==d&&e");
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::Arrow,      TokenKind::Identifier,
      TokenKind::NotEq,      TokenKind::Identifier, TokenKind::EqEq,
      TokenKind::Identifier, TokenKind::AmpAmp,     TokenKind::Identifier};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, LineComments) {
  auto Kinds = kindsOf("a // comment with * and { tokens\nb");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, BlockComments) {
  auto Kinds = kindsOf("a /* multi\nline\ncomment */ b");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, UnterminatedBlockCommentDiagnosed) {
  DiagnosticEngine Diags;
  lexAll("a /* never closed", &Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, UnexpectedCharacterDiagnosed) {
  DiagnosticEngine Diags;
  lexAll("a $ b", &Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, EveryKeywordLexesAsItself) {
  const std::pair<const char *, TokenKind> Keywords[] = {
      {"struct", TokenKind::KwStruct},
      {"void", TokenKind::KwVoid},
      {"bool", TokenKind::KwBool},
      {"int", TokenKind::KwInt},
      {"func", TokenKind::KwFunc},
      {"true", TokenKind::KwTrue},
      {"false", TokenKind::KwFalse},
      {"null", TokenKind::KwNull},
      {"if", TokenKind::KwIf},
      {"else", TokenKind::KwElse},
      {"while", TokenKind::KwWhile},
      {"return", TokenKind::KwReturn},
      {"assert", TokenKind::KwAssert},
      {"assume", TokenKind::KwAssume},
      {"atomic", TokenKind::KwAtomic},
      {"async", TokenKind::KwAsync},
      {"benign", TokenKind::KwBenign},
      {"choice", TokenKind::KwChoice},
      {"or", TokenKind::KwOr},
      {"iter", TokenKind::KwIter},
      {"skip", TokenKind::KwSkip},
      {"new", TokenKind::KwNew},
      {"nondet_int", TokenKind::KwNondetInt},
      {"nondet_bool", TokenKind::KwNondetBool},
  };
  EXPECT_EQ(std::size(Keywords), 24u);
  for (const auto &[Spelling, Kind] : Keywords) {
    auto Toks = lexAll(Spelling);
    ASSERT_EQ(Toks.size(), 2u) << Spelling;
    EXPECT_EQ(Toks[0].Kind, Kind) << Spelling;
    EXPECT_EQ(Toks[0].Text, Spelling);
  }
}

TEST(LexerTest, KeywordLookalikesAreIdentifiers) {
  for (const char *Word : {"ints", "iff", "nondet_int2", "Int", "_if"}) {
    auto Toks = lexAll(Word);
    ASSERT_EQ(Toks.size(), 2u) << Word;
    EXPECT_EQ(Toks[0].Kind, TokenKind::Identifier) << Word;
    EXPECT_EQ(Toks[0].Text, Word);
  }
}

/// Lexes \p Source and \returns its one diagnostic as "line:col: message".
std::string onlyDiagnostic(const std::string &Source) {
  SourceManager SM;
  DiagnosticEngine Diags;
  uint32_t Id = SM.addBuffer("bad.kiss", Source);
  Lexer L(SM, Id, Diags);
  while (!L.next().is(TokenKind::Eof)) {
  }
  if (Diags.getDiagnostics().size() != 1)
    return "expected one diagnostic, got " +
           std::to_string(Diags.getDiagnostics().size());
  const Diagnostic &D = Diags.getDiagnostics().front();
  PresumedLoc P = SM.getPresumedLoc(D.Loc);
  return std::to_string(P.Line) + ":" + std::to_string(P.Column) + ": " +
         D.Message;
}

TEST(LexerTest, HighByteDiagnosedAtItsLocation) {
  EXPECT_EQ(onlyDiagnostic("a\n  b \x80 c"),
            "2:5: unexpected character '\x80'");
}

TEST(LexerTest, LoneDollarDiagnosedAtItsLocation) {
  EXPECT_EQ(onlyDiagnostic("x = 1;\ny $ z"), "2:3: unexpected character '$'");
}

TEST(LexerTest, LocationsTrackLinesAndColumns) {
  SourceManager SM;
  DiagnosticEngine Diags;
  uint32_t Id = SM.addBuffer("loc.kiss", "ab\n  cd\n");
  Lexer L(SM, Id, Diags);
  Token A = L.next();
  Token C = L.next();
  PresumedLoc PA = SM.getPresumedLoc(A.Loc);
  PresumedLoc PC = SM.getPresumedLoc(C.Loc);
  EXPECT_EQ(PA.Line, 1u);
  EXPECT_EQ(PA.Column, 1u);
  EXPECT_EQ(PC.Line, 2u);
  EXPECT_EQ(PC.Column, 3u);
}

} // namespace
