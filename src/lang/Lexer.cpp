//===- Lexer.cpp ----------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <array>
#include <iterator>

using namespace kiss;
using namespace kiss::lang;

const char *kiss::lang::getTokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of file";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwStruct:
    return "'struct'";
  case TokenKind::KwVoid:
    return "'void'";
  case TokenKind::KwBool:
    return "'bool'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwFunc:
    return "'func'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwNull:
    return "'null'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwAssert:
    return "'assert'";
  case TokenKind::KwAssume:
    return "'assume'";
  case TokenKind::KwAtomic:
    return "'atomic'";
  case TokenKind::KwAsync:
    return "'async'";
  case TokenKind::KwBenign:
    return "'benign'";
  case TokenKind::KwChoice:
    return "'choice'";
  case TokenKind::KwOr:
    return "'or'";
  case TokenKind::KwIter:
    return "'iter'";
  case TokenKind::KwSkip:
    return "'skip'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwNondetInt:
    return "'nondet_int'";
  case TokenKind::KwNondetBool:
    return "'nondet_bool'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Amp:
    return "'&'";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Bang:
    return "'!'";
  case TokenKind::Unknown:
    return "unknown token";
  }
  return "<?>";
}

namespace {

/// Character classes of the bytes the lexer dispatches on. Only ASCII
/// bytes have one, exactly as under <cctype> in the "C" locale, so a byte
/// >= 0x80 is an unexpected character.
enum : uint8_t {
  CharSpace = 1,      ///< ' ', '\t', '\n', '\v', '\f', '\r'.
  CharDigit = 2,      ///< '0'-'9'.
  CharIdentStart = 4, ///< Letters and '_'.
  CharIdent = CharDigit | CharIdentStart,
};

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> T{};
  for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[static_cast<unsigned char>(C)] = CharSpace;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = CharDigit;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = CharIdentStart;
  T['_'] = CharIdentStart;
  return T;
}

constexpr std::array<uint8_t, 256> CharClasses = makeCharClasses();

bool hasClass(char C, uint8_t Mask) {
  return CharClasses[static_cast<unsigned char>(C)] & Mask;
}

struct Keyword {
  std::string_view Spelling;
  TokenKind Kind;
};

/// The keywords, ordered by length so that the candidates for a word are
/// one contiguous run.
constexpr Keyword Keywords[] = {
    {"if", TokenKind::KwIf},
    {"or", TokenKind::KwOr},
    {"int", TokenKind::KwInt},
    {"new", TokenKind::KwNew},
    {"void", TokenKind::KwVoid},
    {"bool", TokenKind::KwBool},
    {"func", TokenKind::KwFunc},
    {"true", TokenKind::KwTrue},
    {"null", TokenKind::KwNull},
    {"else", TokenKind::KwElse},
    {"iter", TokenKind::KwIter},
    {"skip", TokenKind::KwSkip},
    {"false", TokenKind::KwFalse},
    {"while", TokenKind::KwWhile},
    {"async", TokenKind::KwAsync},
    {"struct", TokenKind::KwStruct},
    {"return", TokenKind::KwReturn},
    {"assert", TokenKind::KwAssert},
    {"assume", TokenKind::KwAssume},
    {"atomic", TokenKind::KwAtomic},
    {"benign", TokenKind::KwBenign},
    {"choice", TokenKind::KwChoice},
    {"nondet_int", TokenKind::KwNondetInt},
    {"nondet_bool", TokenKind::KwNondetBool},
};

static_assert(std::size(Keywords) == 24, "one entry per keyword token");

constexpr size_t MaxKeywordLength = 11;

/// KeywordStart[L] .. KeywordStart[L + 1] are the keywords of length L.
constexpr std::array<uint8_t, MaxKeywordLength + 2> makeKeywordStarts() {
  std::array<uint8_t, MaxKeywordLength + 2> Starts{};
  for (size_t L = 0; L != Starts.size(); ++L) {
    uint8_t I = 0;
    while (I != std::size(Keywords) && Keywords[I].Spelling.size() < L)
      ++I;
    Starts[L] = I;
  }
  return Starts;
}

constexpr std::array<uint8_t, MaxKeywordLength + 2> KeywordStart =
    makeKeywordStarts();

TokenKind classifyWord(std::string_view Word) {
  if (Word.size() > MaxKeywordLength)
    return TokenKind::Identifier;
  for (unsigned I = KeywordStart[Word.size()],
                E = KeywordStart[Word.size() + 1];
       I != E; ++I)
    if (Keywords[I].Spelling == Word)
      return Keywords[I].Kind;
  return TokenKind::Identifier;
}

} // namespace

Lexer::Lexer(const SourceManager &SM, uint32_t BufferId,
             DiagnosticEngine &Diags)
    : Text(SM.getBufferText(BufferId)), BufferId(BufferId), Diags(Diags) {}

char Lexer::peek(unsigned LookAhead) const {
  return Pos + LookAhead < Text.size() ? Text[Pos + LookAhead] : '\0';
}

char Lexer::advance() {
  char C = peek();
  ++Pos;
  return C;
}

SourceLoc Lexer::locAt(uint32_t Offset) const {
  return SourceLoc(BufferId, Offset);
}

void Lexer::skipTrivia() {
  while (!atEnd()) {
    char C = peek();
    if (hasClass(C, CharSpace)) {
      ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      uint32_t Begin = Pos;
      Pos += 2;
      while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
        ++Pos;
      if (atEnd()) {
        Diags.error(locAt(Begin), "unterminated block comment");
        return;
      }
      Pos += 2;
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokenKind Kind, uint32_t Begin) {
  Token T;
  T.Kind = Kind;
  T.Loc = locAt(Begin);
  T.Text = Text.substr(Begin, Pos - Begin);
  return T;
}

Token Lexer::lexIdentifierOrKeyword() {
  uint32_t Begin = Pos;
  while (!atEnd() && hasClass(Text[Pos], CharIdent))
    ++Pos;
  return makeToken(classifyWord(Text.substr(Begin, Pos - Begin)), Begin);
}

Token Lexer::lexNumber() {
  uint32_t Begin = Pos;
  int64_t Value = 0;
  bool Overflow = false;
  while (!atEnd() && hasClass(peek(), CharDigit)) {
    int Digit = advance() - '0';
    if (Value > (INT64_MAX - Digit) / 10)
      Overflow = true;
    else
      Value = Value * 10 + Digit;
  }
  if (Overflow)
    Diags.error(locAt(Begin), "integer literal too large");
  Token T = makeToken(TokenKind::IntLiteral, Begin);
  T.IntValue = Value;
  return T;
}

Token Lexer::next() {
  skipTrivia();
  if (atEnd())
    return makeToken(TokenKind::Eof, Pos);

  uint32_t Begin = Pos;
  char C = peek();

  if (hasClass(C, CharIdentStart))
    return lexIdentifierOrKeyword();
  if (hasClass(C, CharDigit))
    return lexNumber();

  ++Pos;
  switch (C) {
  case '(':
    return makeToken(TokenKind::LParen, Begin);
  case ')':
    return makeToken(TokenKind::RParen, Begin);
  case '{':
    return makeToken(TokenKind::LBrace, Begin);
  case '}':
    return makeToken(TokenKind::RBrace, Begin);
  case ';':
    return makeToken(TokenKind::Semi, Begin);
  case ',':
    return makeToken(TokenKind::Comma, Begin);
  case '*':
    return makeToken(TokenKind::Star, Begin);
  case '+':
    return makeToken(TokenKind::Plus, Begin);
  case '&':
    if (peek() == '&') {
      ++Pos;
      return makeToken(TokenKind::AmpAmp, Begin);
    }
    return makeToken(TokenKind::Amp, Begin);
  case '|':
    if (peek() == '|') {
      ++Pos;
      return makeToken(TokenKind::PipePipe, Begin);
    }
    break;
  case '-':
    if (peek() == '>') {
      ++Pos;
      return makeToken(TokenKind::Arrow, Begin);
    }
    return makeToken(TokenKind::Minus, Begin);
  case '=':
    if (peek() == '=') {
      ++Pos;
      return makeToken(TokenKind::EqEq, Begin);
    }
    return makeToken(TokenKind::Assign, Begin);
  case '!':
    if (peek() == '=') {
      ++Pos;
      return makeToken(TokenKind::NotEq, Begin);
    }
    return makeToken(TokenKind::Bang, Begin);
  case '<':
    if (peek() == '=') {
      ++Pos;
      return makeToken(TokenKind::LessEq, Begin);
    }
    return makeToken(TokenKind::Less, Begin);
  case '>':
    if (peek() == '=') {
      ++Pos;
      return makeToken(TokenKind::GreaterEq, Begin);
    }
    return makeToken(TokenKind::Greater, Begin);
  default:
    break;
  }

  Diags.error(locAt(Begin), std::string("unexpected character '") + C + "'");
  return makeToken(TokenKind::Unknown, Begin);
}
