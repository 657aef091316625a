//===- Json.cpp - Minimal JSON parsing with located diagnostics -----------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace kiss::json {

bool Value::asU64(uint64_t &Out) const {
  if (K != Kind::Number || Raw.empty())
    return false;
  // Integers only: reject sign, fraction, and exponent syntactically so
  // "1e3" and "2.0" don't silently pass as 1000 and 2.
  for (char C : Raw)
    if (C < '0' || C > '9')
      return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Raw.c_str(), &End, 10);
  if (errno == ERANGE || End != Raw.c_str() + Raw.size())
    return false;
  Out = V;
  return true;
}

const Value *Value::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const Member &M : Mems)
    if (M.Key == Key)
      return &Items[M.ValueIndex];
  return nullptr;
}

// At namespace scope (not anonymous) so Value's friend declaration finds it.
class Parser {
public:
  Parser(std::string_view Text, std::string_view Name)
      : Text(Text), Name(Name) {}

  bool run(Value &Out, std::string &Error) {
    skipWs();
    if (!parseValue(Out))
      return fail(Error);
    skipWs();
    if (Pos != Text.size()) {
      setError("trailing characters after JSON value");
      return fail(Error);
    }
    return true;
  }

private:
  std::string_view Text;
  std::string_view Name;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
  std::string Msg;
  uint32_t ErrLine = 1;
  uint32_t ErrCol = 1;
  // Generous nesting cap: deep enough for any real config/request, shallow
  // enough that hostile input can't blow the parser's own stack.
  unsigned Depth = 0;
  static constexpr unsigned MaxDepth = 64;

  bool fail(std::string &Error) {
    if (Msg.empty())
      return true;
    Error = std::string(Name) + ":" + std::to_string(ErrLine) + ":" +
            std::to_string(ErrCol) + ": " + Msg;
    return false;
  }

  void setError(std::string M) {
    if (!Msg.empty())
      return;
    Msg = std::move(M);
    ErrLine = Line;
    ErrCol = Col;
  }

  bool eof() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  /// A string byte copied as is: not a quote, a backslash or a control
  /// byte (UTF-8 bytes are plain).
  static bool isPlain(char C) {
    return static_cast<unsigned char>(C) >= 0x20 && C != '"' && C != '\\';
  }

  char advance() {
    char C = Text[Pos++];
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }

  /// Skips a whitespace run in one pass: the line moves by the run's
  /// newlines, and the column restarts after the last of them.
  void skipWs() {
    size_t End = Pos, LastNewline = Pos;
    uint32_t Newlines = 0;
    for (; End != Text.size(); ++End) {
      char C = Text[End];
      if (C == '\n') {
        ++Newlines;
        LastNewline = End;
      } else if (C != ' ' && C != '\t' && C != '\r') {
        break;
      }
    }
    if (Newlines) {
      Line += Newlines;
      Col = static_cast<uint32_t>(End - LastNewline);
    } else {
      Col += static_cast<uint32_t>(End - Pos);
    }
    Pos = End;
  }

  bool expect(char C, const char *What) {
    if (eof() || peek() != C) {
      setError(std::string("expected ") + What);
      return false;
    }
    advance();
    return true;
  }

  bool parseValue(Value &Out) {
    if (eof()) {
      setError("unexpected end of input");
      return false;
    }
    Out.Line = Line;
    Out.Col = Col;
    char C = peek();
    switch (C) {
    case '{':
      return parseObject(Out);
    case '[':
      return parseArray(Out);
    case '"':
      Out.K = Value::Kind::String;
      return parseString(Out.Str);
    case 't':
    case 'f':
      return parseKeyword(Out, C == 't' ? "true" : "false", Value::Kind::Bool);
    case 'n':
      return parseKeyword(Out, "null", Value::Kind::Null);
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(Out);
      setError("unexpected character");
      return false;
    }
  }

  bool parseKeyword(Value &Out, std::string_view KW, Value::Kind K) {
    if (Text.substr(Pos, KW.size()) != KW) {
      setError("unexpected character");
      return false;
    }
    for (size_t I = 0; I < KW.size(); ++I)
      advance();
    Out.K = K;
    Out.B = KW == "true";
    return true;
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (!eof() && peek() == '-')
      advance();
    if (eof() || peek() < '0' || peek() > '9') {
      setError("malformed number");
      return false;
    }
    if (peek() == '0') {
      advance();
      if (!eof() && peek() >= '0' && peek() <= '9') {
        setError("leading zero in number");
        return false;
      }
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9')
        advance();
    }
    if (!eof() && peek() == '.') {
      advance();
      if (eof() || peek() < '0' || peek() > '9') {
        setError("expected digit after decimal point");
        return false;
      }
      while (!eof() && peek() >= '0' && peek() <= '9')
        advance();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!eof() && (peek() == '+' || peek() == '-'))
        advance();
      if (eof() || peek() < '0' || peek() > '9') {
        setError("expected digit in exponent");
        return false;
      }
      while (!eof() && peek() >= '0' && peek() <= '9')
        advance();
    }
    Out.K = Value::Kind::Number;
    Out.Raw.assign(Text.substr(Start, Pos - Start));
    Out.Num = std::strtod(Out.Raw.c_str(), nullptr);
    return true;
  }

  bool parseString(std::string &Out) {
    if (!expect('"', "'\"'"))
      return false;
    Out.clear();
    while (true) {
      // A run of plain bytes goes over in one append. It holds no newline,
      // so the column moves by the run's length.
      size_t End = Pos;
      while (End != Text.size() && isPlain(Text[End]))
        ++End;
      Out.append(Text.substr(Pos, End - Pos));
      Col += static_cast<uint32_t>(End - Pos);
      Pos = End;
      if (eof()) {
        setError("unterminated string");
        return false;
      }
      char C = advance();
      if (C == '"')
        return true;
      if (C != '\\') {
        setError("unescaped control character in string");
        return false;
      }
      if (eof()) {
        setError("unterminated string");
        return false;
      }
      char E = advance();
      switch (E) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        unsigned V = 0;
        for (int I = 0; I < 4; ++I) {
          if (eof()) {
            setError("unterminated \\u escape");
            return false;
          }
          char H = advance();
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= unsigned(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= unsigned(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= unsigned(H - 'A' + 10);
          else {
            setError("invalid hex digit in \\u escape");
            return false;
          }
        }
        // ASCII only — the repo's own renderers never emit higher escapes,
        // and raw UTF-8 passes through the non-escape path untouched.
        if (V > 0x7F) {
          setError("non-ASCII \\u escape unsupported (use raw UTF-8)");
          return false;
        }
        Out.push_back(static_cast<char>(V));
        break;
      }
      default:
        setError("invalid escape character");
        return false;
      }
    }
  }

  bool parseArray(Value &Out) {
    if (++Depth > MaxDepth) {
      setError("nesting too deep");
      return false;
    }
    advance(); // '['
    Out.K = Value::Kind::Array;
    skipWs();
    if (!eof() && peek() == ']') {
      advance();
      --Depth;
      return true;
    }
    while (true) {
      Value Elem;
      skipWs();
      if (!parseValue(Elem))
        return false;
      Out.Items.push_back(std::move(Elem));
      skipWs();
      if (eof()) {
        setError("expected ',' or ']'");
        return false;
      }
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == ']') {
        advance();
        --Depth;
        return true;
      }
      setError("expected ',' or ']'");
      return false;
    }
  }

  bool parseObject(Value &Out) {
    if (++Depth > MaxDepth) {
      setError("nesting too deep");
      return false;
    }
    advance(); // '{'
    Out.K = Value::Kind::Object;
    skipWs();
    if (!eof() && peek() == '}') {
      advance();
      --Depth;
      return true;
    }
    while (true) {
      skipWs();
      Member M;
      M.KeyLine = Line;
      M.KeyCol = Col;
      if (!parseString(M.Key))
        return false;
      skipWs();
      if (!expect(':', "':'"))
        return false;
      skipWs();
      Value V;
      if (!parseValue(V))
        return false;
      M.ValueIndex = Out.Items.size();
      Out.Items.push_back(std::move(V));
      Out.Mems.push_back(std::move(M));
      skipWs();
      if (eof()) {
        setError("expected ',' or '}'");
        return false;
      }
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == '}') {
        advance();
        --Depth;
        return true;
      }
      setError("expected ',' or '}'");
      return false;
    }
  }
};

bool parse(std::string_view Text, std::string_view Name, Value &Out,
           std::string &Error) {
  Parser P(Text, Name);
  return P.run(Out, Error);
}

std::string quote(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out.push_back('"');
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
      break;
    }
  }
  Out.push_back('"');
  return Out;
}

} // namespace kiss::json
