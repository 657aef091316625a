//===- Json.h - Minimal JSON parsing with located diagnostics ---*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parsing half of the repository's JSON story. Rendering has always
/// been hand-rolled per subsystem (telemetry reports, bench envelopes);
/// this header adds the one consumer-side piece the service and config
/// layers need: a small recursive-descent parser producing a Value tree in
/// which every value and every object key remembers its 1-based line:col,
/// so schema errors ("unknown config key 'max_swiches'") can be reported
/// with the same file:line:col precision as compiler diagnostics.
///
/// Deliberately minimal: UTF-8 passes through uninterpreted (\uXXXX
/// escapes outside ASCII are rejected rather than decoded), numbers keep
/// their raw token text so integer round-trips are byte-exact, and there
/// is no DOM mutation API — parse, read, throw away.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SUPPORT_JSON_H
#define KISS_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kiss::json {

class Value;

/// One key/value member of an object, with the key's own position (the
/// value's position lives on the value).
struct Member {
  std::string Key;
  uint32_t KeyLine = 0;
  uint32_t KeyCol = 0;
  // Defined out of line via the vector's indirection; Value is complete
  // below. Index into the owning Value's member-value storage.
  size_t ValueIndex = 0;
};

/// A parsed JSON value. Plain data; copy freely.
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  double asDouble() const { return Num; }
  const std::string &asString() const { return Str; }
  /// The exact number token as written ("42", "0.5", "-1e3"); empty for
  /// non-numbers. Lets integer consumers re-parse without double rounding.
  const std::string &rawNumber() const { return Raw; }

  /// Non-negative integer view of a number. \returns false for
  /// non-numbers, negatives, fractions, and values beyond uint64.
  bool asU64(uint64_t &Out) const;

  const std::vector<Value> &items() const { return Items; }
  const std::vector<Member> &members() const { return Mems; }
  const Value &memberValue(const Member &M) const { return Items[M.ValueIndex]; }

  /// Object lookup in declaration order. \returns null when absent (or
  /// when this is not an object).
  const Value *find(std::string_view Key) const;

  /// 1-based position of the value's first character.
  uint32_t line() const { return Line; }
  uint32_t col() const { return Col; }

private:
  friend class Parser;
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Raw;
  std::string Str;
  /// Array elements, or object member values (indexed by Member::ValueIndex).
  std::vector<Value> Items;
  std::vector<Member> Mems;
  uint32_t Line = 0;
  uint32_t Col = 0;
};

/// Parses \p Text as one JSON value (trailing garbage rejected). On
/// failure \returns false and sets \p Error to
/// "<name>:<line>:<col>: <message>".
bool parse(std::string_view Text, std::string_view Name, Value &Out,
           std::string &Error);

/// Renders \p S as a JSON string literal, quotes included (the escaping
/// twin of the parser): quote, backslash and the \b \f \n \r \t short
/// forms; other control bytes as \u00XX; every other byte verbatim.
std::string quote(std::string_view S);

} // namespace kiss::json

#endif // KISS_SUPPORT_JSON_H
