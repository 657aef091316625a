//===- Symbol.h - Interned identifiers --------------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned identifiers. A Symbol is a small integer index into a
/// SymbolTable; equality and hashing are O(1) and symbols are cheap to copy.
/// Every AST identifier (variables, functions, structs, fields) is a Symbol.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SUPPORT_SYMBOL_H
#define KISS_SUPPORT_SYMBOL_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace kiss {

class SymbolTable;

/// An interned identifier; valid only together with the SymbolTable that
/// produced it. The default-constructed Symbol is the invalid sentinel.
class Symbol {
public:
  Symbol() = default;

  bool isValid() const { return Index != InvalidIndex; }
  uint32_t getIndex() const { return Index; }

  friend bool operator==(Symbol A, Symbol B) { return A.Index == B.Index; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Index != B.Index; }
  friend bool operator<(Symbol A, Symbol B) { return A.Index < B.Index; }

private:
  friend class SymbolTable;
  static constexpr uint32_t InvalidIndex = ~0u;

  explicit Symbol(uint32_t Index) : Index(Index) {}

  uint32_t Index = InvalidIndex;
};

/// Interns strings into Symbols and resolves them back. Ids are handed out
/// densely in first-intern order. Spellings live in a character arena of
/// fixed-size blocks that never move, so a view returned by str() stays
/// valid for the table's lifetime; an open-addressing index of ids finds
/// them by hash.
class SymbolTable {
public:
  /// Bytes per arena block. A spelling longer than a quarter block gets a
  /// block of its own.
  static constexpr size_t BlockBytes = 4096;

  SymbolTable() = default;
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;
  ~SymbolTable();

  /// Interns \p Name, returning the unique Symbol for it.
  Symbol intern(std::string_view Name);

  /// \returns the Symbol for \p Name if already interned, else the invalid
  /// Symbol.
  Symbol lookup(std::string_view Name) const;

  /// \returns the spelling of \p Sym; "<invalid>" for the sentinel.
  std::string_view str(Symbol Sym) const;

  unsigned size() const { return Entries.size(); }

private:
  struct Entry {
    const char *Data;
    uint32_t Size;
    uint32_t Hash;
  };
  /// An arena block: this header, then its bytes.
  struct Block {
    Block *Prev;
  };

  /// \returns the index slot holding \p Name's id + 1, or else the empty
  /// slot where it belongs. The index must not be empty.
  size_t findSlot(std::string_view Name, uint32_t Hash) const;
  /// Doubles the index (or creates it) and reinserts every id.
  void growIndex();
  /// Copies \p Name into the arena and \returns the copy.
  const char *store(std::string_view Name);
  char *newBlock(size_t Bytes);

  std::vector<Entry> Entries;
  /// Open addressing with linear probing: 0 is empty, else id + 1. A power
  /// of two in size, at most half full.
  std::vector<uint32_t> Index;
  Block *Last = nullptr;
  char *Cur = nullptr;
  size_t Left = 0;
};

} // namespace kiss

namespace std {
template <> struct hash<kiss::Symbol> {
  size_t operator()(kiss::Symbol S) const {
    return std::hash<uint32_t>()(S.getIndex());
  }
};
} // namespace std

#endif // KISS_SUPPORT_SYMBOL_H
