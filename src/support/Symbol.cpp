//===- Symbol.cpp ---------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "support/Symbol.h"

#include <cassert>
#include <cstring>
#include <new>

using namespace kiss;

namespace {

/// Initial index slots and reserved entries: enough for a Table-1 field
/// model and its transform without regrowing.
constexpr size_t InitialSlots = 1024;

uint32_t hashName(std::string_view Name) {
  uint64_t H = std::hash<std::string_view>()(Name);
  return static_cast<uint32_t>(H ^ (H >> 32));
}

} // namespace

SymbolTable::~SymbolTable() {
  while (Last) {
    Block *Prev = Last->Prev;
    ::operator delete(Last);
    Last = Prev;
  }
}

size_t SymbolTable::findSlot(std::string_view Name, uint32_t Hash) const {
  size_t Mask = Index.size() - 1;
  for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    uint32_t Id = Index[I];
    if (Id == 0)
      return I;
    const Entry &E = Entries[Id - 1];
    if (E.Hash == Hash && E.Size == Name.size() &&
        (Name.empty() || std::memcmp(E.Data, Name.data(), Name.size()) == 0))
      return I;
  }
}

void SymbolTable::growIndex() {
  std::vector<uint32_t> Old = std::move(Index);
  Index.assign(Old.empty() ? InitialSlots : 2 * Old.size(), 0);
  if (Entries.capacity() < Index.size() / 2)
    Entries.reserve(Index.size() / 2);
  size_t Mask = Index.size() - 1;
  for (uint32_t Id = 1, E = Entries.size(); Id <= E; ++Id) {
    size_t I = Entries[Id - 1].Hash & Mask;
    while (Index[I] != 0)
      I = (I + 1) & Mask;
    Index[I] = Id;
  }
}

char *SymbolTable::newBlock(size_t Bytes) {
  auto *B = static_cast<Block *>(::operator new(sizeof(Block) + Bytes));
  B->Prev = Last;
  Last = B;
  return reinterpret_cast<char *>(B + 1);
}

const char *SymbolTable::store(std::string_view Name) {
  if (Name.empty())
    return "";
  if (Name.size() > Left) {
    if (Name.size() > BlockBytes / 4) {
      char *Own = newBlock(Name.size());
      std::memcpy(Own, Name.data(), Name.size());
      return Own;
    }
    Cur = newBlock(BlockBytes);
    Left = BlockBytes;
  }
  char *Copy = Cur;
  std::memcpy(Copy, Name.data(), Name.size());
  Cur += Name.size();
  Left -= Name.size();
  return Copy;
}

Symbol SymbolTable::intern(std::string_view Name) {
  if (2 * (Entries.size() + 1) > Index.size())
    growIndex();
  uint32_t Hash = hashName(Name);
  uint32_t &Slot = Index[findSlot(Name, Hash)];
  if (Slot == 0) {
    Entries.push_back({store(Name), static_cast<uint32_t>(Name.size()), Hash});
    Slot = Entries.size();
  }
  return Symbol(Slot - 1);
}

Symbol SymbolTable::lookup(std::string_view Name) const {
  if (Index.empty())
    return Symbol();
  uint32_t Id = Index[findSlot(Name, hashName(Name))];
  return Id == 0 ? Symbol() : Symbol(Id - 1);
}

std::string_view SymbolTable::str(Symbol Sym) const {
  if (!Sym.isValid())
    return "<invalid>";
  assert(Sym.getIndex() < Entries.size() && "symbol from another table?");
  const Entry &E = Entries[Sym.getIndex()];
  return std::string_view(E.Data, E.Size);
}
