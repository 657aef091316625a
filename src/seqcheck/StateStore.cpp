//===- StateStore.cpp -----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "seqcheck/StateStore.h"

#include "support/Hashing.h"

#include <cassert>
#include <cstring>

using namespace kiss;
using namespace kiss::seqcheck;

namespace {

// Power of two. 4096 slots is 64 KiB of index up front, which keeps runs
// in the low tens of thousands of states (the common case for KISS check
// budgets) down to at most a couple of rehashes; grow() showed up at ~10%
// of BFS profiles when every run climbed from 1024.
constexpr size_t InitialSlots = 4096;

/// Longest delta chain before a forced keyframe: bounds reconstruction to
/// MaxChain delta applications.
constexpr uint32_t MaxChain = 16;

/// Minimum run of equal bytes worth closing a literal run for — shorter
/// gaps cost more in op headers than they save.
constexpr size_t MinMatch = 8;

void putVarint(std::vector<char> &Out, uint32_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>(V | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

uint32_t getVarint(const char *&P) {
  uint32_t V = 0;
  unsigned Shift = 0;
  while (true) {
    unsigned char B = static_cast<unsigned char>(*P++);
    V |= static_cast<uint32_t>(B & 0x7f) << Shift;
    if (!(B & 0x80))
      return V;
    Shift += 7;
  }
}

/// Emits one (copy, literal, skip) op: copy \p Copy parent bytes, then
/// emit \p Lit literal child bytes while skipping \p Skip parent bytes.
void putOp(std::vector<char> &Out, uint32_t Copy, std::string_view Child,
           size_t LitBegin, uint32_t Lit, uint32_t Skip) {
  putVarint(Out, Copy);
  putVarint(Out, Lit);
  Out.insert(Out.end(), Child.data() + LitBegin,
             Child.data() + LitBegin + Lit);
  putVarint(Out, Skip);
}

/// Builds the delta of \p Child against \p Parent into \p Out. The format
/// is a sequence of (copy, lit, skip) ops followed by an implicit "copy
/// the rest of the parent" tail.
void buildDelta(std::string_view Parent, std::string_view Child,
                std::vector<char> &Out) {
  Out.clear();
  if (Parent.size() == Child.size()) {
    // Positional run diff: BFS siblings mostly differ in a PC and a value
    // or two, so a handful of short ops cover it.
    const size_t N = Child.size();
    size_t I = 0;      // Scan cursor.
    size_t Emitted = 0; // Parent/child bytes accounted for by ops so far.
    while (I < N) {
      if (Parent[I] == Child[I]) {
        ++I;
        continue;
      }
      // Mismatch run: extend until MinMatch equal bytes (or the end).
      size_t M = I, J = I, Run = 0;
      while (J < N && Run < MinMatch) {
        if (Parent[J] == Child[J])
          ++Run;
        else
          Run = 0;
        ++J;
      }
      size_t End = J - Run; // First byte after the mismatch run.
      putOp(Out, static_cast<uint32_t>(M - Emitted), Child, M,
            static_cast<uint32_t>(End - M), static_cast<uint32_t>(End - M));
      Emitted = End;
      I = J;
    }
    return; // Equal tail is implicit.
  }

  // Different lengths (a frame or heap object appeared/vanished): splice
  // the differing middle between the common prefix and suffix.
  size_t MinLen = Parent.size() < Child.size() ? Parent.size() : Child.size();
  size_t Prefix = 0;
  while (Prefix < MinLen && Parent[Prefix] == Child[Prefix])
    ++Prefix;
  size_t Suffix = 0;
  while (Suffix < MinLen - Prefix &&
         Parent[Parent.size() - 1 - Suffix] ==
             Child[Child.size() - 1 - Suffix])
    ++Suffix;
  putOp(Out, static_cast<uint32_t>(Prefix), Child, Prefix,
        static_cast<uint32_t>(Child.size() - Prefix - Suffix),
        static_cast<uint32_t>(Parent.size() - Prefix - Suffix));
}

/// Applies a delta op stream to \p Parent, producing \p KeyLen bytes.
void applyDelta(std::string_view Parent, const char *Ops, size_t NOps,
                size_t KeyLen, std::string &Out) {
  Out.clear();
  const char *P = Ops, *E = Ops + NOps;
  size_t PCur = 0;
  while (P < E) {
    uint32_t Copy = getVarint(P);
    Out.append(Parent.data() + PCur, Copy);
    PCur += Copy;
    uint32_t Lit = getVarint(P);
    Out.append(P, Lit);
    P += Lit;
    PCur += getVarint(P); // Skip.
  }
  // Implicit tail: the parent's remainder.
  assert(KeyLen >= Out.size() && "corrupt delta record");
  Out.append(Parent.data() + PCur, KeyLen - Out.size());
}

} // namespace

StateStore::StateStore(rt::StoreMode Mode) { reset(Mode); }

void StateStore::reset(rt::StoreMode NewMode) {
  Mode = NewMode;
  Arena.clear();
  Records.clear();
  Slots.assign(InitialSlots, Slot{0, InvalidId});
  Stats = IndexStats();
  ++Generation; // Views into the old contents are stale.
  MatId = InvalidId;
  // Records can never outgrow the load-factor bound before the next
  // grow(), so reserving alongside the slot table keeps push_back off the
  // reallocation path entirely.
  Records.reserve(InitialSlots * 7 / 10);
  Arena.reserve(64 << 10);
}

size_t StateStore::capacityBytes() const {
  return Arena.capacity() + Records.capacity() * sizeof(Record) +
         (Slots.capacity() + Spare.capacity()) * sizeof(Slot) +
         MatBuf.capacity() + MatTmp.capacity() + DeltaBuf.capacity();
}

std::string_view StateStore::materialize(uint32_t Id) const {
  assert(Id < Records.size() && "state id out of range");
  const Record &R = Records[Id];
  if (R.Parent == InvalidId)
    return std::string_view(Arena.data() + R.Offset, R.KeyLen);
  if (MatId == Id)
    return std::string_view(MatBuf.data(), MatBuf.size());

  // Walk up to the nearest keyframe (or the cached ancestor), then apply
  // the deltas back down. Chains are at most MaxChain long.
  uint32_t Chain[MaxChain];
  uint32_t N = 0;
  uint32_t Cur = Id;
  while (Records[Cur].Parent != InvalidId && Cur != MatId) {
    assert(N < MaxChain && "delta chain exceeds the keyframe bound");
    Chain[N++] = Cur;
    Cur = Records[Cur].Parent;
  }
  std::string_view Base =
      (Cur == MatId && Records[Cur].Parent != InvalidId)
          ? std::string_view(MatBuf.data(), MatBuf.size())
          : std::string_view(Arena.data() + Records[Cur].Offset,
                             Records[Cur].KeyLen);
  for (uint32_t I = N; I-- != 0;) {
    const Record &DR = Records[Chain[I]];
    applyDelta(Base, Arena.data() + DR.Offset, DR.Stored, DR.KeyLen,
               MatTmp);
    MatBuf.swap(MatTmp);
    Base = std::string_view(MatBuf.data(), MatBuf.size());
  }
  MatId = Id;
  return Base;
}

StateStore::KeyRef StateStore::key(uint32_t Id) const {
  if (Mode == rt::StoreMode::Delta)
    ++Generation; // Reconstruction reuses the scratch: prior refs die.
  return makeRef(materialize(Id));
}

std::pair<uint32_t, bool> StateStore::intern(std::string_view Key) {
  return internImpl(Key, keyHash(Key), InvalidId);
}

std::pair<uint32_t, bool> StateStore::intern(std::string_view Key,
                                             uint64_t Hash) {
  return internImpl(Key, Hash, InvalidId);
}

std::pair<uint32_t, bool> StateStore::internChild(std::string_view Key,
                                                  uint32_t Parent,
                                                  uint64_t Hash) {
  return internImpl(Key, Hash, Parent);
}

std::pair<uint32_t, bool> StateStore::internImpl(std::string_view Key,
                                                 uint64_t Hash,
                                                 uint32_t Parent) {
  ++Generation; // Every intern() invalidates outstanding KeyRefs.

  // Keep the load factor under 7/10.
  if ((Records.size() + 1) * 10 >= Slots.size() * 7)
    grow();

  const size_t Mask = Slots.size() - 1;
  size_t I = Hash & Mask;
  while (Slots[I].Id != InvalidId) {
    ++Stats.Probes;
    // Full-key confirmation on every hash hit: a 64-bit collision lands
    // two keys in one probe chain, never in one state.
    if (Slots[I].Hash == Hash) {
      ++Stats.Verifies;
      if (materialize(Slots[I].Id) == Key) {
        ++Stats.Hits;
        return {Slots[I].Id, false};
      }
      ++Stats.Collisions;
    }
    I = (I + 1) & Mask;
  }

  uint32_t Id = static_cast<uint32_t>(Records.size());
  assert(Id != InvalidId && "state store full");

  // Decide the storage form: full keyframe or delta against the parent.
  const char *Bytes = Key.data();
  size_t NBytes = Key.size();
  uint32_t StoredParent = InvalidId;
  uint32_t Depth = 0;
  if (Mode == rt::StoreMode::Delta && Parent != InvalidId &&
      Records[Parent].Depth + 1 < MaxChain) {
    buildDelta(materialize(Parent), Key, DeltaBuf);
    // A delta that saves less than half the key is not worth the chain.
    if (DeltaBuf.size() * 2 < Key.size()) {
      Bytes = DeltaBuf.data();
      NBytes = DeltaBuf.size();
      StoredParent = Parent;
      Depth = Records[Parent].Depth + 1;
    }
  }

  Records.push_back(Record{Arena.size(), static_cast<uint32_t>(NBytes),
                           static_cast<uint32_t>(Key.size()), StoredParent,
                           Depth});
  Arena.append(Bytes, NBytes);
  Slots[I] = Slot{Hash, Id};
  return {Id, true};
}

void StateStore::grow() {
  // Copy out and rehash back in place: Slots keeps the largest capacity a
  // run reached and Spare half of it, so a reset store regrows into
  // memory it already owns.
  Spare.assign(Slots.begin(), Slots.end());
  Slots.assign(Slots.size() * 2, Slot{0, InvalidId});
  Records.reserve(Slots.size() * 7 / 10);
  const size_t Mask = Slots.size() - 1;
  for (const Slot &S : Spare) {
    if (S.Id == InvalidId)
      continue;
    size_t I = S.Hash & Mask;
    while (Slots[I].Id != InvalidId)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}
