//===- Runtime.cpp --------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "seqcheck/Runtime.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::lang;

Value rt::defaultValue(const Type *Ty) {
  switch (Ty->getKind()) {
  case TypeKind::Bool:
    return Value::makeBool(false);
  case TypeKind::Int:
    return Value::makeInt(0);
  case TypeKind::Pointer:
    return Value::makeNullPtr();
  case TypeKind::Func:
    return Value::makeFunc(-1);
  case TypeKind::Void:
  case TypeKind::Struct:
    return Value::makeUndef();
  }
  return Value::makeUndef();
}

MachineState rt::makeInitialState(const Program &P, const cfg::ProgramCFG &CFG,
                                  uint32_t EntryFuncIndex) {
  MachineState S;
  for (const GlobalDecl &G : P.getGlobals()) {
    if (!G.Init) {
      S.Globals.push_back(defaultValue(G.Ty));
      continue;
    }
    switch (G.Init->K) {
    case ConstInit::Kind::Int:
      S.Globals.push_back(Value::makeInt(G.Init->IntValue));
      break;
    case ConstInit::Kind::Bool:
      S.Globals.push_back(Value::makeBool(G.Init->BoolValue));
      break;
    case ConstInit::Kind::Null:
      S.Globals.push_back(G.Ty->isFunc() ? Value::makeFunc(-1)
                                         : Value::makeNullPtr());
      break;
    }
  }

  const FuncDecl *Entry = P.getFunction(EntryFuncIndex);
  assert(Entry && Entry->getNumParams() == 0 &&
         "entry function must exist and take no parameters");

  Frame F;
  F.Func = EntryFuncIndex;
  F.PC = CFG.getFunctionCFG(EntryFuncIndex).getEntry();
  F.Locals.resize(Entry->getLocals().size());

  Thread T;
  T.Frames.push_back(std::move(F));
  S.Threads.push_back(std::move(T));
  return S;
}

namespace {

/// The payload a zero-run record stands for: -1 (null) for a function,
/// 0 for every other scalar kind.
int64_t zeroPayload(ValueKind K) { return K == ValueKind::Func ? -1 : 0; }

bool isZeroScalar(const Value &V) {
  return V.K != ValueKind::Ptr && V.I == zeroPayload(V.K);
}

/// Serializer with heap renumbering. First pass discovers reachable heap
/// objects in a deterministic order; second pass emits bytes with
/// renumbered heap bases. Writes into a caller-owned buffer so successor
/// loops can reuse one scratch string, and renumbers through a flat
/// vector indexed by heap slot instead of a per-call hash map.
class StateEncoder {
public:
  StateEncoder(const MachineState &S, std::string &Out)
      : S(S), Renumber(S.Heap.size(), NotSeen), Out(Out) {}

  void encode() {
    discover();
    // Size the buffer once so emit() can write through a bare pointer:
    // per-field append() calls (capacity check + size bookkeeping each)
    // dominated BFS profiles. Every value costs at most a pointer record
    // (a zero run is narrower and covers at least one field); headers are
    // 12 bytes of section counts, 4 per heap object, 8 per thread, and a
    // frame header per frame.
    static_assert(KeyZeroRunBytes <= KeyPtrBytes &&
                  KeyScalarBytes <= KeyPtrBytes);
    size_t Values = S.Globals.size() + HeapValues;
    size_t Frames = 0;
    for (const Thread &T : S.Threads) {
      Frames += T.Frames.size();
      for (const Frame &F : T.Frames)
        Values += F.Locals.size();
    }
    size_t Bound = 12 + KeyPtrBytes * Values + 4 * Order.size() +
                   8 * S.Threads.size() + KeyFrameHeaderBytes * Frames;
    Out.resize(Bound);
    P = Out.data();
    emit();
    Out.resize(static_cast<size_t>(P - Out.data()));
  }

private:
  static constexpr uint32_t NotSeen = 0xffffffffu;

  void discoverValue(const Value &V) {
    if (V.K != ValueKind::Ptr || V.A.Space != AddrSpace::Heap)
      return;
    if (Renumber[V.A.Base] != NotSeen)
      return;
    Renumber[V.A.Base] = static_cast<uint32_t>(Order.size());
    Order.push_back(V.A.Base);
  }

  void discover() {
    for (const Value &V : S.Globals)
      discoverValue(V);
    for (const Thread &T : S.Threads)
      for (const Frame &F : T.Frames)
        for (const Value &V : F.Locals)
          discoverValue(V);
    // BFS through object fields; Order grows as we scan it.
    for (size_t I = 0; I != Order.size(); ++I) {
      HeapValues += S.Heap[Order[I]].Fields.size();
      for (const Value &V : S.Heap[Order[I]].Fields)
        discoverValue(V);
    }
  }

  void putU32(uint32_t V) { putKeyU32(P, V); }

  void putValue(const Value &V) {
    if (V.K != ValueKind::Ptr || V.A.Space != AddrSpace::Heap)
      return putKeyValue(P, V);
    assert(Renumber[V.A.Base] != NotSeen && "pointer to undiscovered object");
    Value R = V;
    R.A.Base = Renumber[V.A.Base];
    putKeyValue(P, R);
  }

  /// Writes heap fields, each maximal run of zero scalars of one kind (up
  /// to MaxZeroRun) as one zero-run record.
  void putFields(const std::vector<Value> &Fields) {
    const Value *F = Fields.data(), *E = F + Fields.size();
    while (F != E) {
      if (!isZeroScalar(*F)) {
        putValue(*F++);
        continue;
      }
      const ValueKind K = F->K;
      const Value *RunEnd = F + std::min<size_t>(E - F, MaxZeroRun);
      const Value *R = F + 1;
      while (R != RunEnd && R->K == K && isZeroScalar(*R))
        ++R;
      P[0] = static_cast<char>(ZeroRunTag | static_cast<uint8_t>(K));
      P[1] = static_cast<char>(R - F);
      P += KeyZeroRunBytes;
      F = R;
    }
  }

  void emit() {
    putU32(S.Globals.size());
    for (const Value &V : S.Globals)
      putValue(V);

    putU32(Order.size());
    for (uint32_t Obj : Order) {
      const HeapObject &H = S.Heap[Obj];
      putU32(H.Fields.size());
      putFields(H.Fields);
    }

    putU32(S.Threads.size());
    for (const Thread &T : S.Threads) {
      putU32(T.AtomicDepth);
      putU32(T.Frames.size());
      for (const Frame &F : T.Frames) {
        putKeyFrameHeader(P, F.Func, F.PC, F.RetVar, F.Locals.size());
        for (const Value &V : F.Locals)
          putValue(V);
      }
    }
  }

  const MachineState &S;
  std::vector<uint32_t> Renumber; ///< Heap slot -> canonical id, NotSeen.
  std::vector<uint32_t> Order;
  size_t HeapValues = 0; ///< Total field count across discovered objects.
  std::string &Out;
  char *P = nullptr; ///< Write cursor into Out.
};

} // namespace

std::string rt::encodeState(const MachineState &S) {
  std::string Out;
  StateEncoder(S, Out).encode();
  return Out;
}

void rt::encodeStateInto(const MachineState &S, std::string &Out) {
  StateEncoder(S, Out).encode();
}

namespace {

/// Mirror of StateEncoder::emit. No renumbering pass is needed: canonical
/// keys already carry renumbered heap bases, and because renumbering is
/// idempotent the decoded state re-encodes to the same bytes.
class StateDecoder {
public:
  StateDecoder(std::string_view In, MachineState &S, KeyLayout *L)
      : Start(In.data()), P(In.data()), S(S), L(L) {
#ifndef NDEBUG
    End = In.data() + In.size();
#endif
  }

  void decode() {
    if (L) {
      L->GlobalOff.clear();
      L->TopLocalOff.clear();
      L->PrevLocalOff.clear();
      L->HasTopFrame = false;
    }
    S.Globals.resize(getU32());
    for (Value &V : S.Globals) {
      if (L)
        L->GlobalOff.push_back(off());
      getValue(V);
    }

    S.Heap.resize(getU32());
    for (HeapObject &H : S.Heap) {
      H.Struct = nullptr;
      H.Fields.resize(getU32());
      getFields(H.Fields);
    }

    S.Threads.resize(getU32());
    bool Thread0 = true;
    for (Thread &T : S.Threads) {
      if (L && Thread0)
        L->AtomicOff = off();
      T.AtomicDepth = getU32();
      T.Frames.resize(getU32());
      for (Frame &F : T.Frames) {
        // Each frame overwrites the slots below, so after the loop the
        // layout describes the top (last-decoded) frame, with the previous
        // frame's local offsets rotated into PrevLocalOff.
        if (L && Thread0) {
          L->TopPCOff = off() + 4;
          L->HasTopFrame = true;
          L->PrevLocalOff.swap(L->TopLocalOff);
          L->TopLocalOff.clear();
        }
        F.Func = getU32();
        F.PC = getU32();
        F.RetVar.Scope = static_cast<VarScope>(*P++);
        F.RetVar.Index = getU32();
        F.Locals.resize(getU32());
        for (Value &V : F.Locals) {
          if (L && Thread0)
            L->TopLocalOff.push_back(off());
          getValue(V);
        }
      }
      Thread0 = false;
    }
    assert(P == End && "canonical key not fully consumed");
  }

private:
  uint32_t off() const { return static_cast<uint32_t>(P - Start); }

  uint32_t getU32() {
    uint32_t V;
    std::memcpy(&V, P, sizeof(V));
    P += sizeof(V);
    return V;
  }

  /// Mirror of StateEncoder::putFields.
  void getFields(std::vector<Value> &Fields) {
    Value *F = Fields.data(), *E = F + Fields.size();
    while (F != E) {
      const uint8_t Tag = static_cast<uint8_t>(P[0]);
      if (!(Tag & ZeroRunTag)) {
        getValue(*F++);
        continue;
      }
      const uint8_t Count = static_cast<uint8_t>(P[1]);
      assert(Count != 0 && Count <= E - F && "zero run overruns the object");
      Value Z;
      Z.K = static_cast<ValueKind>(Tag & ~ZeroRunTag);
      Z.I = zeroPayload(Z.K);
      F = std::fill_n(F, Count, Z);
      P += KeyZeroRunBytes;
    }
  }

  void getValue(Value &V) {
    V.K = static_cast<ValueKind>(P[0]);
    if (V.K == ValueKind::Ptr) {
      V.I = 0;
      V.A.Space = static_cast<AddrSpace>(P[1]);
      std::memcpy(&V.A.Thread, P + 2, sizeof(uint32_t));
      std::memcpy(&V.A.Base, P + 6, sizeof(uint32_t));
      std::memcpy(&V.A.Offset, P + 10, sizeof(uint32_t));
      P += KeyPtrBytes;
      return;
    }
    uint64_t I;
    std::memcpy(&I, P + 1, sizeof(I));
    V.I = static_cast<int64_t>(I);
    V.A = MemAddr();
    P += KeyScalarBytes;
  }

  const char *Start;
  const char *P;
#ifndef NDEBUG
  const char *End = nullptr;
#endif
  MachineState &S;
  KeyLayout *L;
};

} // namespace

void rt::decodeStateInto(std::string_view Key, MachineState &Out) {
  StateDecoder(Key, Out, nullptr).decode();
}

void rt::decodeStateInto(std::string_view Key, MachineState &Out,
                         KeyLayout &Layout) {
  StateDecoder(Key, Out, &Layout).decode();
}
