//===- Runtime.h - Machine states for the explicit-state engines -*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values, memory, and machine states shared by the sequential
/// model checker (the SLAM substitute, seqcheck) and the concurrent
/// baseline checker (conc). A MachineState holds the globals, a heap of
/// struct objects, and one or more threads each owning a stack of frames.
///
/// States are deduplicated via a canonical byte encoding: heap objects are
/// renumbered in reachability order (which also ignores garbage), so states
/// differing only in allocation history or dead objects coincide.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SEQCHECK_RUNTIME_H
#define KISS_SEQCHECK_RUNTIME_H

#include "cfg/CFG.h"
#include "lang/AST.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace kiss::rt {

enum class ValueKind : uint8_t { Undef, Bool, Int, Func, Ptr };

enum class AddrSpace : uint8_t {
  Null,   ///< The null pointer.
  Global, ///< Base = global index.
  Heap,   ///< Base = heap object index, Offset = field index.
  Local,  ///< Thread/Base = frame depth, Offset = local slot.
};

/// A memory address (the value of a pointer).
struct MemAddr {
  AddrSpace Space = AddrSpace::Null;
  uint32_t Thread = 0; ///< Only for Local.
  uint32_t Base = 0;
  uint32_t Offset = 0;

  friend bool operator==(const MemAddr &A, const MemAddr &B) {
    return A.Space == B.Space && A.Thread == B.Thread && A.Base == B.Base &&
           A.Offset == B.Offset;
  }
};

/// A runtime value. The default-constructed value is Undef.
struct Value {
  ValueKind K = ValueKind::Undef;
  int64_t I = 0; ///< Bool (0/1), Int, or function index (-1 = null func).
  MemAddr A;     ///< Only for Ptr.

  static Value makeUndef() { return Value(); }
  static Value makeBool(bool B) {
    Value V;
    V.K = ValueKind::Bool;
    V.I = B;
    return V;
  }
  static Value makeInt(int64_t N) {
    Value V;
    V.K = ValueKind::Int;
    V.I = N;
    return V;
  }
  static Value makeFunc(int64_t FuncIndex) {
    Value V;
    V.K = ValueKind::Func;
    V.I = FuncIndex;
    return V;
  }
  static Value makeNullPtr() {
    Value V;
    V.K = ValueKind::Ptr;
    return V;
  }
  static Value makePtr(MemAddr A) {
    Value V;
    V.K = ValueKind::Ptr;
    V.A = A;
    return V;
  }

  bool isUndef() const { return K == ValueKind::Undef; }
  bool isNullPtr() const {
    return K == ValueKind::Ptr && A.Space == AddrSpace::Null;
  }
  bool asBool() const { return I != 0; }

  friend bool operator==(const Value &X, const Value &Y) {
    if (X.K != Y.K)
      return false;
    if (X.K == ValueKind::Ptr)
      return X.A == Y.A;
    return X.I == Y.I;
  }
};

/// One heap-allocated struct instance.
struct HeapObject {
  const lang::StructDecl *Struct = nullptr;
  std::vector<Value> Fields;
};

/// One activation record.
struct Frame {
  uint32_t Func = 0; ///< Index into Program functions.
  uint32_t PC = 0;   ///< CFG node about to execute.
  std::vector<Value> Locals;
  /// Where the callee's return value goes in the *caller* (invalid scope if
  /// the result is discarded).
  lang::VarId RetVar;
};

/// One thread: a stack of frames plus its atomic-section nesting depth.
/// A thread with no frames has terminated.
struct Thread {
  std::vector<Frame> Frames;
  uint32_t AtomicDepth = 0;

  bool isTerminated() const { return Frames.empty(); }
};

/// A complete machine configuration.
struct MachineState {
  std::vector<Value> Globals;
  std::vector<HeapObject> Heap;
  std::vector<Thread> Threads;
};

/// \returns the default value for type \p Ty (0, false, null).
Value defaultValue(const lang::Type *Ty);

/// Builds the initial state: globals set from initializers (or defaults)
/// and one thread entering \p EntryFunc (which must take no parameters).
MachineState makeInitialState(const lang::Program &P,
                              const cfg::ProgramCFG &CFG,
                              uint32_t EntryFuncIndex);

/// Canonically encodes \p S for visited-set deduplication. Heap objects are
/// renumbered in reachability order; unreachable objects are dropped.
///
/// The key is three sections: globals, reachable heap objects, threads,
/// each starting with its u32 count. An object starts with its u32 field
/// count, a thread with its u32 AtomicDepth and frame count, a frame with
/// a header (putKeyFrameHeader). A value is one of three records:
///   - scalar: the kind byte, then the 8-byte payload (9 bytes);
///   - pointer: the kind byte, the space byte, then Thread, Base and
///     Offset as u32 (14 bytes);
///   - zero run, heap fields only: ZeroRunTag | kind, then a count of
///     1-255 consecutive fields of that scalar kind whose payload is zero
///     (Undef, false, 0, null func), 2 bytes in all.
/// The encoder always takes the longest run, so equal states still
/// produce equal bytes. Globals and frame locals never use runs: their
/// records keep one fixed width per kind class so KeyLayout can patch
/// them in place. Heap fields may vary in width because every heap write
/// re-encodes the whole key.
std::string encodeState(const MachineState &S);

/// As encodeState, but clears \p Out and encodes into it, reusing its
/// capacity. Successor loops call this with one scratch buffer instead of
/// allocating a fresh string per state.
void encodeStateInto(const MachineState &S, std::string &Out);

/// Rebuilds a MachineState from a canonical encoding produced by
/// encodeState. \p Out is reused in place (nested vectors keep their
/// capacity), so a BFS cursor loop decoding one state per iteration
/// settles into zero allocations. Canonical keys are fixed points of the
/// encoder: re-encoding the decoded state reproduces \p Key byte for byte.
/// HeapObject::Struct is not part of the encoding and comes back null; no
/// engine reads it after allocation.
void decodeStateInto(std::string_view Key, MachineState &Out);

/// Record widths of the canonical key (see encodeState).
inline constexpr size_t KeyScalarBytes = 9;       ///< Kind, 8-byte payload.
inline constexpr size_t KeyPtrBytes = 14;         ///< Kind, space, 3 x u32.
inline constexpr size_t KeyZeroRunBytes = 2;      ///< Tag, count.
inline constexpr size_t KeyFrameHeaderBytes = 17; ///< See putKeyFrameHeader.
/// Marks a zero-run record; the low bits carry the run's ValueKind, which
/// is always below it.
inline constexpr uint8_t ZeroRunTag = 0x80;
inline constexpr size_t MaxZeroRun = 255; ///< The count is one byte.

/// Writes a u32 in the canonical-key format at cursor \p C, which must
/// point into a buffer with room for it. Multi-byte fields are written in
/// host byte order: keys are compared only within one process.
inline void putKeyU32(char *&C, uint32_t V) {
  std::memcpy(C, &V, sizeof(V));
  C += sizeof(V);
}

/// Writes a frame record's header (KeyFrameHeaderBytes): Func, PC, the
/// RetVar scope byte and index, and the local count. The locals' records
/// follow it.
inline void putKeyFrameHeader(char *&C, uint32_t Func, uint32_t PC,
                              lang::VarId RetVar, uint32_t NumLocals) {
  putKeyU32(C, Func);
  putKeyU32(C, PC);
  *C++ = static_cast<char>(RetVar.Scope);
  putKeyU32(C, RetVar.Index);
  putKeyU32(C, NumLocals);
}

/// Writes the fixed-width record of non-pointer value \p V.
inline void putKeyScalar(char *&C, const Value &V) {
  C[0] = static_cast<char>(V.K);
  const uint64_t I = static_cast<uint64_t>(V.I);
  std::memcpy(C + 1, &I, sizeof(I));
  C += KeyScalarBytes;
}

/// Writes the fixed-width record of \p V. Heap bases are taken verbatim,
/// so they must already be canonical.
inline void putKeyValue(char *&C, const Value &V) {
  if (V.K != ValueKind::Ptr)
    return putKeyScalar(C, V);
  C[0] = static_cast<char>(V.K);
  C[1] = static_cast<char>(V.A.Space);
  std::memcpy(C + 2, &V.A.Thread, sizeof(uint32_t));
  std::memcpy(C + 6, &V.A.Base, sizeof(uint32_t));
  std::memcpy(C + 10, &V.A.Offset, sizeof(uint32_t));
  C += KeyPtrBytes;
}

/// Byte offsets into one canonical key, recorded during decoding, that let
/// an engine build a successor key by patching the parent's bytes in place
/// instead of re-encoding the whole state. Only thread 0's hot slots are
/// tracked (the sequential engines run exactly one live thread), and only
/// global and local slots, whose records never use zero runs. A layout
/// is valid only for the exact key it was decoded from, and only for
/// patches that preserve record widths: a non-pointer value may be
/// overwritten by any non-pointer value (both encode as KeyScalarBytes),
/// and the u32 PC / AtomicDepth fields may be overwritten freely. Pointer
/// writes, heap writes and allocation change layout and must re-encode.
/// Frame push/pop is patchable only in the single-thread case, where the
/// top frame is the final record of the key: a call appends a frame
/// record (and a return truncates one) without disturbing any earlier
/// byte, provided heap reachability is unaffected — see the engine's
/// Call/Return fast paths.
struct KeyLayout {
  std::vector<uint32_t> GlobalOff;   ///< Value record offset per global.
  std::vector<uint32_t> TopLocalOff; ///< Per local of thread 0's top frame.
  /// Per local of thread 0's frame *below* the top one (the caller of the
  /// top frame); empty when fewer than two frames. Lets a Return patch
  /// its result into the caller's slot after truncating the top frame.
  std::vector<uint32_t> PrevLocalOff;
  uint32_t AtomicOff = 0;            ///< Thread 0's AtomicDepth field.
  uint32_t TopPCOff = 0;             ///< Thread 0's top frame PC field.
  bool HasTopFrame = false;          ///< False for a terminated thread 0.
};

/// As decodeStateInto, additionally filling \p Layout for in-place
/// successor key patching.
void decodeStateInto(std::string_view Key, MachineState &Out,
                     KeyLayout &Layout);

} // namespace kiss::rt

#endif // KISS_SEQCHECK_RUNTIME_H
