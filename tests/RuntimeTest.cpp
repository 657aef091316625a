//===- RuntimeTest.cpp ----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "seqcheck/Runtime.h"

#include <random>

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::test;

namespace {

TEST(ValueTest, Constructors) {
  EXPECT_TRUE(Value::makeUndef().isUndef());
  EXPECT_EQ(Value::makeBool(true).K, ValueKind::Bool);
  EXPECT_TRUE(Value::makeBool(true).asBool());
  EXPECT_EQ(Value::makeInt(-7).I, -7);
  EXPECT_EQ(Value::makeFunc(3).K, ValueKind::Func);
  EXPECT_TRUE(Value::makeNullPtr().isNullPtr());
  MemAddr A{AddrSpace::Heap, 0, 2, 1};
  EXPECT_FALSE(Value::makePtr(A).isNullPtr());
}

TEST(ValueTest, EqualitySemantics) {
  EXPECT_EQ(Value::makeInt(5), Value::makeInt(5));
  EXPECT_FALSE(Value::makeInt(5) == Value::makeInt(6));
  EXPECT_FALSE(Value::makeInt(1) == Value::makeBool(true));
  MemAddr A{AddrSpace::Heap, 0, 1, 0};
  MemAddr B{AddrSpace::Heap, 0, 1, 1};
  EXPECT_EQ(Value::makePtr(A), Value::makePtr(A));
  EXPECT_FALSE(Value::makePtr(A) == Value::makePtr(B));
  EXPECT_EQ(Value::makeNullPtr(), Value::makeNullPtr());
}

TEST(ValueTest, DefaultValuesByType) {
  lang::TypeContext Types;
  EXPECT_EQ(defaultValue(Types.getIntType()), Value::makeInt(0));
  EXPECT_EQ(defaultValue(Types.getBoolType()), Value::makeBool(false));
  EXPECT_TRUE(
      defaultValue(Types.getPointerType(Types.getIntType())).isNullPtr());
  EXPECT_EQ(defaultValue(Types.getFuncType(Types.getVoidType(), {})).I, -1);
}

TEST(InitialStateTest, GlobalsFromInitializers) {
  auto C = compile(R"(
    int a = 41;
    bool b = true;
    int c;
    void main() { skip; }
  )");
  ASSERT_TRUE(C);
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
  MachineState S = makeInitialState(
      *C.Program, CFG, C.Program->getFunctionIndex(C.Ctx->Syms.lookup("main")));
  ASSERT_EQ(S.Globals.size(), 3u);
  EXPECT_EQ(S.Globals[0], Value::makeInt(41));
  EXPECT_EQ(S.Globals[1], Value::makeBool(true));
  EXPECT_EQ(S.Globals[2], Value::makeInt(0));
  ASSERT_EQ(S.Threads.size(), 1u);
  EXPECT_EQ(S.Threads[0].Frames.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Canonical state encoding
//===----------------------------------------------------------------------===//

MachineState makeStateWithHeap() {
  MachineState S;
  S.Globals.push_back(Value::makeInt(1));
  S.Threads.emplace_back();
  Frame F;
  F.Func = 0;
  F.PC = 0;
  S.Threads[0].Frames.push_back(F);
  return S;
}

TEST(EncodeStateTest, EqualStatesEqualEncodings) {
  MachineState A = makeStateWithHeap();
  MachineState B = makeStateWithHeap();
  EXPECT_EQ(encodeState(A), encodeState(B));
}

TEST(EncodeStateTest, DifferentGlobalsDiffer) {
  MachineState A = makeStateWithHeap();
  MachineState B = makeStateWithHeap();
  B.Globals[0] = Value::makeInt(2);
  EXPECT_NE(encodeState(A), encodeState(B));
}

TEST(EncodeStateTest, UnreachableHeapObjectsIgnored) {
  MachineState A = makeStateWithHeap();
  MachineState B = makeStateWithHeap();
  // B has a garbage object nothing points to.
  HeapObject Garbage;
  Garbage.Fields.push_back(Value::makeInt(99));
  B.Heap.push_back(Garbage);
  EXPECT_EQ(encodeState(A), encodeState(B));
}

TEST(EncodeStateTest, HeapRenumberedByReachabilityOrder) {
  // A: object X at index 0 referenced by the global; B: same object at
  // index 1 (after a garbage object). The encodings must agree.
  MachineState A = makeStateWithHeap();
  HeapObject Obj;
  Obj.Fields.push_back(Value::makeInt(7));
  A.Heap.push_back(Obj);
  A.Globals[0] = Value::makePtr(MemAddr{AddrSpace::Heap, 0, 0, 0});

  MachineState B = makeStateWithHeap();
  HeapObject Garbage;
  Garbage.Fields.push_back(Value::makeInt(1234));
  B.Heap.push_back(Garbage);
  B.Heap.push_back(Obj);
  B.Globals[0] = Value::makePtr(MemAddr{AddrSpace::Heap, 0, 1, 0});

  EXPECT_EQ(encodeState(A), encodeState(B));
}

TEST(EncodeStateTest, CyclicHeapTerminates) {
  MachineState S = makeStateWithHeap();
  HeapObject A, B;
  A.Fields.push_back(Value::makePtr(MemAddr{AddrSpace::Heap, 0, 1, 0}));
  B.Fields.push_back(Value::makePtr(MemAddr{AddrSpace::Heap, 0, 0, 0}));
  S.Heap.push_back(A);
  S.Heap.push_back(B);
  S.Globals[0] = Value::makePtr(MemAddr{AddrSpace::Heap, 0, 0, 0});
  std::string Enc = encodeState(S); // Must not loop forever.
  EXPECT_FALSE(Enc.empty());
}

TEST(EncodeStateTest, PcAndLocalsMatter) {
  MachineState A = makeStateWithHeap();
  MachineState B = makeStateWithHeap();
  B.Threads[0].Frames[0].PC = 1;
  EXPECT_NE(encodeState(A), encodeState(B));

  MachineState C1 = makeStateWithHeap();
  MachineState C2 = makeStateWithHeap();
  C1.Threads[0].Frames[0].Locals.push_back(Value::makeInt(1));
  C2.Threads[0].Frames[0].Locals.push_back(Value::makeInt(2));
  EXPECT_NE(encodeState(C1), encodeState(C2));
}

TEST(EncodeStateTest, AtomicDepthMatters) {
  MachineState A = makeStateWithHeap();
  MachineState B = makeStateWithHeap();
  B.Threads[0].AtomicDepth = 1;
  EXPECT_NE(encodeState(A), encodeState(B));
}

TEST(EncodeStateTest, TerminatedThreadsStillEncoded) {
  MachineState A = makeStateWithHeap();
  MachineState B = makeStateWithHeap();
  B.Threads.emplace_back(); // An extra (terminated) thread.
  EXPECT_NE(encodeState(A), encodeState(B));
}

//===----------------------------------------------------------------------===//
// Decoding and zero runs
//===----------------------------------------------------------------------===//

/// Random states whose heap is already in canonical order (global I points
/// at object I, so discovery numbers objects by index), so a decoded state
/// must equal the original value for value.
class RandomStates {
public:
  explicit RandomStates(uint32_t Seed) : Rng(Seed) {}

  MachineState next() {
    MachineState S;
    NumObjs = pick(0, 4);
    NumGlobals = NumObjs + pick(0, 4);
    NumThreads = pick(1, 3);
    S.Globals.resize(NumGlobals);
    S.Heap.resize(NumObjs);
    for (uint32_t I = 0; I != NumGlobals; ++I)
      S.Globals[I] = I < NumObjs ? Value::makePtr(MemAddr{AddrSpace::Heap, 0,
                                                          I, pick(0, 3)})
                                 : anyValue();
    for (HeapObject &H : S.Heap)
      fillFields(H.Fields);
    S.Threads.resize(NumThreads);
    for (Thread &T : S.Threads) {
      T.AtomicDepth = pick(0, 2);
      T.Frames.resize(pick(0, 3));
      for (Frame &F : T.Frames) {
        F.Func = pick(0, 9);
        F.PC = pick(0, 99);
        F.RetVar = pick(0, 1) ? lang::VarId{lang::VarScope::Local, pick(0, 5)}
                              : lang::VarId();
        F.Locals.resize(pick(0, 5));
        for (Value &V : F.Locals)
          V = anyValue();
      }
    }
    return S;
  }

private:
  uint32_t pick(uint32_t Lo, uint32_t Hi) {
    return std::uniform_int_distribution<uint32_t>(Lo, Hi)(Rng);
  }

  static Value zeroOf(uint32_t Kind) {
    switch (Kind) {
    case 0:
      return Value::makeUndef();
    case 1:
      return Value::makeBool(false);
    case 2:
      return Value::makeInt(0);
    default:
      return Value::makeFunc(-1);
    }
  }

  /// Any value: a zero scalar, a non-zero scalar, or a pointer into any
  /// space.
  Value anyValue() {
    switch (pick(0, 9)) {
    case 0:
    case 1:
      return zeroOf(pick(0, 3));
    case 2:
      return Value::makeBool(true);
    case 3:
      return Value::makeInt(pick(0, 1) ? -int64_t(pick(1, 1000))
                                       : int64_t(pick(1, 1u << 31)) << 20);
    case 4:
      return Value::makeFunc(pick(0, 9)); // Function 0 is not null.
    case 5:
      return Value::makeNullPtr();
    case 6:
      return NumGlobals ? Value::makePtr(MemAddr{AddrSpace::Global, 0,
                                                 pick(0, NumGlobals - 1), 0})
                        : Value::makeNullPtr();
    case 7:
      return NumObjs ? Value::makePtr(MemAddr{AddrSpace::Heap, 0,
                                              pick(0, NumObjs - 1),
                                              pick(0, 299)})
                     : Value::makeInt(7);
    default:
      return Value::makePtr(MemAddr{AddrSpace::Local, pick(0, NumThreads - 1),
                                    pick(0, 2), pick(0, 4)});
    }
  }

  /// 0-300 fields mixing single values of every kind with zero runs of
  /// the lengths around the 255-field record limit.
  void fillFields(std::vector<Value> &Fields) {
    static const uint32_t RunLengths[] = {1, 2, 255, 256, 300};
    const uint32_t N = pick(0, 300);
    while (Fields.size() < N) {
      if (pick(0, 2) != 0) {
        Fields.push_back(anyValue());
        continue;
      }
      const Value Z = zeroOf(pick(0, 3));
      const uint32_t Len = RunLengths[pick(0, 4)];
      for (uint32_t I = 0; I != Len && Fields.size() < N; ++I)
        Fields.push_back(Z);
    }
  }

  std::mt19937 Rng;
  uint32_t NumGlobals = 0, NumObjs = 0, NumThreads = 1;
};

void expectSameState(const MachineState &A, const MachineState &B) {
  EXPECT_EQ(A.Globals, B.Globals);
  ASSERT_EQ(A.Heap.size(), B.Heap.size());
  for (size_t I = 0; I != A.Heap.size(); ++I)
    EXPECT_EQ(A.Heap[I].Fields, B.Heap[I].Fields) << "object " << I;
  ASSERT_EQ(A.Threads.size(), B.Threads.size());
  for (size_t T = 0; T != A.Threads.size(); ++T) {
    EXPECT_EQ(A.Threads[T].AtomicDepth, B.Threads[T].AtomicDepth);
    ASSERT_EQ(A.Threads[T].Frames.size(), B.Threads[T].Frames.size());
    for (size_t F = 0; F != A.Threads[T].Frames.size(); ++F) {
      const Frame &X = A.Threads[T].Frames[F], &Y = B.Threads[T].Frames[F];
      EXPECT_EQ(X.Func, Y.Func);
      EXPECT_EQ(X.PC, Y.PC);
      EXPECT_EQ(X.RetVar.Scope, Y.RetVar.Scope);
      EXPECT_EQ(X.RetVar.Index, Y.RetVar.Index);
      EXPECT_EQ(X.Locals, Y.Locals);
    }
  }
}

TEST(EncodeStateTest, DecodeReencodesToTheSameKey) {
  RandomStates Gen(20040601);
  MachineState D; // Reused, as the engines reuse their working state.
  for (int I = 0; I != 300; ++I) {
    SCOPED_TRACE("state " + std::to_string(I));
    const MachineState S = Gen.next();
    const std::string Key = encodeState(S);
    decodeStateInto(Key, D);
    EXPECT_EQ(encodeState(D), Key);
    expectSameState(S, D);
    KeyLayout L;
    decodeStateInto(Key, D, L);
    EXPECT_EQ(encodeState(D), Key);
  }
}

/// A state whose one global points at one heap object with \p Fields.
MachineState stateWithObject(std::vector<Value> Fields) {
  MachineState S = makeStateWithHeap();
  S.Heap.push_back(HeapObject{nullptr, std::move(Fields)});
  S.Globals[0] = Value::makePtr(MemAddr{AddrSpace::Heap, 0, 0, 0});
  return S;
}

TEST(EncodeStateTest, ZeroRunsAreCanonical) {
  // The four zero scalars, and function 0, in the same field.
  const std::vector<Value> Zeros = {Value::makeUndef(), Value::makeInt(0),
                                    Value::makeBool(false), Value::makeFunc(-1),
                                    Value::makeFunc(0)};
  std::vector<std::string> Keys;
  for (const Value &Z : Zeros)
    Keys.push_back(encodeState(stateWithObject({Z})));
  for (size_t I = 0; I != Keys.size(); ++I)
    for (size_t J = I + 1; J != Keys.size(); ++J)
      EXPECT_NE(Keys[I], Keys[J]) << I << " vs " << J;

  // A run split by one non-zero field differs from the unsplit run, and
  // from the same split at another position.
  std::vector<Value> Run(11, Value::makeInt(0));
  std::vector<Value> Split = Run, Moved = Run;
  Split[5] = Value::makeInt(1);
  Moved[6] = Value::makeInt(1);
  EXPECT_NE(encodeState(stateWithObject(Run)),
            encodeState(stateWithObject(Split)));
  EXPECT_NE(encodeState(stateWithObject(Split)),
            encodeState(stateWithObject(Moved)));

  // Runs of two kinds back to back stay two runs.
  std::vector<Value> Mixed(4, Value::makeInt(0));
  Mixed[2] = Mixed[3] = Value::makeBool(false);
  EXPECT_NE(encodeState(stateWithObject(Run)),
            encodeState(stateWithObject(Mixed)));

  // The encoder takes the longest run: 300 zeros are a 255-field run and
  // a 45-field run, and 255 zeros are one run.
  const size_t Empty = encodeState(stateWithObject({})).size();
  EXPECT_EQ(encodeState(stateWithObject(std::vector<Value>(255, Value())))
                .size(),
            Empty + KeyZeroRunBytes);
  EXPECT_EQ(
      encodeState(stateWithObject(std::vector<Value>(300, Value::makeInt(0))))
          .size(),
      Empty + 2 * KeyZeroRunBytes);
}

} // namespace
