//===- ThreadedEngine.cpp -------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "seqcheck/exec/ThreadedEngine.h"

#include "seqcheck/Eval.h"
#include "seqcheck/Explorer.h"

#include <cassert>
#include <cstring>
#include <deque>

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::lang;
using namespace kiss::seqcheck;

// Computed-goto dispatch where the toolchain has labels-as-values (GCC and
// Clang both do); elsewhere the switch below compiles to the same jump
// table. KISS_OP places a label on each opcode's case so one body serves
// both dispatch paths.
#if defined(__GNUC__)
#define KISS_COMPUTED_GOTO 1
#define KISS_OP(L) L:
#else
#define KISS_OP(L)
#endif

namespace {

/// Pre-lowered opcodes: one per CFG node, dispatched without touching the
/// cfg::Node or re-classifying statements. Order must match the JumpTable
/// in expand().
enum class OpCode : uint8_t {
  Jump,        ///< Single-successor junction (Nop) or skip.
  Branch,      ///< Multi-successor (or dead-end) junction.
  AtomicBegin, ///< ++AtomicDepth.
  AtomicEnd,   ///< --AtomicDepth.
  AssignVar,   ///< v = single-valued rhs.
  AssignMem,   ///< *p / p->f = single-valued rhs.
  NondetBool,  ///< v = nondet bool: two successors, false then true.
  NondetRange, ///< v = nondet [lo, hi]: one successor per value.
  Assert,      ///< assert(cond).
  Assume,      ///< assume(cond): false blocks the path.
  Async,       ///< Always an error in a sequential program.
  Trap,        ///< Unexpected statement kind (defensive).
  Call,        ///< Push a frame.
  Return,      ///< Pop a frame, optionally writing the return value.
};

/// One pre-lowered instruction. Operand slots are resolved at lowering
/// time; the hot loop never walks the AST except to evaluate expressions.
struct Op {
  OpCode Code = OpCode::Trap;
  /// AssignVar only: evaluating RHS cannot allocate (RHS is not `new`), so
  /// a scalar result may be patched into the parent key in place.
  bool NoAlloc = false;
  VarId Dst;                           ///< AssignVar/Nondet*/Call result.
  uint32_t Succ0 = 0;                  ///< Primary successor PC.
  uint32_t NSuccs = 0;                 ///< Branch successor count.
  const uint32_t *Succs = nullptr;     ///< Branch successor list.
  int64_t Lo = 0, Hi = 0;              ///< NondetRange bounds.
  const Expr *RHS = nullptr;           ///< RHS / condition / return atom.
  const Expr *LHS = nullptr;           ///< AssignMem lvalue.
  const CallExpr *CallE = nullptr;     ///< Call expression.
  const Stmt *S = nullptr;             ///< Error-location source.
};

/// Per-function facts the Call/Return opcodes need, pre-resolved.
struct FuncInfo {
  uint32_t Entry = 0;
  uint32_t NumLocals = 0;
  const Type *RetTy = nullptr;
};

class ThreadedEngine {
public:
  ThreadedEngine(const Program &P, const cfg::ProgramCFG &CFG,
                 const SeqOptions &Opts)
      : P(P), CFG(CFG), Opts(Opts), X(P, CFG, Opts) {
    lower();
  }

  CheckResult run() { return X.run(*this); }

  void root(const MachineState &Init, std::string &Key) {
    encodeStateInto(Init, Key);
    Sums.push_back(keyWordSum(Key));
  }

  /// Decodes state \p Id from its key into W and executes its op.
  StepResult::Kind expand(uint32_t Id, Explorer::Fault &F);

private:
  void lower();
  Op lowerNode(const cfg::Node &N) const;

  /// Executes the op at thread 0's PC in the decoded working state W
  /// (state \p Id), reached by step F.Step. Successors are interned via
  /// emit()/emitKey(); an error or bound outcome fills F.
  StepResult::Kind exec(uint32_t Id, Explorer::Fault &F);

  /// Interns the current working state as a successor of \p Id.
  void emit(uint32_t Id, const TraceStep &Step) {
    encodeStateInto(W, Scratch);
    const uint64_t Sum = keyWordSum(Scratch);
    if (X.emit(Scratch, Id, Step, keyHashFinish(Sum, Scratch.size())))
      Sums.push_back(Sum);
  }

  /// Interns PKey — the parent's key with successor bytes already patched
  /// in place — as a successor of \p Id. The fast path: no re-encoding,
  /// and no rehash either, since PSum followed every patch.
  void emitKey(uint32_t Id, const TraceStep &Step) {
    if (X.emit(PKey, Id, Step, keyHashFinish(PSum, PKey.size())))
      Sums.push_back(PSum);
  }

  //===--- In-place key patching ---===//
  //
  // Successors that only rewrite thread 0's PC, its AtomicDepth, or a
  // scalar (non-pointer over non-pointer) variable differ from the parent
  // key in a fixed-width slice whose offset Layout recorded during the
  // pop's decode. Patching those bytes directly produces exactly the bytes
  // encodeState would: global and local scalar records are always
  // KeyScalarBytes wide, and a scalar overwrite cannot change heap
  // reachability, so the renumbering and every other byte of the key are
  // untouched. W itself stays pristine (reads for expression evaluation
  // still see the parent state).
  //
  // PSum is PKey's key-hash word sum (keyWordSum), and no pop rehashes
  // PKey to get it: each state's sum is queued in Sums when the state is
  // interned and taken back when it is popped. Every write to PKey keeps
  // PSum current: a patch goes through patchBytes(), which rehashes only
  // the words it touches, and the Call and Return fast paths, which
  // append or cut the top frame record, rehash the tail from the append
  // or cut point (tailSum()). No other code writes PKey between the pop
  // and its last emitKey().

  /// Writes \p Bytes at offset \p Off of PKey and moves PSum along. N is
  /// a constant, so every copy and word load is a fixed-size move.
  template <size_t N> void patchBytes(uint32_t Off, const char (&Bytes)[N]) {
    const size_t First = Off / 8, Last = (Off + N - 1) / 8;
    for (size_t I = First; I <= Last; ++I)
      PSum -= keyWordMix(I, loadKeyWord(PKey.data(), PKey.size(), I));
    std::memcpy(PKey.data() + Off, Bytes, N);
    for (size_t I = First; I <= Last; ++I)
      PSum += keyWordMix(I, loadKeyWord(PKey.data(), PKey.size(), I));
  }

  /// The word sum of PKey from the word holding byte \p Off to the end.
  uint64_t tailSum(size_t Off) const { return keyWordSum(PKey, Off / 8); }

  void patchU32(uint32_t Off, uint32_t V) {
    char B[sizeof(V)];
    char *C = B;
    putKeyU32(C, V);
    patchBytes(Off, B);
  }

  void patchValue(uint32_t Off, const Value &V) {
    assert(V.K != ValueKind::Ptr && "pointer records are wider");
    char B[KeyScalarBytes];
    char *C = B;
    putKeyScalar(C, V);
    patchBytes(Off, B);
  }

  void patchPC(uint32_t PC) { patchU32(Layout.TopPCOff, PC); }

  uint32_t varOff(VarId Id) const {
    return Id.isGlobal() ? Layout.GlobalOff[Id.Index]
                         : Layout.TopLocalOff[Id.Index];
  }

  /// The current value of \p Id in the (unmutated) working state.
  const Value &varIn(VarId Id) const {
    return Id.isGlobal() ? W.Globals[Id.Index]
                         : W.Threads[0].Frames.back().Locals[Id.Index];
  }

  static StepResult::Kind
  err(Explorer::Fault &F, std::string Msg, const Op &I,
      StepResult::Kind K = StepResult::Kind::RuntimeError) {
    F.Message = std::move(Msg);
    F.Loc = I.S ? I.S->getLoc() : SourceLoc();
    return K;
  }

  const Program &P;
  const cfg::ProgramCFG &CFG;
  const SeqOptions &Opts;

  std::vector<Op> Ops;           ///< Flat instruction stream.
  std::vector<uint32_t> FuncBase; ///< Function -> offset into Ops.
  std::vector<FuncInfo> Funcs;

  Explorer X;
  std::string Scratch; ///< Encoding buffer, reused per intern.
  MachineState W;      ///< The one working state, reused per pop.
  std::string PKey;    ///< The popped key, patched per successor.
  uint64_t PSum = 0;   ///< PKey's key-hash word sum, kept through patches.
  /// The word sums of the interned states not yet expanded, in id order:
  /// the frontier's, 8 bytes a state.
  std::deque<uint64_t> Sums;
  KeyLayout Layout;    ///< Patch offsets into PKey.
};

void ThreadedEngine::lower() {
  const uint32_t NF = CFG.getNumFunctions();
  FuncBase.resize(NF);
  Funcs.resize(NF);
  uint32_t Total = 0;
  for (uint32_t F = 0; F != NF; ++F) {
    FuncBase[F] = Total;
    Total += CFG.getFunctionCFG(F).getNumNodes();
  }
  Ops.resize(Total);
  for (uint32_t F = 0; F != NF; ++F) {
    const cfg::FunctionCFG &FC = CFG.getFunctionCFG(F);
    const FuncDecl *FD = P.getFunction(F);
    Funcs[F] = FuncInfo{FC.getEntry(),
                        static_cast<uint32_t>(FD->getLocals().size()),
                        FD->getReturnType()};
    for (uint32_t N = 0, E = FC.getNumNodes(); N != E; ++N)
      Ops[FuncBase[F] + N] = lowerNode(FC.getNode(N));
  }
}

Op ThreadedEngine::lowerNode(const cfg::Node &N) const {
  Op O;
  O.S = N.S;
  O.NSuccs = static_cast<uint32_t>(N.Succs.size());
  O.Succs = N.Succs.data();
  O.Succ0 = N.Succs.empty() ? 0 : N.Succs[0];

  switch (N.Kind) {
  case cfg::NodeKind::Nop:
    O.Code = N.Succs.size() == 1 ? OpCode::Jump : OpCode::Branch;
    return O;

  case cfg::NodeKind::AtomicBegin:
    O.Code = OpCode::AtomicBegin;
    return O;

  case cfg::NodeKind::AtomicEnd:
    O.Code = OpCode::AtomicEnd;
    return O;

  case cfg::NodeKind::Stmt:
    switch (N.S->getKind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(N.S);
      if (const auto *ND = dyn_cast<NondetExpr>(A->getRHS())) {
        O.Dst = cast<VarRefExpr>(A->getLHS())->getVarId();
        if (ND->isBool()) {
          O.Code = OpCode::NondetBool;
        } else {
          O.Code = OpCode::NondetRange;
          O.Lo = ND->getLo();
          O.Hi = ND->getHi();
        }
        return O;
      }
      if (const auto *LV = dyn_cast<VarRefExpr>(A->getLHS())) {
        O.Code = OpCode::AssignVar;
        O.Dst = LV->getVarId();
        O.RHS = A->getRHS();
        // `new` is the only single-valued RHS that mutates the state
        // (and only ever as the whole RHS — atoms cannot nest it).
        O.NoAlloc = A->getRHS()->getKind() != ExprKind::New;
        return O;
      }
      O.Code = OpCode::AssignMem;
      O.LHS = A->getLHS();
      O.RHS = A->getRHS();
      return O;
    }
    case StmtKind::Assert:
      O.Code = OpCode::Assert;
      O.RHS = cast<AssertStmt>(N.S)->getCond();
      return O;
    case StmtKind::Assume:
      O.Code = OpCode::Assume;
      O.RHS = cast<AssumeStmt>(N.S)->getCond();
      return O;
    case StmtKind::Async:
      O.Code = OpCode::Async;
      return O;
    case StmtKind::Skip:
      O.Code = OpCode::Jump;
      return O;
    default:
      O.Code = OpCode::Trap;
      return O;
    }

  case cfg::NodeKind::Call:
    O.Code = OpCode::Call;
    if (const auto *A = dyn_cast<AssignStmt>(N.S)) {
      O.CallE = cast<CallExpr>(A->getRHS());
      O.Dst = cast<VarRefExpr>(A->getLHS())->getVarId();
    } else {
      O.CallE = cast<CallExpr>(cast<ExprStmt>(N.S)->getExpr());
    }
    return O;

  case cfg::NodeKind::Return:
    O.Code = OpCode::Return;
    O.RHS = N.S ? cast<ReturnStmt>(N.S)->getValue() : nullptr;
    return O;
  }
  return O;
}

StepResult::Kind ThreadedEngine::exec(uint32_t Id, Explorer::Fault &F) {
  const TraceStep &Step = F.Step;
  Thread &T0 = W.Threads[0];
  const Op &I = Ops[FuncBase[T0.Frames.back().Func] + T0.Frames.back().PC];

#ifdef KISS_COMPUTED_GOTO
  static const void *const JumpTable[] = {
      &&L_Jump,      &&L_Branch,      &&L_AtomicBegin, &&L_AtomicEnd,
      &&L_AssignVar, &&L_AssignMem,   &&L_NondetBool,  &&L_NondetRange,
      &&L_Assert,    &&L_Assume,      &&L_Async,       &&L_Trap,
      &&L_Call,      &&L_Return};
  goto *JumpTable[static_cast<unsigned>(I.Code)];
#endif

  switch (I.Code) {
  case OpCode::Jump:
    KISS_OP(L_Jump) {
      patchPC(I.Succ0);
      emitKey(Id, Step);
      return StepResult::Kind::Ok;
    }

  case OpCode::Branch:
    KISS_OP(L_Branch) {
      // PC is the only difference between successors, so each one is a
      // patch of the same four key bytes.
      for (uint32_t K = 0; K != I.NSuccs; ++K) {
        patchPC(I.Succs[K]);
        emitKey(Id, Step);
      }
      return StepResult::Kind::Ok;
    }

  case OpCode::AtomicBegin:
    KISS_OP(L_AtomicBegin) {
      patchPC(I.Succ0);
      patchU32(Layout.AtomicOff, T0.AtomicDepth + 1);
      emitKey(Id, Step);
      return StepResult::Kind::Ok;
    }

  case OpCode::AtomicEnd:
    KISS_OP(L_AtomicEnd) {
      assert(T0.AtomicDepth > 0 && "unbalanced atomic brackets");
      patchPC(I.Succ0);
      patchU32(Layout.AtomicOff, T0.AtomicDepth - 1);
      emitKey(Id, Step);
      return StepResult::Kind::Ok;
    }

  case OpCode::AssignVar:
    KISS_OP(L_AssignVar) {
      Machine M(P, W, 0);
      Value V;
      if (!M.evalSingleRHS(I.RHS, V))
        return err(F, std::move(M.Error), I);
      if (I.NoAlloc && V.K != ValueKind::Ptr &&
          varIn(I.Dst).K != ValueKind::Ptr) {
        patchValue(varOff(I.Dst), V);
        patchPC(I.Succ0);
        emitKey(Id, Step);
        return StepResult::Kind::Ok;
      }
      M.writeVar(I.Dst, V);
      T0.Frames.back().PC = I.Succ0;
      emit(Id, Step);
      return StepResult::Kind::Ok;
    }

  case OpCode::AssignMem:
    KISS_OP(L_AssignMem) {
      Machine M(P, W, 0);
      Value V;
      MemAddr A;
      if (!M.evalSingleRHS(I.RHS, V) || !M.evalLValueAddr(I.LHS, A) ||
          !M.writeAddr(A, V))
        return err(F, std::move(M.Error), I);
      T0.Frames.back().PC = I.Succ0;
      emit(Id, Step);
      return StepResult::Kind::Ok;
    }

  case OpCode::NondetBool:
    KISS_OP(L_NondetBool) {
      // False then true, matching the interpreter's successor order.
      if (varIn(I.Dst).K != ValueKind::Ptr) {
        patchPC(I.Succ0);
        const uint32_t Off = varOff(I.Dst);
        patchValue(Off, Value::makeBool(false));
        emitKey(Id, Step);
        patchValue(Off, Value::makeBool(true));
        emitKey(Id, Step);
        return StepResult::Kind::Ok;
      }
      T0.Frames.back().PC = I.Succ0;
      Machine M(P, W, 0);
      M.writeVar(I.Dst, Value::makeBool(false));
      emit(Id, Step);
      M.writeVar(I.Dst, Value::makeBool(true));
      emit(Id, Step);
      return StepResult::Kind::Ok;
    }

  case OpCode::NondetRange:
    KISS_OP(L_NondetRange) {
      if (varIn(I.Dst).K != ValueKind::Ptr) {
        patchPC(I.Succ0);
        const uint32_t Off = varOff(I.Dst);
        for (int64_t V = I.Lo; V <= I.Hi; ++V) {
          patchValue(Off, Value::makeInt(V));
          emitKey(Id, Step);
        }
        return StepResult::Kind::Ok;
      }
      T0.Frames.back().PC = I.Succ0;
      Machine M(P, W, 0);
      for (int64_t V = I.Lo; V <= I.Hi; ++V) {
        M.writeVar(I.Dst, Value::makeInt(V));
        emit(Id, Step);
      }
      return StepResult::Kind::Ok;
    }

  case OpCode::Assert:
    KISS_OP(L_Assert) {
      Machine M(P, W, 0);
      bool Cond;
      if (!M.evalCondition(I.RHS, Cond))
        return err(F, std::move(M.Error), I);
      if (!Cond)
        return err(F, "assertion failed", I,
                   StepResult::Kind::AssertFailure);
      patchPC(I.Succ0);
      emitKey(Id, Step);
      return StepResult::Kind::Ok;
    }

  case OpCode::Assume:
    KISS_OP(L_Assume) {
      Machine M(P, W, 0);
      bool Cond;
      if (!M.evalCondition(I.RHS, Cond))
        return err(F, std::move(M.Error), I);
      if (!Cond)
        return StepResult::Kind::Blocked;
      patchPC(I.Succ0);
      emitKey(Id, Step);
      return StepResult::Kind::Ok;
    }

  case OpCode::Async:
    KISS_OP(L_Async) {
      return err(F, "async statement in a sequential program", I);
    }

  case OpCode::Trap:
    KISS_OP(L_Trap) {
      return err(F, "unexpected statement kind in a Stmt node", I);
    }

  case OpCode::Call:
    KISS_OP(L_Call) {
      if (T0.Frames.size() >= Opts.MaxFrames)
        return err(F, "stack depth bound exceeded", I,
                   StepResult::Kind::BoundExceeded);
      if (W.Threads.size() == 1) {
        // Fast path: with one thread the top frame is the final record of
        // the key, so a call is "append the callee's frame record". Arg
        // atoms are read from the unmutated parent state, whose heap
        // bases are already canonical; any object an arg references is
        // referenced by an earlier record too (the atom read it from a
        // global or caller local), so appending cannot perturb the
        // renumbering and every earlier byte stays valid.
        Machine M(P, W, 0);
        uint32_t Callee;
        if (!resolveCallee(M, I.CallE->getCallee(), P, Callee))
          return err(F, std::move(M.Error), I);
        const FuncInfo &FI = Funcs[Callee];
        const auto &Args = I.CallE->getArgs();
        const size_t Base = PKey.size();
        const uint64_t OldTail = tailSum(Base);
        PKey.resize(Base + KeyFrameHeaderBytes +
                    KeyPtrBytes * size_t(FI.NumLocals));
        char *C = PKey.data() + Base;
        putKeyFrameHeader(C, Callee, FI.Entry, I.Dst, FI.NumLocals);
        for (unsigned K = 0, E = Args.size(); K != E; ++K) {
          Value V;
          if (!M.evalAtom(Args[K].get(), V)) {
            PKey.resize(Base);
            return err(F, std::move(M.Error), I);
          }
          putKeyValue(C, V);
        }
        for (unsigned K = Args.size(); K < FI.NumLocals; ++K)
          putKeyValue(C, Value());
        PKey.resize(static_cast<size_t>(C - PKey.data()));
        PSum += tailSum(Base) - OldTail;
        patchPC(I.Succ0); // Caller resumes after the call.
        patchU32(Layout.AtomicOff + 4,
                 static_cast<uint32_t>(T0.Frames.size()) + 1);
        emitKey(Id, Step);
        return StepResult::Kind::Ok;
      }
      T0.Frames.back().PC = I.Succ0; // Caller resumes after the call.
      Machine M(P, W, 0);
      uint32_t Callee;
      if (!resolveCallee(M, I.CallE->getCallee(), P, Callee))
        return err(F, std::move(M.Error), I);
      const FuncInfo &FI = Funcs[Callee];
      Frame NF;
      NF.Func = Callee;
      NF.PC = FI.Entry;
      NF.Locals.resize(FI.NumLocals);
      NF.RetVar = I.Dst;
      for (unsigned K = 0, E = I.CallE->getArgs().size(); K != E; ++K) {
        Value V;
        if (!M.evalAtom(I.CallE->getArgs()[K].get(), V))
          return err(F, std::move(M.Error), I);
        NF.Locals[K] = V;
      }
      T0.Frames.push_back(std::move(NF));
      emit(Id, Step);
      return StepResult::Kind::Ok;
    }

  case OpCode::Return:
    KISS_OP(L_Return) {
      Machine M(P, W, 0);
      Value Ret = defaultValue(Funcs[T0.Frames.back().Func].RetTy);
      if (I.RHS && !M.evalAtom(I.RHS, Ret))
        return err(F, std::move(M.Error), I);
      VarId RetVar = T0.Frames.back().RetVar;
      if (W.Threads.size() == 1) {
        // Fast path: truncate the top frame record off the key. Valid only
        // when the popped locals hold no heap pointers — the popped frame
        // is the last reachability root, so dropping it can only orphan
        // (and so renumber away) objects those locals pointed at — and
        // when the return value lands as a scalar over a scalar (or not
        // at all), keeping the caller-slot patch width-preserving.
        const Frame &Pop = T0.Frames.back();
        bool HeapRefs = false;
        for (const Value &V : Pop.Locals)
          if (V.K == ValueKind::Ptr && V.A.Space == AddrSpace::Heap) {
            HeapRefs = true;
            break;
          }
        const size_t NFrames = T0.Frames.size();
        const bool Writes = NFrames > 1 && RetVar.isResolved();
        bool WriteOk = true;
        if (Writes) {
          const Value &Slot = RetVar.isGlobal()
                                  ? W.Globals[RetVar.Index]
                                  : T0.Frames[NFrames - 2].Locals[RetVar.Index];
          WriteOk = Ret.K != ValueKind::Ptr && Slot.K != ValueKind::Ptr;
        }
        if (!HeapRefs && WriteOk) {
          const size_t Cut = Layout.TopPCOff - 4; // Func starts the record.
          PSum -= tailSum(Cut);
          PKey.resize(Cut);
          PSum += tailSum(Cut);
          patchU32(Layout.AtomicOff + 4, static_cast<uint32_t>(NFrames) - 1);
          if (Writes)
            patchValue(RetVar.isGlobal() ? Layout.GlobalOff[RetVar.Index]
                                         : Layout.PrevLocalOff[RetVar.Index],
                       Ret);
          emitKey(Id, Step);
          return StepResult::Kind::Ok;
        }
      }
      T0.Frames.pop_back();
      if (!T0.Frames.empty() && RetVar.isResolved())
        M.writeVar(RetVar, Ret); // Acts on the caller's top frame.
      emit(Id, Step);
      return StepResult::Kind::Ok;
    }
  }
  return err(F, "unknown CFG node kind", Ops[0]);
}

StepResult::Kind ThreadedEngine::expand(uint32_t Id, Explorer::Fault &F) {
  // Copy the popped key into the patch buffer: successor interns may grow
  // the arena (or, in delta mode, reuse the materialization scratch), so
  // the KeyRef view cannot outlive them.
  {
    StateStore::KeyRef K = X.store().key(Id);
    PKey.assign(K.data(), K.size());
  }
  assert(Sums.size() == X.store().size() - Id && "one queued sum per id");
  PSum = Sums.front();
  Sums.pop_front();
  decodeStateInto(PKey, W, Layout);
  if (W.Threads[0].Frames.empty())
    return StepResult::Kind::Ok; // Accepting leaf: the program completed.

  const Frame &Top = W.Threads[0].Frames.back();
  F.Step = TraceStep{0, Top.Func, Top.PC};
  // Error outcomes end the run in every engine, so only Ok and Blocked
  // expansions are attributed, as in the interpreter.
  const Explorer::Mark M = X.mark();
  StepResult::Kind K = exec(Id, F);
  if (K == StepResult::Kind::Ok || K == StepResult::Kind::Blocked)
    X.attribute(F.Step, M);
  return K;
}

} // namespace

CheckResult exec::checkProgramThreaded(const Program &P,
                                       const cfg::ProgramCFG &CFG,
                                       const SeqOptions &Opts) {
  return ThreadedEngine(P, CFG, Opts).run();
}
