//===- Transform.cpp - The KISS sequentialization -------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "kiss/Transform.h"

#include "alias/Steensgaard.h"
#include "kiss/Builder.h"
#include "lower/Lower.h"
#include "support/Diagnostics.h"
#include "telemetry/Telemetry.h"

#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <set>

using namespace kiss;
using namespace kiss::core;
using namespace kiss::lang;

std::string RaceTarget::str(const SymbolTable &Syms) const {
  if (K == Kind::Global)
    return std::string(Syms.str(GlobalName));
  return std::string(Syms.str(StructName)) + "." +
         std::string(Syms.str(FieldName));
}

namespace {

/// Maximum supported arity of thread start functions.
constexpr unsigned MaxAsyncArity = 4;

/// Stamps Origin pointers: each node of \p Clone refers to the structurally
/// matching node of \p Orig. Both trees list their statements in the same
/// pre-order; the per-thread list of \p Orig's statements stops allocating
/// once it has grown to the largest statement cloned.
void zipOrigins(const Stmt *Orig, Stmt *Clone) {
  thread_local std::vector<const Stmt *> OrigOrder;
  OrigOrder.clear();
  forEachStmtPreorder(Orig, [](const Stmt *S) { OrigOrder.push_back(S); });
  size_t I = 0;
  forEachStmtPreorder(Clone, [&I](Stmt *S) { S->setOrigin(OrigOrder[I++]); });
  assert(I == OrigOrder.size() && "clone differs in shape");
}

/// Rewrites every function reference under \p N (an Expr or a Stmt) to the
/// transformed function's name (indices are preserved by construction).
template <typename NodeT>
void renameFuncRefs(NodeT *N, const std::vector<Symbol> &NewNames) {
  forEachExprPreorder(N, [&NewNames](Expr *E) {
    if (auto *F = dyn_cast<FuncRefExpr>(E))
      F->setName(NewNames[F->getFuncIndex()]);
  });
}

/// The call core statement \p S makes (`x = f(...)` or `f(...);`), or null.
const CallExpr *callOf(const Stmt *S) {
  if (const auto *A = dyn_cast<AssignStmt>(S))
    return dyn_cast<CallExpr>(A->getRHS());
  if (const auto *E = dyn_cast<ExprStmt>(S))
    return dyn_cast<CallExpr>(E->getExpr());
  return nullptr;
}

/// One syntactic access to memory within a core statement.
struct Access {
  enum class Via : uint8_t {
    Var,        ///< Node is a VarRefExpr read/written directly.
    DerefPtr,   ///< Node is a DerefExpr: access through a pointer.
    FieldOfObj, ///< Node is a FieldExpr: access to base->field.
  };
  Via V;
  const Expr *Node;
  bool IsWrite;
};

/// Static navigation ids for the K>2 suspend/resume machinery, assigned
/// per original statement in DFS pre-order. A statement owns the id range
/// [Lo, Hi] covering itself and everything nested inside it; call
/// statements get a second id (Inner) meaning "suspended somewhere inside
/// the callee".
struct StmtIds {
  int Id = 0;
  int Inner = -1;
  int Lo = 0;
  int Hi = 0;
};

/// Per-function state for a resumable (__kiss_susp_*) variant.
struct SuspFunc {
  uint32_t SuspIdx = 0;          ///< Function index of the variant in Out.
  VarId Pc;                      ///< __pc_<f>: where the frame suspended.
  std::vector<VarId> LocalSlots; ///< Globalized original locals (params first).
  std::vector<VarId> TempSlots;  ///< Globalized synthesized call temps.
  std::map<const Stmt *, StmtIds> Ids;
};

/// The whole translation state for one run.
class KissTransformer {
public:
  KissTransformer(const Program &P, const TransformOptions &Opts,
                  DiagnosticEngine &Diags, const RaceTarget *Target,
                  TransformStats *Stats)
      : P(P), Opts(Opts), Diags(Diags), Target(Target), Stats(Stats),
        Syms(P.getSymbolTable()), Types(P.getTypeContext()) {}

  std::unique_ptr<Program> run();

private:
  bool validateInput();
  bool collectAsyncSignature();
  void analyzeResumable();
  void cloneStructs();
  void copyGlobals();
  void addInstrumentationGlobals();
  void declareFunctions();
  void transformBodies();
  void buildSchedule();
  void buildDriver();

  //===--- Statement translation ---===//
  void xformStmtInto(const Stmt *S, std::vector<StmtPtr> &Out);
  StmtPtr xformToBlock(const Stmt *S);
  void emitPrefix(const Stmt *S, std::vector<StmtPtr> &Out,
                  bool PlainRaiseBranch, const StmtIds *Susp = nullptr);
  void emitScheduleCall(std::vector<StmtPtr> &Out);
  StmtPtr makeDefaultReturn();
  StmtPtr makeRaiseBranch();
  StmtPtr makePropagate();
  StmtPtr translateUserClone(const Stmt *S);
  void instrumentAtomicAssumes(Stmt *S);
  StmtPtr makeAtomicRelease(const AssumeStmt *A, const StmtIds *Susp);
  void emitAsync(const AsyncStmt *S, std::vector<StmtPtr> &Out);

  //===--- K>2 suspend/resume (the susp-variant bodies) ---===//
  void numberStmts(const Stmt *S, SuspFunc &F, int &Next);
  void suspStmtInto(const Stmt *S, std::vector<StmtPtr> &Out);
  void suspAtomicMemberInto(StmtPtr M, std::vector<StmtPtr> &Out);
  StmtPtr makeSuspendArm(int PcId, ExprPtr Guard = nullptr);
  StmtPtr makeSuspPropagate(int InnerPc);
  StmtPtr makeSkipArm(const StmtIds &I);
  StmtPtr makeNavRangeGuard(const StmtIds &I);
  StmtPtr makeLeafEntry(const Stmt *S, const StmtIds &I, bool PlainRaise);
  void emitGuarded(const StmtIds &I, std::vector<StmtPtr> Enter,
                   std::vector<StmtPtr> &Out);
  void emitSuspCall(const Stmt *S, std::vector<StmtPtr> &Out);
  template <typename NodeT> void suspAdjust(NodeT *N);
  int tagOfCallee(const Expr *Callee) const;
  std::vector<StmtPtr> makeResumableSiteStmts(const AsyncStmt *S, int Tag);
  void emitParamAssigns(uint32_t CandIdx,
                        const std::vector<ExprPtr> &Args, bool FromTsSlot,
                        unsigned Slot, std::vector<StmtPtr> &Out);
  void emitPostDispatchCleanup(uint32_t CandIdx, std::vector<StmtPtr> &Out);
  ExprPtr defaultValueOf(const Type *Ty);

  //===--- Race probes ---===//
  void collectReadsOfExpr(const Expr *E, std::vector<Access> &Out);
  /// Replaces \p Out's contents with the accesses of \p S.
  void collectAccesses(const Stmt *S, std::vector<Access> &Out);
  StmtPtr makeProbeBranch(const Access &A, const Stmt *OriginStmt);
  void emitRaceObjCapture(const AssignStmt *OrigAssign,
                          std::vector<StmtPtr> &Out);
  const Type *targetValueType() const;

  bool isRaceMode() const { return Target != nullptr; }

  const Program &P;
  TransformOptions Opts;
  DiagnosticEngine &Diags;
  const RaceTarget *Target;
  TransformStats *Stats;
  SymbolTable &Syms;
  TypeContext &Types;

  std::unique_ptr<Program> Out;
  std::unique_ptr<Builder> B;

  std::vector<Symbol> NewNames; ///< Transformed name per function index.

  //===--- Instrumentation globals ---===//
  VarId RaiseVar;
  VarId TsSizeVar;
  std::vector<VarId> TsFnVars;
  std::vector<std::vector<VarId>> TsArgVars;
  VarId AccessVar;
  VarId RaceObjVar;
  VarId RaceAddrVar;

  const Type *AsyncFuncTy = nullptr;
  bool HasAsync = false;
  /// Whether the ts machinery (slots + scheduler calls) exists at all.
  bool HasTs = false;

  //===--- K>2 suspend/resume state ---===//
  /// Suspend/resume round budget: (MaxSwitches-1)/2, 0 at the default K=2.
  unsigned Rounds = 0;
  /// Whether any suspend/resume machinery is emitted at all (Rounds > 0
  /// and at least one async callee with an eligible call closure).
  bool HasSusp = false;
  /// Whether __kiss_schedule exists and is called at prefixes: the ts
  /// machinery needs it, and so do resumable threads (which must be
  /// re-entered from somewhere even when MaxTs == 0).
  bool HasSched = false;
  /// Eligible async callees, in function-index order; the position in this
  /// vector is the static dispatch tag stored in __susp_tag/__ts_tag<j>.
  std::vector<uint32_t> Candidates;
  /// Function indices (in P) that get a __kiss_susp_* variant.
  std::vector<uint32_t> SuspClosureFns;
  /// Per-candidate call closure (function indices in P, candidate first).
  std::map<uint32_t, std::vector<uint32_t>> CandClosure;
  std::map<uint32_t, SuspFunc> SuspFns;
  /// Non-null while transforming a susp-variant body.
  SuspFunc *CurSusp = nullptr;

  VarId RoundsVar;
  VarId NavVar;
  VarId SuspActiveVar;
  VarId SuspBusyVar;
  VarId SuspendingVar;
  VarId SuspTagVar;
  std::vector<VarId> TsTagVars;

  uint32_t ScheduleIdx = 0;
  uint32_t CurFuncIdx = 0;

  std::optional<alias::PointsTo> AA;
  /// emitPrefix's scratch list of one statement's accesses.
  std::vector<Access> Accesses;
};

bool KissTransformer::validateInput() {
  std::string Why;
  SourceLoc WhyLoc;
  if (!lower::isCoreProgram(P, &Why, &WhyLoc)) {
    Diags.error(WhyLoc, "KISS transformation requires a core program: " +
                            Why);
    return false;
  }
  const FuncDecl *Entry = P.getEntryFunction();
  if (!Entry || Entry->getNumParams() != 0) {
    Diags.error(Entry ? Entry->getLoc() : SourceLoc(),
                "KISS transformation requires a parameterless entry "
                "function");
    return false;
  }
  if (Target && Target->K == RaceTarget::Kind::Global &&
      P.getGlobalIndex(Target->GlobalName) < 0) {
    Diags.error(SourceLoc(), "race target names an unknown global");
    return false;
  }
  if (Target && Target->K == RaceTarget::Kind::Field) {
    const StructDecl *S = P.getStruct(Target->StructName);
    if (!S || S->getFieldIndex(Target->FieldName) < 0) {
      Diags.error(SourceLoc(), "race target names an unknown struct field");
      return false;
    }
  }
  return true;
}

/// Scans for async statements and validates the shared signature rule.
bool KissTransformer::collectAsyncSignature() {
  const Type *Sig = nullptr;
  bool Mixed = false;
  SourceLoc FirstLoc; ///< The async that established the signature.
  SourceLoc MixedLoc; ///< The first async that deviates from it.
  for (const auto &F : P.getFunctions())
    forEachStmtPreorder(F->getBody(), [&](const Stmt *S) {
      const auto *A = dyn_cast<AsyncStmt>(S);
      if (!A)
        return;
      const Type *T = A->getCallee()->getType();
      if (!Sig) {
        Sig = T;
        FirstLoc = S->getLoc();
      } else if (Sig != T && !Mixed) {
        Mixed = true;
        MixedLoc = S->getLoc();
      }
    });

  if (Mixed) {
    Diags.error(MixedLoc, "all async start functions must share one signature");
    return false;
  }
  HasAsync = Sig != nullptr;
  AsyncFuncTy = Sig;
  if (HasAsync && AsyncFuncTy->getParamTypes().size() > MaxAsyncArity) {
    Diags.error(FirstLoc, "async start functions may take at most " +
                                   std::to_string(MaxAsyncArity) +
                                   " arguments");
    return false;
  }
  HasTs = HasAsync && Opts.MaxTs > 0;
  return true;
}

/// Assigns navigation ids (DFS pre-order over the original body). Call
/// statements reserve a second id right after their own for the
/// "suspended inside the callee" state.
void KissTransformer::numberStmts(const Stmt *S, SuspFunc &F, int &Next) {
  StmtIds I;
  I.Id = Next++;
  I.Lo = I.Id;
  if (callOf(S))
    I.Inner = Next++;
  forEachSubStmt(S, [&](const Stmt *Sub) { numberStmts(Sub, F, Next); });
  I.Hi = Next - 1;
  F.Ids[S] = I;
}

/// Decides which forked threads can suspend and resume (K > 2 only). A
/// thread started by `async f(...)` is resumable when f is a function
/// literal and every function in f's direct-call closure is free of
/// recursion and indirect calls: then all of its live state can be
/// globalized into per-function slots (the single-frame-per-function
/// property), which is what lets a suspended stack be reconstructed by
/// plain statement-level navigation instead of a saved stack.
void KissTransformer::analyzeResumable() {
  Rounds = Opts.MaxSwitches <= 2 ? 0 : (Opts.MaxSwitches - 1) / 2;
  if (Stats)
    Stats->Rounds = Rounds;
  if (Rounds == 0 || !HasAsync)
    return;

  unsigned NumFns = P.getFunctions().size();

  // Direct call graph + indirect-call flags + async callee candidates.
  std::vector<std::vector<uint32_t>> Callees(NumFns);
  std::vector<bool> HasIndirect(NumFns, false);
  std::set<uint32_t> CandSet;

  for (uint32_t FI = 0; FI != NumFns; ++FI)
    forEachStmtPreorder(P.getFunctions()[FI]->getBody(), [&](const Stmt *S) {
      if (const auto *A = dyn_cast<AsyncStmt>(S)) {
        if (const auto *FR = dyn_cast<FuncRefExpr>(A->getCallee()))
          CandSet.insert(FR->getFuncIndex());
        else if (Stats)
          ++Stats->IndirectAsyncSites;
        return;
      }
      const CallExpr *C = callOf(S);
      if (!C)
        return;
      if (const auto *FR = dyn_cast<FuncRefExpr>(C->getCallee()))
        Callees[FI].push_back(FR->getFuncIndex());
      else
        HasIndirect[FI] = true;
    });

  // Per-candidate closure with cycle detection (colors: 0 new, 1 on the
  // DFS stack, 2 done-and-acyclic-from-here).
  std::set<uint32_t> ClosureUnion;
  for (uint32_t Cand : CandSet) {
    std::vector<uint8_t> Color(NumFns, 0);
    std::vector<uint32_t> Closure;
    bool Ok = true;
    std::function<void(uint32_t)> Dfs = [&](uint32_t F) {
      if (!Ok || Color[F] == 2)
        return;
      if (Color[F] == 1 || HasIndirect[F]) {
        Ok = false;
        return;
      }
      Color[F] = 1;
      Closure.push_back(F);
      for (uint32_t G : Callees[F])
        Dfs(G);
      Color[F] = 2;
    };
    Dfs(Cand);
    if (!Ok) {
      if (Stats)
        ++Stats->IneligibleCandidates;
      continue;
    }
    Candidates.push_back(Cand);
    CandClosure[Cand] = Closure;
    ClosureUnion.insert(Closure.begin(), Closure.end());
  }

  HasSusp = !Candidates.empty();
  if (!HasSusp)
    return;

  SuspClosureFns.assign(ClosureUnion.begin(), ClosureUnion.end());
  if (Stats)
    Stats->ResumableFunctions = SuspClosureFns.size();
  for (uint32_t FI : SuspClosureFns) {
    SuspFunc &F = SuspFns[FI];
    int Next = 1;
    numberStmts(P.getFunctions()[FI]->getBody(), F, Next);
  }
}

void KissTransformer::cloneStructs() {
  for (const auto &S : P.getStructs()) {
    StructDecl *NS = Out->addStruct(S->getName(), S->getLoc());
    for (const FieldDecl &F : S->getFields())
      NS->addField(F);
  }
}

void KissTransformer::copyGlobals() {
  for (const GlobalDecl &G : P.getGlobals())
    Out->addGlobal(G);
}

void KissTransformer::addInstrumentationGlobals() {
  const Type *BoolTy = Types.getBoolType();
  const Type *IntTy = Types.getIntType();

  RaiseVar = B->addGlobal("__raise", BoolTy, ConstInit::makeBool(false));

  if (HasTs) {
    TsSizeVar = B->addGlobal("__ts_size", IntTy, ConstInit::makeInt(0));
    const auto &Params = AsyncFuncTy->getParamTypes();
    for (unsigned Slot = 0; Slot != Opts.MaxTs; ++Slot) {
      TsFnVars.push_back(B->addGlobal("__ts_fn" + std::to_string(Slot),
                                      AsyncFuncTy, ConstInit::makeNull()));
      std::vector<VarId> ArgVars;
      for (unsigned J = 0; J != Params.size(); ++J) {
        std::optional<ConstInit> Init;
        if (Params[J]->isPointer() || Params[J]->isFunc())
          Init = ConstInit::makeNull();
        else if (Params[J]->isInt())
          Init = ConstInit::makeInt(0);
        else
          Init = ConstInit::makeBool(false);
        ArgVars.push_back(B->addGlobal("__ts_arg" + std::to_string(Slot) +
                                           "_" + std::to_string(J),
                                       Params[J], Init));
      }
      TsArgVars.push_back(std::move(ArgVars));
    }
  }

  if (HasSusp) {
    RoundsVar = B->addGlobal("__rounds", IntTy,
                             ConstInit::makeInt(static_cast<int>(Rounds)));
    NavVar = B->addGlobal("__nav", BoolTy, ConstInit::makeBool(false));
    SuspActiveVar =
        B->addGlobal("__susp_active", BoolTy, ConstInit::makeBool(false));
    SuspBusyVar =
        B->addGlobal("__susp_busy", BoolTy, ConstInit::makeBool(false));
    SuspendingVar =
        B->addGlobal("__suspending", BoolTy, ConstInit::makeBool(false));
    SuspTagVar = B->addGlobal("__susp_tag", IntTy, ConstInit::makeInt(0));
    if (HasTs)
      for (unsigned Slot = 0; Slot != Opts.MaxTs; ++Slot)
        TsTagVars.push_back(B->addGlobal("__ts_tag" + std::to_string(Slot),
                                         IntTy, ConstInit::makeInt(-1)));
    for (uint32_t FI : SuspClosureFns) {
      SuspFunc &F = SuspFns[FI];
      const FuncDecl *OF = P.getFunctions()[FI].get();
      std::string FName(Syms.str(OF->getName()));
      F.Pc = B->addGlobal("__pc_" + FName, IntTy, ConstInit::makeInt(0));
      const auto &Locals = OF->getLocals();
      for (unsigned L = 0; L != Locals.size(); ++L) {
        const Type *Ty = Locals[L].Ty;
        std::optional<ConstInit> Init;
        if (Ty->isInt())
          Init = ConstInit::makeInt(0);
        else if (Ty->isBool())
          Init = ConstInit::makeBool(false);
        else
          Init = ConstInit::makeNull();
        F.LocalSlots.push_back(
            B->addGlobal("__susp_" + FName + "_" + std::to_string(L) + "_" +
                             std::string(Syms.str(Locals[L].Name)),
                         Ty, Init));
      }
    }
  }

  if (isRaceMode()) {
    AccessVar = B->addGlobal("__access", IntTy, ConstInit::makeInt(0));
    const Type *ValTy = targetValueType();
    RaceAddrVar = B->addGlobal("__race_addr", Types.getPointerType(ValTy),
                               ConstInit::makeNull());
    if (Target->K == RaceTarget::Kind::Field) {
      const Type *ObjPtrTy =
          Types.getPointerType(Types.getStructType(Target->StructName));
      RaceObjVar = B->addGlobal("__race_obj", ObjPtrTy,
                                ConstInit::makeNull());
    }
  }
}

const Type *KissTransformer::targetValueType() const {
  assert(Target && "no race target");
  if (Target->K == RaceTarget::Kind::Global)
    return P.getGlobals()[P.getGlobalIndex(Target->GlobalName)].Ty;
  const StructDecl *S = P.getStruct(Target->StructName);
  return S->getFields()[S->getFieldIndex(Target->FieldName)].Ty;
}

void KissTransformer::declareFunctions() {
  NewNames.reserve(P.getFunctions().size());
  std::string NewSpelling;
  for (const auto &F : P.getFunctions()) {
    NewSpelling.assign("__kiss_");
    NewSpelling += Syms.str(F->getName());
    Symbol NewName = Syms.intern(NewSpelling);
    NewNames.push_back(NewName);
    FuncDecl *NF = Out->addFunction(NewName, F->getReturnType(), F->getLoc());
    NF->setNumParams(F->getNumParams());
    NF->getLocals() = F->getLocals();
    NF->setFuncType(F->getFuncType());
  }

  // The scheduler.
  ScheduleIdx = Out->getFunctions().size();
  FuncDecl *Sched = Out->addFunction(Syms.intern("__kiss_schedule"),
                                     Types.getVoidType(), SourceLoc());
  Sched->setFuncType(Types.getFuncType(Types.getVoidType(), {}));

  // The Check(s) driver becomes the new entry point "main"; the original
  // main was renamed to __kiss_main above, so the name is free.
  FuncDecl *Driver = Out->addFunction(Syms.intern("main"),
                                      Types.getVoidType(), SourceLoc());
  Driver->setFuncType(Types.getFuncType(Types.getVoidType(), {}));
  Out->setEntryName(Driver->getName());

  // K>2: resumable variants of every function in an eligible async
  // callee's call closure. They take no parameters and have no locals —
  // all of that state lives in the globalized __susp_* slots, which is
  // what makes a suspended activation navigable.
  for (uint32_t FI : SuspClosureFns) {
    const FuncDecl *OF = P.getFunctions()[FI].get();
    SuspFunc &SF = SuspFns[FI];
    SF.SuspIdx = Out->getFunctions().size();
    FuncDecl *NF = Out->addFunction(
        Syms.intern("__kiss_susp_" + std::string(Syms.str(OF->getName()))),
        OF->getReturnType(), OF->getLoc());
    NF->setFuncType(Types.getFuncType(OF->getReturnType(), {}));
  }
}

/// A `return` matching the current function's return type: RAISE aborts a
/// thread from anywhere, so non-void functions return a dummy default value
/// (it is never used — the caller propagates the raise).
StmtPtr KissTransformer::makeDefaultReturn() {
  const Type *RetTy = B->getFunction()->getReturnType();
  if (RetTy->isVoid())
    return B->returnStmt();
  if (RetTy->isInt())
    return B->returnStmt(B->intLit(0));
  if (RetTy->isBool())
    return B->returnStmt(B->boolLit(false));
  return B->returnStmt(B->nullLit(RetTy));
}

StmtPtr KissTransformer::makeRaiseBranch() {
  std::vector<StmtPtr> Stmts;
  Stmts.reserve(2);
  Stmts.push_back(B->assignVar(RaiseVar, B->boolLit(true)));
  Stmts.push_back(makeDefaultReturn());
  for (StmtPtr &S : Stmts)
    S->setRole(InstrRole::Raise);
  return B->block(std::move(Stmts));
}

StmtPtr KissTransformer::makePropagate() {
  // if (__raise) return;  ==  choice { assume(__raise); return }
  //                            or    { assume(!__raise) }
  std::vector<StmtPtr> TakenStmts;
  TakenStmts.reserve(2);
  TakenStmts.push_back(B->assumeStmt(B->varRef(RaiseVar)));
  TakenStmts.push_back(makeDefaultReturn());
  std::vector<StmtPtr> SkippedStmts;
  SkippedStmts.push_back(B->assumeStmt(B->notOf(B->varRef(RaiseVar))));

  std::vector<StmtPtr> Branches;
  Branches.reserve(2);
  Branches.push_back(B->block(std::move(TakenStmts)));
  Branches.push_back(B->block(std::move(SkippedStmts)));
  StmtPtr Choice = B->choice(std::move(Branches));
  Choice->setRole(InstrRole::Propagate);
  return Choice;
}

void KissTransformer::emitScheduleCall(std::vector<StmtPtr> &Out) {
  if (!HasSched)
    return; // With an empty ts and no resumable threads the scheduler is
            // a no-op; elide the call.
  StmtPtr Call = B->call(VarId(), ScheduleIdx, {});
  Call->setRole(InstrRole::SchedCall);
  Out.push_back(std::move(Call));
}

/// The per-statement prefix of Figures 4/5:
///   schedule(); choice { skip [] (RAISE | probes...) };
void KissTransformer::emitPrefix(const Stmt *S, std::vector<StmtPtr> &Out,
                                 bool PlainRaiseBranch, const StmtIds *Susp) {
  emitScheduleCall(Out);
  if (Stats)
    ++Stats->StatementsInstrumented;

  // §6 (future work realized): `benign`-annotated accesses are not
  // instrumented.
  bool Probes = isRaceMode() && !PlainRaiseBranch && !S->isBenign();
  if (Probes)
    collectAccesses(S, Accesses);

  std::vector<StmtPtr> Branches;
  Branches.reserve(3 + (Probes ? Accesses.size() : 0));
  Branches.push_back(B->skip());

  if (!isRaceMode() || PlainRaiseBranch)
    Branches.push_back(makeRaiseBranch());

  if (Probes) {
    for (const Access &A : Accesses) {
      StmtPtr Probe = makeProbeBranch(A, S);
      if (Probe) {
        if (CurSusp)
          suspAdjust(Probe.get());
        Branches.push_back(std::move(Probe));
      }
    }
  }

  // K>2, inside a susp variant: the thread may park here instead of
  // executing the statement (resume re-enters right at it).
  if (Susp && CurSusp)
    Branches.push_back(makeSuspendArm(Susp->Id));

  if (Branches.size() == 1)
    return; // Only skip: the whole choice is a no-op; elide it.
  Out.push_back(B->choice(std::move(Branches)));
}

StmtPtr KissTransformer::translateUserClone(const Stmt *S) {
  StmtPtr Clone = S->clone();
  zipOrigins(S, Clone.get());
  renameFuncRefs(Clone.get(), NewNames);
  if (CurSusp)
    suspAdjust(Clone.get());
  return Clone;
}

/// Rewrites a cloned atomic body in place: every assume(C) gains the
/// preceding choice of makeAtomicRelease. The atomic-block restrictions
/// (no calls/asyncs/returns/nested atomics) bound what can appear here.
/// Only block members are wrapped: lowering always materialises branch and
/// iter bodies as blocks, so an assume never sits directly under a choice
/// or iter.
void KissTransformer::instrumentAtomicAssumes(Stmt *S) {
  auto *Blk = dyn_cast<BlockStmt>(S);
  if (!Blk) {
    forEachSubStmt(S, [this](Stmt *Sub) { instrumentAtomicAssumes(Sub); });
    return;
  }
  auto &Stmts = Blk->getStmts();
  for (size_t I = 0; I != Stmts.size(); ++I) {
    auto *A = dyn_cast<AssumeStmt>(Stmts[I].get());
    if (!A) {
      instrumentAtomicAssumes(Stmts[I].get());
      continue;
    }
    Stmts.insert(Stmts.begin() + I, makeAtomicRelease(A, nullptr));
    ++I; // Past the inserted choice; the assume itself stays as-is.
  }
}

/// What an assume(C) inside an atomic section is preceded by, so that
/// blocking releases atomicity — and only blocking, as every arm but the
/// last is guarded on !C:
///   choice { assume(!C); RAISE } or { assume(!C); schedule() }
///       or { assume(!C); park }  or { skip }
/// RAISE gives the blocked thread up. The schedule arm (present whenever
/// the scheduler is) lets the pending threads run while this one waits,
/// after which assume(C) re-tests the condition, exactly as at a statement
/// boundary. The park arm exists only in a susp body (\p Susp): the thread
/// suspends here and a later round resumes it.
StmtPtr KissTransformer::makeAtomicRelease(const AssumeStmt *A,
                                           const StmtIds *Susp) {
  // Core assume conditions are atom or !atom: negate by unwrapping an
  // outer ! rather than stacking a second one.
  auto negated = [&]() -> ExprPtr {
    if (const auto *U = dyn_cast<UnaryExpr>(A->getCond());
        U && U->getOp() == UnaryOp::Not)
      return U->getSub()->clone();
    return B->notOf(A->getCond()->clone());
  };
  std::vector<StmtPtr> Branches;
  std::vector<StmtPtr> Blocked;
  Blocked.push_back(B->assumeStmt(negated()));
  Blocked.front()->setRole(InstrRole::Raise);
  Blocked.push_back(makeRaiseBranch());
  Branches.push_back(B->block(std::move(Blocked)));
  if (HasSched) {
    std::vector<StmtPtr> Wait;
    Wait.push_back(B->assumeStmt(negated()));
    Wait.front()->setRole(InstrRole::Raise);
    emitScheduleCall(Wait);
    Branches.push_back(B->block(std::move(Wait)));
  }
  if (Susp)
    Branches.push_back(makeSuspendArm(Susp->Id, negated()));
  Branches.push_back(B->skip());
  StmtPtr Release = B->choice(std::move(Branches));
  Release->setRole(InstrRole::Raise);
  return Release;
}

//===----------------------------------------------------------------------===//
// K>2 suspend/resume emission
//
// A resumable thread body is a clone where every local lives in a global
// __susp_* slot and every statement is wrapped in a navigation guard. A
// thread parks by stamping its __pc_* globals and unwinding with __raise
// (role Suspend); the scheduler re-enters it with __nav set, and the
// guards deterministically skip to the parked statement, whose saved
// effects are all in globals — nothing is re-executed.
//===----------------------------------------------------------------------===//

ExprPtr KissTransformer::defaultValueOf(const Type *Ty) {
  if (Ty->isInt())
    return B->intLit(0);
  if (Ty->isBool())
    return B->boolLit(false);
  return B->nullLit(Ty);
}

/// The static dispatch tag of an async callee: its position among the
/// eligible candidates, or -1 when the thread cannot suspend (indirect
/// callee or ineligible closure — those keep K=2 run-to-completion).
int KissTransformer::tagOfCallee(const Expr *Callee) const {
  const auto *FR = dyn_cast<FuncRefExpr>(Callee);
  if (!FR)
    return -1;
  for (unsigned T = 0; T != Candidates.size(); ++T)
    if (Candidates[T] == FR->getFuncIndex())
      return static_cast<int>(T);
  return -1;
}

/// `assume(__nav); assume(pc outside [Lo, Hi])` — taken when navigating
/// past this statement to the parked one.
StmtPtr KissTransformer::makeSkipArm(const StmtIds &I) {
  std::vector<StmtPtr> Stmts;
  Stmts.push_back(B->assumeStmt(B->varRef(NavVar)));
  ExprPtr Pc = B->varRef(CurSusp->Pc);
  if (I.Lo == I.Hi) {
    Stmts.push_back(
        B->assumeStmt(B->cmp(BinaryOp::Ne, std::move(Pc), B->intLit(I.Id))));
  } else {
    std::vector<StmtPtr> Below;
    Below.push_back(B->assumeStmt(
        B->cmp(BinaryOp::Lt, std::move(Pc), B->intLit(I.Lo))));
    std::vector<StmtPtr> Above;
    Above.push_back(B->assumeStmt(
        B->cmp(BinaryOp::Gt, B->varRef(CurSusp->Pc), B->intLit(I.Hi))));
    std::vector<StmtPtr> Branches;
    Branches.push_back(B->block(std::move(Below)));
    Branches.push_back(B->block(std::move(Above)));
    Stmts.push_back(B->choice(std::move(Branches)));
  }
  return B->block(std::move(Stmts));
}

/// `choice { assume(!__nav) } or { assume(__nav); assume(pc in range) }` —
/// placed at the head of a composite (or choice branch) so navigation can
/// only descend into the subtree holding the parked statement.
StmtPtr KissTransformer::makeNavRangeGuard(const StmtIds &I) {
  std::vector<StmtPtr> Off;
  Off.push_back(B->assumeStmt(B->notOf(B->varRef(NavVar))));
  std::vector<StmtPtr> On;
  On.push_back(B->assumeStmt(B->varRef(NavVar)));
  if (I.Lo == I.Hi) {
    On.push_back(B->assumeStmt(
        B->cmp(BinaryOp::Eq, B->varRef(CurSusp->Pc), B->intLit(I.Id))));
  } else {
    On.push_back(B->assumeStmt(
        B->cmp(BinaryOp::Ge, B->varRef(CurSusp->Pc), B->intLit(I.Lo))));
    On.push_back(B->assumeStmt(
        B->cmp(BinaryOp::Le, B->varRef(CurSusp->Pc), B->intLit(I.Hi))));
  }
  std::vector<StmtPtr> Branches;
  Branches.push_back(B->block(std::move(Off)));
  Branches.push_back(B->block(std::move(On)));
  return B->choice(std::move(Branches));
}

/// The suspend arm: with round budget left and no other thread already
/// parked, stamp the pc, mark the park, and unwind via __raise. The
/// `__suspending` marker distinguishes this unwind from an abandonment at
/// the dispatch site; the assignment setting it carries InstrRole::Suspend
/// so the trace mapper knows which thread parked.
StmtPtr KissTransformer::makeSuspendArm(int PcId, ExprPtr Guard) {
  std::vector<StmtPtr> Stmts;
  if (Guard)
    Stmts.push_back(B->assumeStmt(std::move(Guard)));
  Stmts.push_back(B->assumeStmt(
      B->cmp(BinaryOp::Gt, B->varRef(RoundsVar), B->intLit(0))));
  Stmts.push_back(B->assumeStmt(B->notOf(B->varRef(SuspActiveVar))));
  Stmts.push_back(B->assignVar(CurSusp->Pc, B->intLit(PcId)));
  Stmts.push_back(B->assignVar(SuspActiveVar, B->boolLit(true)));
  StmtPtr Mark = B->assignVar(SuspendingVar, B->boolLit(true));
  Mark->setRole(InstrRole::Suspend);
  Stmts.push_back(std::move(Mark));
  StmtPtr Raise = B->assignVar(RaiseVar, B->boolLit(true));
  Raise->setRole(InstrRole::Raise);
  Stmts.push_back(std::move(Raise));
  StmtPtr Ret = makeDefaultReturn();
  Ret->setRole(InstrRole::Raise);
  Stmts.push_back(std::move(Ret));
  return B->block(std::move(Stmts));
}

/// Propagation after a call in a susp body: an abandoning unwind returns
/// as usual, but a *suspending* unwind first stamps this frame's pc with
/// the call's Inner id so resume re-enters the callee without re-binding
/// its (already live) parameter slots.
StmtPtr KissTransformer::makeSuspPropagate(int InnerPc) {
  std::vector<StmtPtr> Taken;
  Taken.push_back(B->assumeStmt(B->varRef(RaiseVar)));
  {
    std::vector<StmtPtr> Parked;
    Parked.push_back(B->assumeStmt(B->varRef(SuspendingVar)));
    Parked.push_back(B->assignVar(CurSusp->Pc, B->intLit(InnerPc)));
    std::vector<StmtPtr> Plain;
    Plain.push_back(B->assumeStmt(B->notOf(B->varRef(SuspendingVar))));
    std::vector<StmtPtr> Inner;
    Inner.push_back(B->block(std::move(Parked)));
    Inner.push_back(B->block(std::move(Plain)));
    Taken.push_back(B->choice(std::move(Inner)));
  }
  Taken.push_back(makeDefaultReturn());
  std::vector<StmtPtr> Skipped;
  Skipped.push_back(B->assumeStmt(B->notOf(B->varRef(RaiseVar))));
  std::vector<StmtPtr> Branches;
  Branches.push_back(B->block(std::move(Taken)));
  Branches.push_back(B->block(std::move(Skipped)));
  StmtPtr Choice = B->choice(std::move(Branches));
  Choice->setRole(InstrRole::Propagate);
  return Choice;
}

/// `choice { [assume(!__nav); prefix...] [] [assume(__nav); assume(pc ==
/// Id); __nav := false] }` — the entry of a leaf statement: a fresh pass
/// runs the Figure-4 prefix (now including a suspend arm); a resume lands
/// here directly, skipping the prefix, and clears navigation.
StmtPtr KissTransformer::makeLeafEntry(const Stmt *S, const StmtIds &I,
                                       bool PlainRaise) {
  std::vector<StmtPtr> Fresh;
  Fresh.push_back(B->assumeStmt(B->notOf(B->varRef(NavVar))));
  emitPrefix(S, Fresh, PlainRaise, &I);
  std::vector<StmtPtr> Landed;
  Landed.push_back(B->assumeStmt(B->varRef(NavVar)));
  Landed.push_back(B->assumeStmt(
      B->cmp(BinaryOp::Eq, B->varRef(CurSusp->Pc), B->intLit(I.Id))));
  Landed.push_back(B->assignVar(NavVar, B->boolLit(false)));
  std::vector<StmtPtr> Branches;
  Branches.push_back(B->block(std::move(Fresh)));
  Branches.push_back(B->block(std::move(Landed)));
  return B->choice(std::move(Branches));
}

void KissTransformer::emitGuarded(const StmtIds &I, std::vector<StmtPtr> Enter,
                                  std::vector<StmtPtr> &Out) {
  std::vector<StmtPtr> Branches;
  Branches.push_back(makeSkipArm(I));
  Branches.push_back(B->block(std::move(Enter)));
  Out.push_back(B->choice(std::move(Branches)));
}

/// Moves every local variable reference under \p N (an Expr or a Stmt) to
/// its globalized __susp_* slot.
template <typename NodeT> void KissTransformer::suspAdjust(NodeT *N) {
  forEachExprPreorder(N, [this](Expr *E) {
    auto *V = dyn_cast<VarRefExpr>(E);
    if (!V || !V->getVarId().isLocal())
      return;
    VarId G = CurSusp->LocalSlots[V->getVarId().Index];
    V->setVarId(G);
    V->setName(Out->getGlobals()[G.Index].Name);
  });
}

/// A direct call in a susp body: parameters are bound into the callee's
/// globalized slots, the call targets the callee's susp variant, and the
/// result lands in a globalized temp so a suspended callee clobbers
/// nothing. Entry has three arms: fresh execution, resume *at* the call
/// (re-binding parameters is safe — a parked frame is never at pc == Id),
/// and resume *inside* the callee (slots already live, skip the binding).
void KissTransformer::emitSuspCall(const Stmt *S, std::vector<StmtPtr> &Out) {
  const auto *A = dyn_cast<AssignStmt>(S);
  const auto *CallE = A ? cast<CallExpr>(A->getRHS())
                        : cast<CallExpr>(cast<ExprStmt>(S)->getExpr());
  const auto *FR = cast<FuncRefExpr>(CallE->getCallee());
  SuspFunc &CF = SuspFns.at(FR->getFuncIndex());
  const StmtIds &I = CurSusp->Ids.at(S);

  auto paramAssigns = [&](std::vector<StmtPtr> &Dst) {
    for (unsigned K = 0; K != CallE->getArgs().size(); ++K) {
      ExprPtr Arg = CallE->getArgs()[K]->clone();
      renameFuncRefs(Arg.get(), NewNames);
      suspAdjust(Arg.get());
      Dst.push_back(B->assign(B->varRef(CF.LocalSlots[K]), std::move(Arg)));
    }
  };

  std::vector<StmtPtr> Fresh;
  Fresh.push_back(B->assumeStmt(B->notOf(B->varRef(NavVar))));
  emitPrefix(S, Fresh, /*PlainRaiseBranch=*/false, &I);
  paramAssigns(Fresh);

  std::vector<StmtPtr> AtCall;
  AtCall.push_back(B->assumeStmt(B->varRef(NavVar)));
  AtCall.push_back(B->assumeStmt(
      B->cmp(BinaryOp::Eq, B->varRef(CurSusp->Pc), B->intLit(I.Id))));
  AtCall.push_back(B->assignVar(NavVar, B->boolLit(false)));
  paramAssigns(AtCall);

  std::vector<StmtPtr> InCallee;
  InCallee.push_back(B->assumeStmt(B->varRef(NavVar)));
  InCallee.push_back(B->assumeStmt(
      B->cmp(BinaryOp::Eq, B->varRef(CurSusp->Pc), B->intLit(I.Inner))));

  std::vector<StmtPtr> Branches;
  Branches.push_back(B->block(std::move(Fresh)));
  Branches.push_back(B->block(std::move(AtCall)));
  Branches.push_back(B->block(std::move(InCallee)));
  Out.push_back(B->choice(std::move(Branches)));

  VarId Result;
  if (A) {
    std::string TmpName =
        "__susp_" + std::string(Syms.str(P.getFunctions()[CurFuncIdx]->getName())) +
        "_call" + std::to_string(CurSusp->TempSlots.size());
    const Type *RetTy = CallE->getType();
    std::optional<ConstInit> Init;
    if (RetTy->isInt())
      Init = ConstInit::makeInt(0);
    else if (RetTy->isBool())
      Init = ConstInit::makeBool(false);
    else
      Init = ConstInit::makeNull();
    Result = B->addGlobal(TmpName, RetTy, Init);
    CurSusp->TempSlots.push_back(Result);
  }
  StmtPtr Call = B->call(Result, CF.SuspIdx, {});
  Call->setRole(InstrRole::User);
  Call->setOrigin(S);
  Out.push_back(std::move(Call));
  Out.push_back(makeSuspPropagate(I.Inner));
  if (A) {
    ExprPtr Dest = A->getLHS()->clone();
    suspAdjust(Dest.get());
    StmtPtr Commit = B->assign(std::move(Dest), B->varRef(Result));
    Commit->setRole(InstrRole::Propagate);
    Out.push_back(std::move(Commit));
  }
}

/// One member of a (cloned, already susp-adjusted) atomic body. There are
/// no prefixes inside an atomic section; the only suspend points are the
/// atomicity-releasing assumes, which gain a suspend arm next to the K=2
/// RAISE arm — parking while blocked mid-atomic is a real scheduling
/// point, and the resume re-tests the condition.
void KissTransformer::suspAtomicMemberInto(StmtPtr M,
                                           std::vector<StmtPtr> &Out) {
  const Stmt *O = M->getOrigin();
  switch (M->getKind()) {
  case StmtKind::Block: {
    auto &Stmts = cast<BlockStmt>(M.get())->getStmts();
    for (StmtPtr &Sub : Stmts)
      suspAtomicMemberInto(std::move(Sub), Out);
    return;
  }
  case StmtKind::Assume: {
    const StmtIds &I = CurSusp->Ids.at(O);

    std::vector<StmtPtr> Enter;
    {
      std::vector<StmtPtr> Fresh;
      Fresh.push_back(B->assumeStmt(B->notOf(B->varRef(NavVar))));
      std::vector<StmtPtr> Landed;
      Landed.push_back(B->assumeStmt(B->varRef(NavVar)));
      Landed.push_back(B->assumeStmt(
          B->cmp(BinaryOp::Eq, B->varRef(CurSusp->Pc), B->intLit(I.Id))));
      Landed.push_back(B->assignVar(NavVar, B->boolLit(false)));
      std::vector<StmtPtr> EB;
      EB.push_back(B->block(std::move(Fresh)));
      EB.push_back(B->block(std::move(Landed)));
      Enter.push_back(B->choice(std::move(EB)));
    }
    Enter.push_back(makeAtomicRelease(cast<AssumeStmt>(M.get()), &I));
    Enter.push_back(std::move(M));
    emitGuarded(I, std::move(Enter), Out);
    return;
  }
  case StmtKind::Choice: {
    const StmtIds &I = CurSusp->Ids.at(O);
    auto *C = cast<ChoiceStmt>(M.get());
    std::vector<StmtPtr> NewBranches;
    for (StmtPtr &Br : C->getBranches()) {
      const StmtIds &BI = CurSusp->Ids.at(Br->getOrigin());
      std::vector<StmtPtr> BrStmts;
      BrStmts.push_back(makeNavRangeGuard(BI));
      suspAtomicMemberInto(std::move(Br), BrStmts);
      NewBranches.push_back(B->block(std::move(BrStmts)));
    }
    StmtPtr NewC = B->choice(std::move(NewBranches));
    NewC->setRole(M->getRole());
    NewC->setOrigin(O);
    std::vector<StmtPtr> Enter;
    Enter.push_back(makeNavRangeGuard(I));
    Enter.push_back(std::move(NewC));
    emitGuarded(I, std::move(Enter), Out);
    return;
  }
  case StmtKind::Iter: {
    const StmtIds &I = CurSusp->Ids.at(O);
    auto *It = cast<IterStmt>(M.get());
    std::vector<StmtPtr> BodyStmts;
    suspAtomicMemberInto(It->takeBody(), BodyStmts);
    StmtPtr NewIt = B->iter(B->block(std::move(BodyStmts)));
    NewIt->setRole(M->getRole());
    NewIt->setOrigin(O);
    std::vector<StmtPtr> Enter;
    Enter.push_back(makeNavRangeGuard(I));
    Enter.push_back(std::move(NewIt));
    emitGuarded(I, std::move(Enter), Out);
    return;
  }
  default: {
    // Leaves other than assume are never parked at: skip them wholesale
    // while navigating, run them otherwise.
    std::vector<StmtPtr> Skip;
    Skip.push_back(B->assumeStmt(B->varRef(NavVar)));
    std::vector<StmtPtr> Run;
    Run.push_back(B->assumeStmt(B->notOf(B->varRef(NavVar))));
    Run.push_back(std::move(M));
    std::vector<StmtPtr> Branches;
    Branches.push_back(B->block(std::move(Skip)));
    Branches.push_back(B->block(std::move(Run)));
    Out.push_back(B->choice(std::move(Branches)));
    return;
  }
  }
}

/// Parameter binding for a resumable dispatch: either from the ts slot's
/// captured argument globals, or from the async site's argument atoms.
void KissTransformer::emitParamAssigns(uint32_t CandIdx,
                                       const std::vector<ExprPtr> &Args,
                                       bool FromTsSlot, unsigned Slot,
                                       std::vector<StmtPtr> &Out) {
  SuspFunc &CF = SuspFns.at(CandIdx);
  for (unsigned K = 0; K != Args.size(); ++K) {
    ExprPtr V;
    if (FromTsSlot) {
      V = B->varRef(TsArgVars[Slot][K]);
    } else {
      V = Args[K]->clone();
      renameFuncRefs(V.get(), NewNames);
      if (CurSusp)
        suspAdjust(V.get());
    }
    Out.push_back(B->assign(B->varRef(CF.LocalSlots[K]), std::move(V)));
  }
}

/// After a resumable dispatch returns: either the thread completed — wipe
/// the closure's globalized state back to defaults so the run merges with
/// non-resumable completions in the dedup store — or it parked, which
/// just consumes the __suspending marker. Either way the busy flag,
/// navigation, and __raise are cleared (the latter exactly as Figure 4's
/// schedule() does after a dispatch).
void KissTransformer::emitPostDispatchCleanup(uint32_t CandIdx,
                                              std::vector<StmtPtr> &Out) {
  std::vector<StmtPtr> Done;
  Done.push_back(B->assumeStmt(B->notOf(B->varRef(SuspendingVar))));
  Done.push_back(B->assignVar(SuspTagVar, B->intLit(0)));
  for (uint32_t FI : CandClosure.at(CandIdx)) {
    SuspFunc &F = SuspFns.at(FI);
    Done.push_back(B->assignVar(F.Pc, B->intLit(0)));
    const auto &Globals = B->getProgram().getGlobals();
    for (VarId Slot : F.LocalSlots)
      Done.push_back(
          B->assignVar(Slot, defaultValueOf(Globals[Slot.Index].Ty)));
    for (VarId Slot : F.TempSlots)
      Done.push_back(
          B->assignVar(Slot, defaultValueOf(Globals[Slot.Index].Ty)));
  }
  std::vector<StmtPtr> Parked;
  Parked.push_back(B->assumeStmt(B->varRef(SuspendingVar)));
  Parked.push_back(B->assignVar(SuspendingVar, B->boolLit(false)));
  std::vector<StmtPtr> Branches;
  Branches.push_back(B->block(std::move(Done)));
  Branches.push_back(B->block(std::move(Parked)));
  Out.push_back(B->choice(std::move(Branches)));
  Out.push_back(B->assignVar(SuspBusyVar, B->boolLit(false)));
  Out.push_back(B->assignVar(NavVar, B->boolLit(false)));
  StmtPtr Reset = B->assignVar(RaiseVar, B->boolLit(false));
  Reset->setRole(InstrRole::Schedule);
  Out.push_back(std::move(Reset));
}

/// The "run it synchronously, but resumably" alternative at an async
/// site: instead of the Figure-4 synchronous call, dispatch the thread's
/// susp variant right here so it may park and be resumed later by the
/// scheduler. Guarded on no other thread being parked or mid-dispatch.
std::vector<StmtPtr>
KissTransformer::makeResumableSiteStmts(const AsyncStmt *S, int Tag) {
  uint32_t Cand = Candidates[Tag];
  std::vector<StmtPtr> Br;
  Br.push_back(B->assumeStmt(
      B->cmp(BinaryOp::Gt, B->varRef(RoundsVar), B->intLit(0))));
  Br.push_back(B->assumeStmt(B->notOf(B->varRef(SuspBusyVar))));
  Br.push_back(B->assumeStmt(B->notOf(B->varRef(SuspActiveVar))));
  emitParamAssigns(Cand, S->getArgs(), /*FromTsSlot=*/false, 0, Br);
  Br.push_back(B->assignVar(SuspTagVar, B->intLit(Tag)));
  Br.push_back(B->assignVar(SuspBusyVar, B->boolLit(true)));
  StmtPtr Call = B->call(VarId(), SuspFns.at(Cand).SuspIdx, {});
  Call->setRole(InstrRole::Schedule);
  Call->setOrigin(S);
  Br.push_back(std::move(Call));
  emitPostDispatchCleanup(Cand, Br);
  return Br;
}

void KissTransformer::collectReadsOfExpr(const Expr *E,
                                         std::vector<Access> &Out) {
  switch (E->getKind()) {
  case ExprKind::VarRef:
    Out.push_back(Access{Access::Via::Var, E, /*IsWrite=*/false});
    return;
  case ExprKind::Unary:
    collectReadsOfExpr(cast<UnaryExpr>(E)->getSub(), Out);
    return;
  case ExprKind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    collectReadsOfExpr(Bin->getLHS(), Out);
    collectReadsOfExpr(Bin->getRHS(), Out);
    return;
  }
  case ExprKind::Deref:
    collectReadsOfExpr(cast<DerefExpr>(E)->getSub(), Out);
    Out.push_back(Access{Access::Via::DerefPtr, E, /*IsWrite=*/false});
    return;
  case ExprKind::Field:
    collectReadsOfExpr(cast<FieldExpr>(E)->getBase(), Out);
    Out.push_back(Access{Access::Via::FieldOfObj, E, /*IsWrite=*/false});
    return;
  case ExprKind::AddrOf:
    // Taking an address reads nothing (Figure 5: v0 = &v1 only writes v0).
    return;
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(E);
    collectReadsOfExpr(C->getCallee(), Out);
    for (const ExprPtr &A : C->getArgs())
      collectReadsOfExpr(A.get(), Out);
    return;
  }
  default:
    return; // Literals, FuncRefs, New, Nondet: no reads.
  }
}

void KissTransformer::collectAccesses(const Stmt *S,
                                      std::vector<Access> &Out) {
  Out.clear();
  switch (S->getKind()) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    collectReadsOfExpr(A->getRHS(), Out);
    const Expr *LHS = A->getLHS();
    if (isa<VarRefExpr>(LHS)) {
      Out.push_back(Access{Access::Via::Var, LHS, /*IsWrite=*/true});
    } else if (const auto *D = dyn_cast<DerefExpr>(LHS)) {
      collectReadsOfExpr(D->getSub(), Out);
      Out.push_back(Access{Access::Via::DerefPtr, LHS, /*IsWrite=*/true});
    } else {
      const auto *Fd = cast<FieldExpr>(LHS);
      collectReadsOfExpr(Fd->getBase(), Out);
      Out.push_back(Access{Access::Via::FieldOfObj, LHS, /*IsWrite=*/true});
    }
    return;
  }
  case StmtKind::ExprStmt:
    collectReadsOfExpr(cast<ExprStmt>(S)->getExpr(), Out);
    return;
  case StmtKind::Async: {
    const auto *A = cast<AsyncStmt>(S);
    collectReadsOfExpr(A->getCallee(), Out);
    for (const ExprPtr &Arg : A->getArgs())
      collectReadsOfExpr(Arg.get(), Out);
    return;
  }
  case StmtKind::Assert:
    collectReadsOfExpr(cast<AssertStmt>(S)->getCond(), Out);
    return;
  case StmtKind::Assume:
    collectReadsOfExpr(cast<AssumeStmt>(S)->getCond(), Out);
    return;
  case StmtKind::Return:
    if (const Expr *V = cast<ReturnStmt>(S)->getValue())
      collectReadsOfExpr(V, Out);
    return;
  default:
    return;
  }
}

StmtPtr KissTransformer::makeProbeBranch(const Access &A,
                                         const Stmt *OriginStmt) {
  auto pruned = [&]() -> StmtPtr {
    if (Stats)
      ++Stats->ProbesPruned;
    return nullptr;
  };

  // Guard: a runtime identity test making imprecision harmless, or null
  // when the access statically is the target.
  ExprPtr Guard;

  switch (A.V) {
  case Access::Via::Var: {
    if (Target->K != RaceTarget::Kind::Global)
      return pruned();
    const auto *V = cast<VarRefExpr>(A.Node);
    VarId Id = V->getVarId();
    int TargetIdx = P.getGlobalIndex(Target->GlobalName);
    if (!Id.isGlobal() || Id.Index != static_cast<uint32_t>(TargetIdx))
      return pruned();
    break; // Unconditional probe.
  }

  case Access::Via::DerefPtr: {
    const Expr *Ptr = cast<DerefExpr>(A.Node)->getSub();
    const Type *Pointee = Ptr->getType()->getPointee();
    if (Pointee != targetValueType())
      return pruned();
    if (Opts.UseAliasAnalysis && AA) {
      alias::AbstractLoc TargetLoc =
          Target->K == RaceTarget::Kind::Global
              ? alias::AbstractLoc::global(
                    P.getGlobalIndex(Target->GlobalName))
              : alias::AbstractLoc::field(
                    Target->StructName,
                    P.getStruct(Target->StructName)
                        ->getFieldIndex(Target->FieldName));
      if (!AA->exprMayPointTo(Ptr, CurFuncIdx, TargetLoc))
        return pruned();
    }
    Guard = B->cmp(BinaryOp::Eq, Ptr->clone(), B->varRef(RaceAddrVar));
    break;
  }

  case Access::Via::FieldOfObj: {
    if (Target->K != RaceTarget::Kind::Field)
      return pruned();
    const auto *Fd = cast<FieldExpr>(A.Node);
    const Type *BaseTy = Fd->getBase()->getType();
    if (BaseTy->getPointee()->getStructName() != Target->StructName)
      return pruned();
    const StructDecl *SD = P.getStruct(Target->StructName);
    if (Fd->getFieldIndex() !=
        static_cast<uint32_t>(SD->getFieldIndex(Target->FieldName)))
      return pruned();
    Guard = B->cmp(BinaryOp::Eq, Fd->getBase()->clone(),
                   B->varRef(RaceObjVar));
    break;
  }
  }

  if (Stats)
    ++Stats->ProbesEmitted;

  // { [assume(guard);] assert(access-protocol); __access = ...; RAISE }
  std::vector<StmtPtr> Stmts;
  if (Guard)
    Stmts.push_back(B->assumeStmt(std::move(Guard)));
  if (A.IsWrite) {
    Stmts.push_back(B->assertStmt(
        B->cmp(BinaryOp::Eq, B->varRef(AccessVar), B->intLit(0))));
    Stmts.push_back(B->assignVar(AccessVar, B->intLit(2)));
  } else {
    Stmts.push_back(B->assertStmt(
        B->cmp(BinaryOp::Ne, B->varRef(AccessVar), B->intLit(2))));
    Stmts.push_back(B->assignVar(AccessVar, B->intLit(1)));
  }
  Stmts.push_back(B->assignVar(RaiseVar, B->boolLit(true)));
  Stmts.push_back(makeDefaultReturn());
  for (StmtPtr &St : Stmts) {
    St->setRole(InstrRole::Check);
    St->setOrigin(OriginStmt);
  }
  return B->block(std::move(Stmts));
}

void KissTransformer::emitRaceObjCapture(const AssignStmt *OrigAssign,
                                         std::vector<StmtPtr> &Out) {
  // After `v = new S` (S the monitored struct): capture the first
  // allocation as the monitored object, exactly like the paper monitors
  // the (once-allocated) device extension.
  //   choice { assume(__race_obj == null); __race_obj = v;
  //            __race_addr = &v->f; }
  //   or     { assume(__race_obj != null); }
  const auto *LHS = cast<VarRefExpr>(OrigAssign->getLHS());
  const Type *ObjPtrTy =
      Types.getPointerType(Types.getStructType(Target->StructName));

  const StructDecl *SDecl = P.getStruct(Target->StructName);
  uint32_t FieldIdx = SDecl->getFieldIndex(Target->FieldName);
  const Type *FieldTy = SDecl->getFields()[FieldIdx].Ty;

  std::vector<StmtPtr> CapStmts;
  CapStmts.push_back(B->assumeStmt(B->cmp(
      BinaryOp::Eq, B->varRef(RaceObjVar), B->nullLit(ObjPtrTy))));
  CapStmts.push_back(
      B->assign(B->varRef(RaceObjVar), B->varRef(LHS->getVarId())));
  {
    // __race_addr = &v->field;
    auto FieldE = std::make_unique<FieldExpr>(B->varRef(LHS->getVarId()),
                                              Target->FieldName, SourceLoc());
    FieldE->setFieldIndex(FieldIdx);
    FieldE->setType(FieldTy);
    auto Addr =
        std::make_unique<AddrOfExpr>(std::move(FieldE), SourceLoc());
    Addr->setType(Types.getPointerType(FieldTy));
    CapStmts.push_back(B->assign(B->varRef(RaceAddrVar), std::move(Addr)));
  }

  std::vector<StmtPtr> ElseStmts;
  ElseStmts.push_back(B->assumeStmt(B->cmp(
      BinaryOp::Ne, B->varRef(RaceObjVar), B->nullLit(ObjPtrTy))));

  std::vector<StmtPtr> Branches;
  Branches.push_back(B->block(std::move(CapStmts)));
  Branches.push_back(B->block(std::move(ElseStmts)));
  StmtPtr Choice = B->choice(std::move(Branches));
  Choice->setRole(InstrRole::Init);
  Out.push_back(std::move(Choice));
}

void KissTransformer::emitAsync(const AsyncStmt *S,
                                std::vector<StmtPtr> &Out) {
  // Figure 4: if (size() < MAX) put(v0) else { [[v0]](); raise = false }
  auto makeSyncCall = [&]() -> std::vector<StmtPtr> {
    std::vector<StmtPtr> Stmts;
    ExprPtr Callee = S->getCallee()->clone();
    renameFuncRefs(Callee.get(), NewNames);
    if (CurSusp)
      suspAdjust(Callee.get());
    std::vector<ExprPtr> Args;
    for (const ExprPtr &A : S->getArgs()) {
      Args.push_back(A->clone());
      if (CurSusp)
        suspAdjust(Args.back().get());
    }
    StmtPtr Call = B->callIndirect(VarId(), std::move(Callee),
                                   std::move(Args));
    Call->setRole(InstrRole::Schedule);
    Call->setOrigin(S);
    Stmts.push_back(std::move(Call));
    StmtPtr Reset = B->assignVar(RaiseVar, B->boolLit(false));
    Reset->setRole(InstrRole::Schedule);
    Stmts.push_back(std::move(Reset));
    return Stmts;
  };

  // K>2: whether this thread can be dispatched resumably right here
  // (inside a susp body it cannot — the busy guard would be false anyway,
  // so the branch would be dead weight).
  int Tag = HasSusp && !CurSusp ? tagOfCallee(S->getCallee()) : -1;

  if (!HasTs) {
    // MAX == 0: ts is always full; the async runs synchronously, here.
    if (Tag >= 0) {
      std::vector<StmtPtr> Branches;
      Branches.push_back(B->block(makeSyncCall()));
      Branches.push_back(B->block(makeResumableSiteStmts(S, Tag)));
      Out.push_back(B->choice(std::move(Branches)));
      return;
    }
    for (StmtPtr &St : makeSyncCall())
      Out.push_back(std::move(St));
    return;
  }

  std::vector<StmtPtr> Branches;
  for (unsigned Slot = 0; Slot != Opts.MaxTs; ++Slot) {
    // { assume(__ts_size == Slot); store fn/args; __ts_size = Slot + 1; }
    std::vector<StmtPtr> Put;
    Put.push_back(B->assumeStmt(B->cmp(BinaryOp::Eq, B->varRef(TsSizeVar),
                                       B->intLit(Slot))));
    ExprPtr Callee = S->getCallee()->clone();
    renameFuncRefs(Callee.get(), NewNames);
    if (CurSusp)
      suspAdjust(Callee.get());
    Put.push_back(B->assign(B->varRef(TsFnVars[Slot]), std::move(Callee)));
    for (unsigned J = 0, E = S->getArgs().size(); J != E; ++J) {
      ExprPtr Arg = S->getArgs()[J]->clone();
      if (CurSusp)
        suspAdjust(Arg.get());
      Put.push_back(B->assign(B->varRef(TsArgVars[Slot][J]),
                              std::move(Arg)));
    }
    if (HasSusp)
      Put.push_back(B->assign(B->varRef(TsTagVars[Slot]),
                              B->intLit(tagOfCallee(S->getCallee()))));
    StmtPtr SizeUpd = B->assignVar(TsSizeVar, B->intLit(Slot + 1));
    SizeUpd->setRole(InstrRole::TsPut);
    SizeUpd->setOrigin(S);
    Put.push_back(std::move(SizeUpd));
    Branches.push_back(B->block(std::move(Put)));
  }

  // { assume(__ts_size == MAX); [[f]](args); __raise = false; }
  std::vector<StmtPtr> Full;
  Full.push_back(B->assumeStmt(B->cmp(BinaryOp::Eq, B->varRef(TsSizeVar),
                                      B->intLit(Opts.MaxTs))));
  Full.front()->setRole(InstrRole::Schedule);
  for (StmtPtr &St : makeSyncCall())
    Full.push_back(std::move(St));
  Branches.push_back(B->block(std::move(Full)));

  if (Tag >= 0) {
    // A resumable alternative to the synchronous full-ts call.
    std::vector<StmtPtr> Res;
    Res.push_back(B->assumeStmt(B->cmp(BinaryOp::Eq, B->varRef(TsSizeVar),
                                       B->intLit(Opts.MaxTs))));
    for (StmtPtr &St : makeResumableSiteStmts(S, Tag))
      Res.push_back(std::move(St));
    Branches.push_back(B->block(std::move(Res)));
  }

  StmtPtr Choice = B->choice(std::move(Branches));
  Choice->setRole(InstrRole::TsPut);
  Choice->setOrigin(S);
  Out.push_back(std::move(Choice));
}

StmtPtr KissTransformer::xformToBlock(const Stmt *S) {
  std::vector<StmtPtr> Stmts;
  xformStmtInto(S, Stmts);
  return B->block(std::move(Stmts));
}

/// The susp-variant counterpart of xformStmtInto: every statement is
/// wrapped `choice { skip-past [] enter }` keyed on (__nav, pc), entering
/// leaves clears navigation, and composites recurse with range guards so
/// a resume descends deterministically to the parked statement.
void KissTransformer::suspStmtInto(const Stmt *S, std::vector<StmtPtr> &Out) {
  if (S->getKind() == StmtKind::Block) {
    for (const StmtPtr &Sub : cast<BlockStmt>(S)->getStmts())
      suspStmtInto(Sub.get(), Out);
    return;
  }
  const StmtIds &I = CurSusp->Ids.at(S);

  switch (S->getKind()) {
  case StmtKind::Choice: {
    std::vector<StmtPtr> Branches;
    for (const StmtPtr &Br : cast<ChoiceStmt>(S)->getBranches()) {
      std::vector<StmtPtr> BrStmts;
      BrStmts.push_back(makeNavRangeGuard(CurSusp->Ids.at(Br.get())));
      suspStmtInto(Br.get(), BrStmts);
      Branches.push_back(B->block(std::move(BrStmts)));
    }
    StmtPtr C = B->choice(std::move(Branches));
    C->setRole(InstrRole::User);
    C->setOrigin(S);
    std::vector<StmtPtr> Enter;
    Enter.push_back(makeNavRangeGuard(I));
    Enter.push_back(std::move(C));
    emitGuarded(I, std::move(Enter), Out);
    return;
  }

  case StmtKind::Iter: {
    std::vector<StmtPtr> BodyStmts;
    suspStmtInto(cast<IterStmt>(S)->getBody(), BodyStmts);
    StmtPtr It = B->iter(B->block(std::move(BodyStmts)));
    It->setRole(InstrRole::User);
    It->setOrigin(S);
    std::vector<StmtPtr> Enter;
    Enter.push_back(makeNavRangeGuard(I));
    Enter.push_back(std::move(It));
    emitGuarded(I, std::move(Enter), Out);
    return;
  }

  case StmtKind::Atomic: {
    // Entry arms: fresh (with the prefix's plain-raise + suspend arms),
    // resume at the atomic itself (pc stamped by the prefix suspend arm:
    // the whole section re-executes), or navigate into it (parked at an
    // atomicity-releasing assume).
    std::vector<StmtPtr> Fresh;
    Fresh.push_back(B->assumeStmt(B->notOf(B->varRef(NavVar))));
    emitPrefix(S, Fresh, /*PlainRaiseBranch=*/true, &I);
    std::vector<StmtPtr> AtSelf;
    AtSelf.push_back(B->assumeStmt(B->varRef(NavVar)));
    AtSelf.push_back(B->assumeStmt(
        B->cmp(BinaryOp::Eq, B->varRef(CurSusp->Pc), B->intLit(I.Id))));
    AtSelf.push_back(B->assignVar(NavVar, B->boolLit(false)));
    std::vector<StmtPtr> EnterArms;
    EnterArms.push_back(B->block(std::move(Fresh)));
    EnterArms.push_back(B->block(std::move(AtSelf)));
    if (I.Hi > I.Id) {
      std::vector<StmtPtr> Inside;
      Inside.push_back(B->assumeStmt(B->varRef(NavVar)));
      Inside.push_back(B->assumeStmt(
          B->cmp(BinaryOp::Gt, B->varRef(CurSusp->Pc), B->intLit(I.Id))));
      Inside.push_back(B->assumeStmt(
          B->cmp(BinaryOp::Le, B->varRef(CurSusp->Pc), B->intLit(I.Hi))));
      EnterArms.push_back(B->block(std::move(Inside)));
    }
    std::vector<StmtPtr> Enter;
    Enter.push_back(B->choice(std::move(EnterArms)));
    StmtPtr Body = translateUserClone(cast<AtomicStmt>(S)->getBody());
    suspAtomicMemberInto(std::move(Body), Enter);
    emitGuarded(I, std::move(Enter), Out);
    return;
  }

  case StmtKind::Return: {
    std::vector<StmtPtr> Fresh;
    Fresh.push_back(B->assumeStmt(B->notOf(B->varRef(NavVar))));
    emitScheduleCall(Fresh);
    {
      std::vector<StmtPtr> Arms;
      Arms.push_back(B->skip());
      Arms.push_back(makeSuspendArm(I.Id));
      Fresh.push_back(B->choice(std::move(Arms)));
    }
    std::vector<StmtPtr> Landed;
    Landed.push_back(B->assumeStmt(B->varRef(NavVar)));
    Landed.push_back(B->assumeStmt(
        B->cmp(BinaryOp::Eq, B->varRef(CurSusp->Pc), B->intLit(I.Id))));
    Landed.push_back(B->assignVar(NavVar, B->boolLit(false)));
    std::vector<StmtPtr> EnterArms;
    EnterArms.push_back(B->block(std::move(Fresh)));
    EnterArms.push_back(B->block(std::move(Landed)));
    std::vector<StmtPtr> Enter;
    Enter.push_back(B->choice(std::move(EnterArms)));
    Enter.push_back(translateUserClone(S));
    emitGuarded(I, std::move(Enter), Out);
    return;
  }

  case StmtKind::Async: {
    std::vector<StmtPtr> Enter;
    Enter.push_back(makeLeafEntry(S, I, /*PlainRaise=*/false));
    emitAsync(cast<AsyncStmt>(S), Enter);
    emitGuarded(I, std::move(Enter), Out);
    return;
  }

  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    if (isa<CallExpr>(A->getRHS())) {
      std::vector<StmtPtr> Enter;
      emitSuspCall(S, Enter);
      emitGuarded(I, std::move(Enter), Out);
      return;
    }
    std::vector<StmtPtr> Enter;
    Enter.push_back(makeLeafEntry(S, I, /*PlainRaise=*/false));
    Enter.push_back(translateUserClone(S));
    if (isRaceMode() && Target->K == RaceTarget::Kind::Field &&
        isa<NewExpr>(A->getRHS()) &&
        cast<NewExpr>(A->getRHS())->getStructName() == Target->StructName) {
      std::vector<StmtPtr> Cap;
      emitRaceObjCapture(A, Cap);
      for (StmtPtr &CS : Cap) {
        suspAdjust(CS.get());
        Enter.push_back(std::move(CS));
      }
    }
    emitGuarded(I, std::move(Enter), Out);
    return;
  }

  case StmtKind::ExprStmt: {
    std::vector<StmtPtr> Enter;
    emitSuspCall(S, Enter);
    emitGuarded(I, std::move(Enter), Out);
    return;
  }

  case StmtKind::Assert: {
    std::vector<StmtPtr> Enter;
    Enter.push_back(makeLeafEntry(S, I, /*PlainRaise=*/false));
    StmtPtr Clone = translateUserClone(S);
    if (Opts.InjectBreakAsserts) {
      auto *A = cast<AssertStmt>(Clone.get());
      A->getCondRef() = B->notOf(std::move(A->getCondRef()));
    }
    Enter.push_back(std::move(Clone));
    emitGuarded(I, std::move(Enter), Out);
    return;
  }

  case StmtKind::Assume:
  case StmtKind::Skip: {
    std::vector<StmtPtr> Enter;
    Enter.push_back(makeLeafEntry(S, I, /*PlainRaise=*/false));
    Enter.push_back(translateUserClone(S));
    emitGuarded(I, std::move(Enter), Out);
    return;
  }

  default:
    assert(false && "non-core statement in the KISS transformer");
    return;
  }
}

void KissTransformer::xformStmtInto(const Stmt *S,
                                    std::vector<StmtPtr> &Out) {
  if (CurSusp) {
    suspStmtInto(S, Out);
    return;
  }
  switch (S->getKind()) {
  case StmtKind::Block:
    for (const StmtPtr &Sub : cast<BlockStmt>(S)->getStmts())
      xformStmtInto(Sub.get(), Out);
    return;

  case StmtKind::Choice: {
    // [[choice{s1 [] ... [] sn}]] = choice{[[s1]] [] ... [] [[sn]]}
    std::vector<StmtPtr> Branches;
    for (const StmtPtr &Br : cast<ChoiceStmt>(S)->getBranches())
      Branches.push_back(xformToBlock(Br.get()));
    StmtPtr C = B->choice(std::move(Branches));
    C->setRole(InstrRole::User);
    C->setOrigin(S);
    Out.push_back(std::move(C));
    return;
  }

  case StmtKind::Iter: {
    // [[iter{s}]] = iter{[[s]]}
    StmtPtr Body = xformToBlock(cast<IterStmt>(S)->getBody());
    StmtPtr I = B->iter(std::move(Body));
    I->setRole(InstrRole::User);
    I->setOrigin(S);
    Out.push_back(std::move(I));
    return;
  }

  case StmtKind::Atomic: {
    // [[atomic{s}]] = prefix; s'  — no interleaving points inside an
    // atomic section, with one exception: a blocked assume releases
    // atomicity (the lock idiom `atomic { assume(!held); held = true; }`
    // depends on other threads running while the acquirer waits, see
    // ConcChecker.h). So s' is s with every assume(C) preceded by
    // makeAtomicRelease's choice, whose arms give up or wait exactly when
    // the assume blocks:
    //   choice { assume(!C); RAISE } or { assume(!C); schedule() }
    //       or { skip }; assume(C)
    // The guard keeps this sound — a thread parked on a false condition
    // is a real scheduling point, an enabled assume inside atomic is not.
    // Unguarded, it would fabricate mid-atomic preemptions; without it,
    // KISS misses errors another thread causes while this one is parked
    // after a partial write (bounded-completeness gaps the differential
    // fuzzer found, seeds 4045 and 4275512795135391828). The atomic
    // wrapper itself is dropped:
    // sequentially it means nothing, and the injected RAISE `return`
    // would otherwise violate the no-return-inside-atomic core rule.
    emitPrefix(S, Out, /*PlainRaiseBranch=*/true);
    StmtPtr Body = translateUserClone(cast<AtomicStmt>(S)->getBody());
    instrumentAtomicAssumes(Body.get());
    Out.push_back(std::move(Body));
    return;
  }

  case StmtKind::Return:
    // [[return]] = schedule(); return
    emitScheduleCall(Out);
    Out.push_back(translateUserClone(S));
    return;

  case StmtKind::Async:
    emitPrefix(S, Out, /*PlainRaiseBranch=*/false);
    emitAsync(cast<AsyncStmt>(S), Out);
    return;

  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    emitPrefix(S, Out, /*PlainRaiseBranch=*/false);
    if (isa<CallExpr>(A->getRHS())) {
      // [[v = v0()]] = ...; __callN = [[v0]](); if (__raise) return;
      //                     v = __callN
      // The call lands in a fresh temp and the write-back commits only on
      // the no-raise path. Assigning the call directly to v would let an
      // abandoned callee (RAISE unwinds through a dummy `return 0`)
      // clobber v with a value no real execution ever writes — a
      // soundness hole the differential fuzzer caught (seed 20041365:
      // the phantom write unblocked an assume that is unreachable in
      // every concurrent execution).
      StmtPtr Clone = translateUserClone(S);
      auto *CA = cast<AssignStmt>(Clone.get());
      VarId Tmp = B->addLocal(
          "__call" + std::to_string(B->getFunction()->getLocals().size()),
          CA->getRHS()->getType());
      ExprPtr Dest = std::move(CA->getLHSRef());
      CA->getLHSRef() = B->varRef(Tmp);
      Out.push_back(std::move(Clone));
      Out.push_back(makePropagate());
      StmtPtr Commit = B->assign(std::move(Dest), B->varRef(Tmp));
      Commit->setRole(InstrRole::Propagate);
      Out.push_back(std::move(Commit));
      return;
    }
    Out.push_back(translateUserClone(S));
    if (isRaceMode() && Target->K == RaceTarget::Kind::Field &&
               isa<NewExpr>(A->getRHS()) &&
               cast<NewExpr>(A->getRHS())->getStructName() ==
                   Target->StructName) {
      emitRaceObjCapture(A, Out);
    }
    return;
  }

  case StmtKind::ExprStmt:
    emitPrefix(S, Out, /*PlainRaiseBranch=*/false);
    Out.push_back(translateUserClone(S));
    Out.push_back(makePropagate());
    return;

  case StmtKind::Assert: {
    emitPrefix(S, Out, /*PlainRaiseBranch=*/false);
    StmtPtr Clone = translateUserClone(S);
    if (Opts.InjectBreakAsserts) {
      // Deliberate unsoundness for oracle validation (see
      // TransformOptions::InjectBreakAsserts).
      auto *A = cast<AssertStmt>(Clone.get());
      A->getCondRef() = B->notOf(std::move(A->getCondRef()));
    }
    Out.push_back(std::move(Clone));
    return;
  }

  case StmtKind::Assume:
  case StmtKind::Skip:
    emitPrefix(S, Out, /*PlainRaiseBranch=*/false);
    Out.push_back(translateUserClone(S));
    return;

  case StmtKind::Decl:
  case StmtKind::If:
  case StmtKind::While:
    assert(false && "non-core statement in the KISS transformer");
    return;
  }
}

void KissTransformer::transformBodies() {
  // Susp variants first: their globalized call temps must all exist
  // before any post-dispatch cleanup (which resets them) is emitted into
  // normal bodies or the scheduler.
  for (uint32_t FI : SuspClosureFns) {
    CurFuncIdx = FI;
    CurSusp = &SuspFns.at(FI);
    FuncDecl *NF = Out->getFunction(CurSusp->SuspIdx);
    B->setFunction(NF);
    std::vector<StmtPtr> Body;
    xformStmtInto(P.getFunctions()[FI]->getBody(), Body);
    NF->setBody(B->block(std::move(Body)));
    CurSusp = nullptr;
  }

  for (uint32_t FI = 0, E = P.getFunctions().size(); FI != E; ++FI) {
    CurFuncIdx = FI;
    FuncDecl *NF = Out->getFunction(FI);
    B->setFunction(NF);
    std::vector<StmtPtr> Body;
    xformStmtInto(P.getFunctions()[FI]->getBody(), Body);
    NF->setBody(B->block(std::move(Body)));
  }
}

void KissTransformer::buildSchedule() {
  FuncDecl *Sched = Out->getFunction(ScheduleIdx);
  B->setFunction(Sched);

  if (!HasSched) {
    Sched->setBody(B->block({}));
    return;
  }

  std::vector<StmtPtr> Branches;

  if (HasTs) {
    const auto &Params = AsyncFuncTy->getParamTypes();
    VarId FnVar = B->addLocal("__f", AsyncFuncTy);
    std::vector<VarId> ArgVars;
    for (unsigned J = 0; J != Params.size(); ++J)
      ArgVars.push_back(
          B->addLocal("__a" + std::to_string(J), Params[J]));

    // iter { choice over (slot j taken from a ts of size s) } — get()
    // picks any live slot; removal moves the last slot down; the
    // dispatched thread runs to completion and __raise is reset
    // (Figure 4's schedule()).
    for (unsigned SlotJ = 0; SlotJ != Opts.MaxTs; ++SlotJ) {
      for (unsigned Size = SlotJ + 1; Size <= Opts.MaxTs; ++Size) {
        std::vector<StmtPtr> Br;
        Br.push_back(B->assumeStmt(B->cmp(
            BinaryOp::Eq, B->varRef(TsSizeVar), B->intLit(Size))));
        Br.push_back(
            B->assign(B->varRef(FnVar), B->varRef(TsFnVars[SlotJ])));
        for (unsigned J = 0; J != Params.size(); ++J)
          Br.push_back(B->assign(B->varRef(ArgVars[J]),
                                 B->varRef(TsArgVars[SlotJ][J])));
        if (SlotJ != Size - 1) {
          Br.push_back(B->assign(B->varRef(TsFnVars[SlotJ]),
                                 B->varRef(TsFnVars[Size - 1])));
          for (unsigned J = 0; J != Params.size(); ++J)
            Br.push_back(B->assign(B->varRef(TsArgVars[SlotJ][J]),
                                   B->varRef(TsArgVars[Size - 1][J])));
          if (HasSusp)
            Br.push_back(B->assign(B->varRef(TsTagVars[SlotJ]),
                                   B->varRef(TsTagVars[Size - 1])));
        }
        Br.push_back(B->assignVar(TsSizeVar, B->intLit(Size - 1)));
        std::vector<ExprPtr> CallArgs;
        for (unsigned J = 0; J != Params.size(); ++J)
          CallArgs.push_back(B->varRef(ArgVars[J]));
        Br.push_back(B->callIndirect(VarId(), B->varRef(FnVar),
                                     std::move(CallArgs)));
        Br.push_back(B->assignVar(RaiseVar, B->boolLit(false)));
        for (StmtPtr &St : Br)
          St->setRole(InstrRole::Schedule);
        Branches.push_back(B->block(std::move(Br)));
      }
    }

    // K>2: dispatch a pending thread *resumably* — run its susp variant,
    // which may park and be picked up again by the resume arms below.
    if (HasSusp) {
      for (unsigned SlotJ = 0; SlotJ != Opts.MaxTs; ++SlotJ) {
        for (unsigned Size = SlotJ + 1; Size <= Opts.MaxTs; ++Size) {
          for (unsigned T = 0; T != Candidates.size(); ++T) {
            uint32_t Cand = Candidates[T];
            std::vector<StmtPtr> Br;
            Br.push_back(B->assumeStmt(B->cmp(
                BinaryOp::Eq, B->varRef(TsSizeVar), B->intLit(Size))));
            Br.push_back(B->assumeStmt(
                B->cmp(BinaryOp::Eq, B->varRef(TsTagVars[SlotJ]),
                       B->intLit(static_cast<int>(T)))));
            Br.push_back(B->assumeStmt(B->cmp(
                BinaryOp::Gt, B->varRef(RoundsVar), B->intLit(0))));
            Br.push_back(
                B->assumeStmt(B->notOf(B->varRef(SuspBusyVar))));
            Br.push_back(
                B->assumeStmt(B->notOf(B->varRef(SuspActiveVar))));
            {
              SuspFunc &CF = SuspFns.at(Cand);
              for (unsigned J = 0;
                   J != AsyncFuncTy->getParamTypes().size(); ++J)
                Br.push_back(B->assign(B->varRef(CF.LocalSlots[J]),
                                       B->varRef(TsArgVars[SlotJ][J])));
            }
            if (SlotJ != Size - 1) {
              Br.push_back(B->assign(B->varRef(TsFnVars[SlotJ]),
                                     B->varRef(TsFnVars[Size - 1])));
              for (unsigned J = 0;
                   J != AsyncFuncTy->getParamTypes().size(); ++J)
                Br.push_back(B->assign(B->varRef(TsArgVars[SlotJ][J]),
                                       B->varRef(TsArgVars[Size - 1][J])));
              Br.push_back(B->assign(B->varRef(TsTagVars[SlotJ]),
                                     B->varRef(TsTagVars[Size - 1])));
            }
            Br.push_back(B->assignVar(TsSizeVar, B->intLit(Size - 1)));
            Br.push_back(
                B->assignVar(SuspTagVar, B->intLit(static_cast<int>(T))));
            Br.push_back(B->assignVar(SuspBusyVar, B->boolLit(true)));
            for (StmtPtr &St : Br)
              St->setRole(InstrRole::Schedule);
            StmtPtr Call = B->call(VarId(), SuspFns.at(Cand).SuspIdx, {});
            Call->setRole(InstrRole::Schedule);
            Br.push_back(std::move(Call));
            emitPostDispatchCleanup(Cand, Br);
            Branches.push_back(B->block(std::move(Br)));
          }
        }
      }
    }
  }

  // K>2: re-enter the parked thread (this is the round boundary — it
  // consumes one unit of the round budget).
  if (HasSusp) {
    for (unsigned T = 0; T != Candidates.size(); ++T) {
      uint32_t Cand = Candidates[T];
      std::vector<StmtPtr> Br;
      Br.push_back(B->assumeStmt(B->varRef(SuspActiveVar)));
      Br.push_back(B->assumeStmt(B->notOf(B->varRef(SuspBusyVar))));
      Br.push_back(B->assumeStmt(
          B->cmp(BinaryOp::Gt, B->varRef(RoundsVar), B->intLit(0))));
      Br.push_back(B->assumeStmt(B->cmp(BinaryOp::Eq, B->varRef(SuspTagVar),
                                        B->intLit(static_cast<int>(T)))));
      {
        auto Minus = std::make_unique<BinaryExpr>(
            BinaryOp::Sub, B->varRef(RoundsVar), B->intLit(1), SourceLoc());
        Minus->setType(Types.getIntType());
        Br.push_back(B->assignVar(RoundsVar, std::move(Minus)));
      }
      Br.push_back(B->assignVar(SuspActiveVar, B->boolLit(false)));
      Br.push_back(B->assignVar(SuspBusyVar, B->boolLit(true)));
      Br.push_back(B->assignVar(NavVar, B->boolLit(true)));
      for (StmtPtr &St : Br)
        St->setRole(InstrRole::Schedule);
      StmtPtr Call = B->call(VarId(), SuspFns.at(Cand).SuspIdx, {});
      Call->setRole(InstrRole::Resume);
      Br.push_back(std::move(Call));
      emitPostDispatchCleanup(Cand, Br);
      Branches.push_back(B->block(std::move(Br)));
    }
  }

  StmtPtr Choice = B->choice(std::move(Branches));
  Choice->setRole(InstrRole::Schedule);
  std::vector<StmtPtr> IterBody;
  IterBody.push_back(std::move(Choice));
  StmtPtr Loop = B->iter(B->block(std::move(IterBody)));
  Loop->setRole(InstrRole::Schedule);
  std::vector<StmtPtr> Body;
  Body.push_back(std::move(Loop));
  Sched->setBody(B->block(std::move(Body)));
}

void KissTransformer::buildDriver() {
  FuncDecl *Driver = Out->getFunction(Out->getFunctionIndex(
      Syms.intern("main")));
  B->setFunction(Driver);

  std::vector<StmtPtr> Body;

  // Check(s) = raise = false; ts = 0; [access = 0;] [[s]]; schedule();
  // The constant initializations happen via global initializers; only the
  // address of a monitored global needs runtime setup.
  if (isRaceMode() && Target->K == RaceTarget::Kind::Global) {
    int GIdx = P.getGlobalIndex(Target->GlobalName);
    auto Addr = std::make_unique<AddrOfExpr>(
        B->globalRef(static_cast<uint32_t>(GIdx)), SourceLoc());
    Addr->setType(Types.getPointerType(targetValueType()));
    StmtPtr Init = B->assign(B->varRef(RaceAddrVar), std::move(Addr));
    Init->setRole(InstrRole::Init);
    Body.push_back(std::move(Init));
  }

  uint32_t MainIdx = P.getFunctionIndex(P.getEntryName());
  StmtPtr CallMain = B->call(VarId(), MainIdx, {});
  CallMain->setRole(InstrRole::Schedule);
  Body.push_back(std::move(CallMain));

  StmtPtr Reset = B->assignVar(RaiseVar, B->boolLit(false));
  Reset->setRole(InstrRole::Init);
  Body.push_back(std::move(Reset));

  if (HasSched) {
    StmtPtr FinalSched = B->call(VarId(), ScheduleIdx, {});
    FinalSched->setRole(InstrRole::SchedCall);
    Body.push_back(std::move(FinalSched));
  }

  Driver->setBody(B->block(std::move(Body)));
}

std::unique_ptr<Program> KissTransformer::run() {
  if (!validateInput() || !collectAsyncSignature())
    return nullptr;
  analyzeResumable();
  HasSched = HasTs || HasSusp;

  Out = std::make_unique<Program>(Syms, Types);
  B = std::make_unique<Builder>(*Out, InstrRole::Init);

  if (isRaceMode() && Opts.UseAliasAnalysis) {
    telemetry::RunRecorder::Span AliasSpan;
    if (Opts.Recorder)
      AliasSpan = Opts.Recorder->beginPhase("alias");
    AA.emplace(alias::PointsTo::analyze(P));
    if (Opts.Recorder)
      AliasSpan.counter("pointsto_locations", AA->getNumLocations());
  }

  cloneStructs();
  copyGlobals();
  addInstrumentationGlobals();
  declareFunctions();
  transformBodies();
  buildSchedule();
  buildDriver();

  std::string Why;
  if (!lower::isCoreProgram(*Out, &Why)) {
    Diags.error(SourceLoc(),
                "internal error: transformed program is not core: " + Why);
    return nullptr;
  }
  return Out ? std::move(Out) : nullptr;
}

} // namespace

std::unique_ptr<Program>
core::transformForAssertions(const Program &P, const TransformOptions &Opts,
                             DiagnosticEngine &Diags, TransformStats *Stats) {
  KissTransformer T(P, Opts, Diags, /*Target=*/nullptr, Stats);
  return T.run();
}

std::unique_ptr<Program>
core::transformForRace(const Program &P, const RaceTarget &Target,
                       const TransformOptions &Opts, DiagnosticEngine &Diags,
                       TransformStats *Stats) {
  KissTransformer T(P, Opts, Diags, &Target, Stats);
  return T.run();
}
