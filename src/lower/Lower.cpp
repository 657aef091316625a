//===- Lower.cpp ----------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "lower/Lower.h"

#include "support/Diagnostics.h"

#include <algorithm>

using namespace kiss;
using namespace kiss::lang;
using namespace kiss::lower;

bool kiss::lower::isAtom(const Expr *E) {
  switch (E->getKind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NullLit:
  case ExprKind::FuncRef:
    return true;
  case ExprKind::VarRef:
    return cast<VarRefExpr>(E)->getVarId().isResolved();
  default:
    return false;
  }
}

namespace {

/// Lowers one function body.
class FunctionLowerer {
public:
  FunctionLowerer(Program &P, FuncDecl &F, DiagnosticEngine &Diags)
      : P(P), F(F), Syms(P.getSymbolTable()), Diags(Diags) {}

  bool run();

private:
  using StmtSink = std::vector<StmtPtr>;

  //===--- Statements ---===//
  bool lowerStmt(Stmt *S, StmtSink &Out);
  bool lowerStmtImpl(Stmt *S, StmtSink &Out);
  bool lowerBlockInto(Stmt *S, StmtSink &Out);
  /// Lowers \p S into a fresh block statement (for branch bodies).
  StmtPtr lowerToBlock(Stmt *S, bool &Ok);

  //===--- Expressions ---===//
  /// Lowers \p E to an atom, emitting evaluation statements into \p Out.
  ExprPtr lowerToAtom(ExprPtr E, StmtSink &Out);
  /// Lowers \p E to a core right-hand side (at most one operator applied to
  /// atoms), emitting evaluation statements into \p Out.
  ExprPtr lowerToCoreRHS(ExprPtr E, StmtSink &Out);
  /// Lowers \p E to a core lvalue (x, *x, or x->f).
  ExprPtr lowerToCoreLValue(ExprPtr E, StmtSink &Out);
  /// Lowers a boolean condition to an atom or !atom.
  ExprPtr lowerToCondition(ExprPtr E, StmtSink &Out);

  /// Materializes \p RHS (already in core-rhs form) into a fresh temp and
  /// returns a reference to it.
  ExprPtr materialize(ExprPtr RHS, StmtSink &Out);

  /// Allocates a fresh temporary local of type \p Ty.
  VarId makeTemp(const Type *Ty);
  ExprPtr makeVarRef(VarId Id, const Type *Ty, SourceLoc Loc);

  /// Lowers short-circuit && / || into branching on a fresh temp.
  ExprPtr lowerShortCircuit(std::unique_ptr<BinaryExpr> B, StmtSink &Out);

  /// Post-pass: checks §3 atomic-block restrictions on the lowered body.
  bool checkAtomicBodies(const Stmt *S, bool InAtomic);

  Program &P;
  FuncDecl &F;
  SymbolTable &Syms;
  DiagnosticEngine &Diags;
  unsigned NextTemp = 0;
  /// True while lowering statements under a `benign` annotation.
  bool BenignCtx = false;
};

} // namespace

VarId FunctionLowerer::makeTemp(const Type *Ty) {
  std::string Name = "__t" + std::to_string(NextTemp++);
  uint32_t Slot = F.addLocal(VarDecl{Syms.intern(Name), Ty, SourceLoc()});
  return VarId{VarScope::Local, Slot};
}

ExprPtr FunctionLowerer::makeVarRef(VarId Id, const Type *Ty, SourceLoc Loc) {
  Symbol Name = Id.isGlobal() ? P.getGlobals()[Id.Index].Name
                              : F.getLocals()[Id.Index].Name;
  auto V = std::make_unique<VarRefExpr>(Name, Loc);
  V->setVarId(Id);
  V->setType(Ty);
  return V;
}

ExprPtr FunctionLowerer::materialize(ExprPtr RHS, StmtSink &Out) {
  const Type *Ty = RHS->getType();
  SourceLoc Loc = RHS->getLoc();
  assert(Ty && "materializing an untyped expression");
  VarId Temp = makeTemp(Ty);
  ExprPtr LHS = makeVarRef(Temp, Ty, Loc);
  ExprPtr Use = LHS->clone();
  Out.push_back(
      std::make_unique<AssignStmt>(std::move(LHS), std::move(RHS), Loc));
  return Use;
}

ExprPtr FunctionLowerer::lowerShortCircuit(std::unique_ptr<BinaryExpr> B,
                                           StmtSink &Out) {
  // t = a; if (t) t = b;      for a && b
  // t = a; if (!t) t = b;     for a || b
  SourceLoc Loc = B->getLoc();
  const Type *BoolTy = B->getType();
  bool IsAnd = B->getOp() == BinaryOp::LAnd;

  ExprPtr LHSAtom = lowerToCoreRHS(std::move(B->getLHSRef()), Out);
  ExprPtr TempRef = materialize(std::move(LHSAtom), Out);

  StmtSink ThenStmts;
  ExprPtr RHSCore = lowerToCoreRHS(std::move(B->getRHSRef()), ThenStmts);
  ThenStmts.push_back(std::make_unique<AssignStmt>(TempRef->clone(),
                                                   std::move(RHSCore), Loc));
  auto ThenBlock = std::make_unique<BlockStmt>(std::move(ThenStmts), Loc);

  ExprPtr Guard = TempRef->clone();
  if (!IsAnd) {
    Guard = std::make_unique<UnaryExpr>(UnaryOp::Not, std::move(Guard), Loc);
    Guard->setType(BoolTy);
  }
  auto If = std::make_unique<IfStmt>(std::move(Guard), std::move(ThenBlock),
                                     nullptr, Loc);
  // Recursively lower the freshly created if statement.
  bool Ok = lowerStmt(If.get(), Out);
  (void)Ok; // Sub-lowering of synthesized code cannot fail.
  return TempRef;
}

ExprPtr FunctionLowerer::lowerToCoreRHS(ExprPtr E, StmtSink &Out) {
  switch (E->getKind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NullLit:
  case ExprKind::FuncRef:
  case ExprKind::VarRef:
  case ExprKind::New:
  case ExprKind::Nondet:
    return E;

  case ExprKind::Unary: {
    auto *U = cast<UnaryExpr>(E.get());
    U->getSubRef() = lowerToAtom(std::move(U->getSubRef()), Out);
    return E;
  }

  case ExprKind::Binary: {
    auto *B = cast<BinaryExpr>(E.get());
    if (B->getOp() == BinaryOp::LAnd || B->getOp() == BinaryOp::LOr) {
      E.release();
      return lowerShortCircuit(std::unique_ptr<BinaryExpr>(B), Out);
    }
    B->getLHSRef() = lowerToAtom(std::move(B->getLHSRef()), Out);
    B->getRHSRef() = lowerToAtom(std::move(B->getRHSRef()), Out);
    return E;
  }

  case ExprKind::Deref: {
    auto *D = cast<DerefExpr>(E.get());
    D->getSubRef() = lowerToAtom(std::move(D->getSubRef()), Out);
    return E;
  }

  case ExprKind::Field: {
    auto *Fd = cast<FieldExpr>(E.get());
    Fd->getBaseRef() = lowerToAtom(std::move(Fd->getBaseRef()), Out);
    return E;
  }

  case ExprKind::AddrOf: {
    auto *A = cast<AddrOfExpr>(E.get());
    // &x is core; for &base->f the base must become an atom.
    if (auto *Fd = dyn_cast<FieldExpr>(A->getSub()))
      Fd->getBaseRef() = lowerToAtom(std::move(Fd->getBaseRef()), Out);
    return E;
  }

  case ExprKind::Call: {
    auto *C = cast<CallExpr>(E.get());
    C->getCalleeRef() = lowerToAtom(std::move(C->getCalleeRef()), Out);
    for (ExprPtr &Arg : C->getArgs())
      Arg = lowerToAtom(std::move(Arg), Out);
    return E;
  }
  }
  return E;
}

ExprPtr FunctionLowerer::lowerToAtom(ExprPtr E, StmtSink &Out) {
  if (isAtom(E.get()))
    return E;
  ExprPtr Core = lowerToCoreRHS(std::move(E), Out);
  if (isAtom(Core.get()))
    return Core;
  return materialize(std::move(Core), Out);
}

ExprPtr FunctionLowerer::lowerToCoreLValue(ExprPtr E, StmtSink &Out) {
  switch (E->getKind()) {
  case ExprKind::VarRef:
    return E;
  case ExprKind::Deref: {
    auto *D = cast<DerefExpr>(E.get());
    D->getSubRef() = lowerToAtom(std::move(D->getSubRef()), Out);
    return E;
  }
  case ExprKind::Field: {
    auto *Fd = cast<FieldExpr>(E.get());
    Fd->getBaseRef() = lowerToAtom(std::move(Fd->getBaseRef()), Out);
    return E;
  }
  default:
    assert(false && "Sema admits only lvalues on the left of '='");
    return E;
  }
}

ExprPtr FunctionLowerer::lowerToCondition(ExprPtr E, StmtSink &Out) {
  // Preserve a top-level negation so `assume(!v)` stays one statement.
  if (auto *U = dyn_cast<UnaryExpr>(E.get())) {
    if (U->getOp() == UnaryOp::Not) {
      U->getSubRef() = lowerToAtom(std::move(U->getSubRef()), Out);
      return E;
    }
  }
  return lowerToAtom(std::move(E), Out);
}

StmtPtr FunctionLowerer::lowerToBlock(Stmt *S, bool &Ok) {
  StmtSink Stmts;
  Ok &= lowerBlockInto(S, Stmts);
  return std::make_unique<BlockStmt>(std::move(Stmts), S->getLoc());
}

bool FunctionLowerer::lowerBlockInto(Stmt *S, StmtSink &Out) {
  if (auto *B = dyn_cast<BlockStmt>(S)) {
    bool Ok = true;
    for (StmtPtr &Sub : B->getStmts())
      Ok &= lowerStmt(Sub.get(), Out);
    return Ok;
  }
  return lowerStmt(S, Out);
}

bool FunctionLowerer::lowerStmt(Stmt *S, StmtSink &Out) {
  // `benign` annotations propagate to every lowered statement derived
  // from the annotated subtree (including condition-evaluation temps).
  bool SavedBenign = BenignCtx;
  BenignCtx = BenignCtx || S->isBenign();
  size_t FirstNew = Out.size();
  bool Ok = lowerStmtImpl(S, Out);
  if (BenignCtx)
    for (size_t I = FirstNew, E = Out.size(); I != E; ++I)
      forEachStmtPreorder(Out[I].get(), [](Stmt *N) { N->setBenign(true); });
  BenignCtx = SavedBenign;
  return Ok;
}

bool FunctionLowerer::lowerStmtImpl(Stmt *S, StmtSink &Out) {
  SourceLoc Loc = S->getLoc();
  switch (S->getKind()) {
  case StmtKind::Block:
    return lowerBlockInto(S, Out);

  case StmtKind::Decl: {
    auto *D = cast<DeclStmt>(S);
    // The slot already exists (created by Sema); only the initializer
    // remains.
    if (!D->getInit())
      return true;
    ExprPtr RHS = lowerToCoreRHS(D->takeInit(), Out);
    ExprPtr LHS = makeVarRef(D->getVarId(), D->getDeclType(), Loc);
    auto Assign =
        std::make_unique<AssignStmt>(std::move(LHS), std::move(RHS), Loc);
    Assign->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    Assign->setRole(S->getRole());
    Out.push_back(std::move(Assign));
    return true;
  }

  case StmtKind::Assign: {
    auto *A = cast<AssignStmt>(S);
    ExprPtr LHS = lowerToCoreLValue(std::move(A->getLHSRef()), Out);
    ExprPtr RHS;
    if (isa<VarRefExpr>(LHS.get())) {
      RHS = lowerToCoreRHS(std::move(A->getRHSRef()), Out);
    } else {
      // Stores through pointers/fields take atoms only (Figure 3).
      RHS = lowerToAtom(std::move(A->getRHSRef()), Out);
    }
    auto Assign =
        std::make_unique<AssignStmt>(std::move(LHS), std::move(RHS), Loc);
    Assign->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    Assign->setRole(S->getRole());
    Out.push_back(std::move(Assign));
    return true;
  }

  case StmtKind::ExprStmt: {
    auto *ES = cast<ExprStmt>(S);
    ExprPtr E = lowerToCoreRHS(std::move(ES->getExprRef()), Out);
    if (!isa<CallExpr>(E.get())) {
      // The call got fully lowered away (cannot happen today), or Sema let
      // a non-call slip through; drop effect-free expressions.
      return true;
    }
    auto New = std::make_unique<ExprStmt>(std::move(E), Loc);
    New->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    New->setRole(S->getRole());
    Out.push_back(std::move(New));
    return true;
  }

  case StmtKind::Async: {
    auto *A = cast<AsyncStmt>(S);
    ExprPtr Callee = lowerToAtom(std::move(A->getCalleeRef()), Out);
    std::vector<ExprPtr> Args;
    for (ExprPtr &Arg : A->getArgs())
      Args.push_back(lowerToAtom(std::move(Arg), Out));
    auto New = std::make_unique<AsyncStmt>(std::move(Callee), std::move(Args),
                                           Loc);
    New->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    New->setRole(S->getRole());
    Out.push_back(std::move(New));
    return true;
  }

  case StmtKind::Assert: {
    auto *AS = cast<AssertStmt>(S);
    ExprPtr Cond = lowerToCondition(std::move(AS->getCondRef()), Out);
    auto New = std::make_unique<AssertStmt>(std::move(Cond), Loc);
    New->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    New->setRole(S->getRole());
    Out.push_back(std::move(New));
    return true;
  }

  case StmtKind::Assume: {
    auto *AU = cast<AssumeStmt>(S);
    ExprPtr Cond = lowerToCondition(std::move(AU->getCondRef()), Out);
    auto New = std::make_unique<AssumeStmt>(std::move(Cond), Loc);
    New->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    New->setRole(S->getRole());
    Out.push_back(std::move(New));
    return true;
  }

  case StmtKind::Atomic: {
    auto *At = cast<AtomicStmt>(S);
    bool Ok = true;
    StmtPtr Body = lowerToBlock(At->getBody(), Ok);
    auto New = std::make_unique<AtomicStmt>(std::move(Body), Loc);
    New->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    New->setRole(S->getRole());
    Out.push_back(std::move(New));
    return Ok;
  }

  case StmtKind::If: {
    // §3: if (v) s1 else s2 == choice { assume(v); s1 } [] { assume(!v); s2 }
    auto *I = cast<IfStmt>(S);
    ExprPtr Cond = lowerToAtom(std::move(I->getCondRef()), Out);
    const Type *BoolTy = Cond->getType();

    bool Ok = true;
    std::vector<StmtPtr> Branches;

    StmtSink ThenStmts;
    auto ThenAssume = std::make_unique<AssumeStmt>(Cond->clone(), Loc);
    ThenAssume->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    ThenStmts.push_back(std::move(ThenAssume));
    Ok &= lowerBlockInto(I->getThen(), ThenStmts);
    Branches.push_back(
        std::make_unique<BlockStmt>(std::move(ThenStmts), Loc));

    StmtSink ElseStmts;
    ExprPtr NotCond =
        std::make_unique<UnaryExpr>(UnaryOp::Not, Cond->clone(), Loc);
    NotCond->setType(BoolTy);
    auto ElseAssume = std::make_unique<AssumeStmt>(std::move(NotCond), Loc);
    ElseAssume->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    ElseStmts.push_back(std::move(ElseAssume));
    if (I->getElse())
      Ok &= lowerBlockInto(I->getElse(), ElseStmts);
    Branches.push_back(
        std::make_unique<BlockStmt>(std::move(ElseStmts), Loc));

    auto Choice = std::make_unique<ChoiceStmt>(std::move(Branches), Loc);
    Choice->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    Out.push_back(std::move(Choice));
    return Ok;
  }

  case StmtKind::While: {
    // §3: while (v) s == iter { assume(v); s }; assume(!v)
    // For a compound condition the evaluation statements are emitted before
    // the loop and re-emitted at the end of the body.
    auto *W = cast<WhileStmt>(S);
    const Stmt *Origin = S->getOrigin() ? S->getOrigin() : S;

    StmtSink CondEval;
    ExprPtr CondAtom = lowerToAtom(std::move(W->getCondRef()), CondEval);
    const Type *BoolTy = CondAtom->getType();

    // Emit the initial condition evaluation.
    for (StmtPtr &CS : CondEval)
      Out.push_back(CS->clone());

    bool Ok = true;
    StmtSink BodyStmts;
    auto Guard = std::make_unique<AssumeStmt>(CondAtom->clone(), Loc);
    Guard->setOrigin(Origin);
    BodyStmts.push_back(std::move(Guard));
    Ok &= lowerBlockInto(W->getBody(), BodyStmts);
    // Re-evaluate the condition at the end of each iteration.
    for (StmtPtr &CS : CondEval)
      BodyStmts.push_back(std::move(CS));

    auto Iter = std::make_unique<IterStmt>(
        std::make_unique<BlockStmt>(std::move(BodyStmts), Loc), Loc);
    Iter->setOrigin(Origin);
    Out.push_back(std::move(Iter));

    ExprPtr NotCond =
        std::make_unique<UnaryExpr>(UnaryOp::Not, CondAtom->clone(), Loc);
    NotCond->setType(BoolTy);
    auto Exit = std::make_unique<AssumeStmt>(std::move(NotCond), Loc);
    Exit->setOrigin(Origin);
    Out.push_back(std::move(Exit));
    return Ok;
  }

  case StmtKind::Choice: {
    auto *C = cast<ChoiceStmt>(S);
    bool Ok = true;
    std::vector<StmtPtr> Branches;
    for (StmtPtr &B : C->getBranches())
      Branches.push_back(lowerToBlock(B.get(), Ok));
    auto New = std::make_unique<ChoiceStmt>(std::move(Branches), Loc);
    New->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    New->setRole(S->getRole());
    Out.push_back(std::move(New));
    return Ok;
  }

  case StmtKind::Iter: {
    auto *I = cast<IterStmt>(S);
    bool Ok = true;
    StmtPtr Body = lowerToBlock(I->getBody(), Ok);
    auto New = std::make_unique<IterStmt>(std::move(Body), Loc);
    New->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    New->setRole(S->getRole());
    Out.push_back(std::move(New));
    return Ok;
  }

  case StmtKind::Return: {
    auto *R = cast<ReturnStmt>(S);
    ExprPtr Value;
    if (R->getValue())
      Value = lowerToAtom(std::move(R->getValueRef()), Out);
    auto New = std::make_unique<ReturnStmt>(std::move(Value), Loc);
    New->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    New->setRole(S->getRole());
    Out.push_back(std::move(New));
    return true;
  }

  case StmtKind::Skip: {
    auto New = std::make_unique<SkipStmt>(Loc);
    New->setOrigin(S->getOrigin() ? S->getOrigin() : S);
    New->setRole(S->getRole());
    Out.push_back(std::move(New));
    return true;
  }
  }
  return false;
}

bool FunctionLowerer::checkAtomicBodies(const Stmt *S, bool InAtomic) {
  if (InAtomic) {
    const char *Banned = nullptr;
    switch (S->getKind()) {
    case StmtKind::Atomic:
      Banned = "nested atomic blocks are not allowed";
      break;
    case StmtKind::Assign:
      if (isa<CallExpr>(cast<AssignStmt>(S)->getRHS()))
        Banned = "calls are not allowed inside atomic blocks";
      break;
    case StmtKind::ExprStmt:
      Banned = "calls are not allowed inside atomic blocks";
      break;
    case StmtKind::Async:
      Banned = "asynchronous calls are not allowed inside atomic blocks";
      break;
    case StmtKind::Return:
      Banned = "return statements are not allowed inside atomic blocks";
      break;
    default:
      break;
    }
    if (Banned) {
      Diags.error(S->getLoc(), Banned);
      return false;
    }
  }
  bool Inner = InAtomic || isa<AtomicStmt>(S);
  bool Ok = true;
  forEachSubStmt(S, [&](const Stmt *Sub) {
    Ok &= checkAtomicBodies(Sub, Inner);
  });
  return Ok;
}

bool FunctionLowerer::run() {
  StmtSink Out;
  bool Ok = lowerBlockInto(F.getBody(), Out);
  F.setBody(std::make_unique<BlockStmt>(std::move(Out), F.getLoc()));
  Ok &= checkAtomicBodies(F.getBody(), false);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Name uniquification and VarRef name fixup
//===----------------------------------------------------------------------===//

namespace {

/// Which names a function's locals may no longer take, indexed by Symbol:
/// every global and function name, plus the names already given to the
/// current function's locals. Built once per program; a function's marks
/// are told apart from the last one's by a per-function stamp, so nothing
/// is cleared between functions.
class UsedNames {
public:
  explicit UsedNames(const Program &P) : Syms(P.getSymbolTable()) {
    for (const GlobalDecl &G : P.getGlobals())
      mark(G.Name, Global);
    for (const auto &Fn : P.getFunctions())
      mark(Fn->getName(), Global);
  }

  /// Renames duplicate local names of \p F (shadowed declarations become
  /// distinct hoisted slots) so that printed programs reparse. A clash
  /// becomes Name__2, Name__3, ... the first spelling not yet taken.
  void uniquifyLocals(FuncDecl &F) {
    ++Stamp;
    std::string Fresh;
    for (VarDecl &L : F.getLocals()) {
      if (tryTake(L.Name))
        continue;
      std::string_view Name = Syms.str(L.Name);
      unsigned Suffix = 2;
      Symbol S;
      do {
        Fresh.assign(Name);
        Fresh += "__";
        Fresh += std::to_string(Suffix++);
        // A spelling never interned is taken by no one.
        S = Syms.lookup(Fresh);
      } while (S.isValid() && !tryTake(S));
      if (!S.isValid()) {
        S = Syms.intern(Fresh);
        mark(S, Stamp);
      }
      L.Name = S;
    }
  }

private:
  static constexpr uint32_t Global = ~0u;

  void mark(Symbol S, uint32_t By) {
    if (S.getIndex() >= Marks.size())
      Marks.resize(std::max<size_t>(S.getIndex() + 1, Syms.size()), 0);
    Marks[S.getIndex()] = By;
  }

  /// Takes \p S for the current function's local. \returns false if a
  /// global, a function or an earlier local of this function has it.
  bool tryTake(Symbol S) {
    if (S.getIndex() < Marks.size()) {
      uint32_t M = Marks[S.getIndex()];
      if (M == Global || M == Stamp)
        return false;
    }
    mark(S, Stamp);
    return true;
  }

  SymbolTable &Syms;
  /// Per Symbol: Global, the stamp of the function that last took it as a
  /// local name, or 0.
  std::vector<uint32_t> Marks;
  uint32_t Stamp = 0;
};

/// Re-synchronizes the cosmetic names stored in local VarRefs with their
/// (possibly renamed) slots.
void fixupVarRefNames(const FuncDecl &F, Stmt *S) {
  forEachExprPreorder(S, [&F](Expr *E) {
    auto *V = dyn_cast<VarRefExpr>(E);
    if (V && V->getVarId().isLocal())
      V->setName(F.getLocals()[V->getVarId().Index].Name);
  });
}

} // namespace

bool kiss::lower::lowerProgram(Program &P, DiagnosticEngine &Diags) {
  bool Ok = true;
  UsedNames Used(P);
  for (const auto &F : P.getFunctions()) {
    FunctionLowerer L(P, *F, Diags);
    Ok &= L.run();
    Used.uniquifyLocals(*F);
    fixupVarRefNames(*F, F->getBody());
  }
  return Ok && !Diags.hasErrors();
}
