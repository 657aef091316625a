//===- Steensgaard.cpp ----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "alias/Steensgaard.h"

#include "lower/Lower.h"

#include <cassert>

using namespace kiss;
using namespace kiss::alias;
using namespace kiss::lang;

namespace kiss::alias {

/// Generates and solves unification constraints for one program.
class Solver {
public:
  Solver(const Program &P, PointsTo &R) : P(P), R(R) {}

  void run() {
    for (uint32_t FI = 0, E = P.getFunctions().size(); FI != E; ++FI) {
      CurFunc = FI;
      forEachStmtPreorder(P.getFunctions()[FI]->getBody(),
                          [this](const Stmt *S) { visitStmt(S); });
    }
  }

private:
  //===--- Union-find with pointee unification ---===//

  uint32_t makeNode() {
    uint32_t Id = R.Parent.size();
    R.Parent.push_back(Id);
    R.Pointee.push_back(~0u);
    return Id;
  }

  uint32_t idOf(const AbstractLoc &L) {
    if (2 * (R.Parent.size() + 1) > R.IdSlots.size())
      R.growIdSlots();
    PointsTo::IdSlot &Slot = R.IdSlots[R.slotOf(L)];
    if (Slot.Id == ~0u) {
      Slot.Loc = L;
      Slot.Id = makeNode();
    }
    return Slot.Id;
  }

  uint32_t find(uint32_t X) {
    while (R.Parent[X] != X) {
      R.Parent[X] = R.Parent[R.Parent[X]];
      X = R.Parent[X];
    }
    return X;
  }

  /// Unifies two location nodes, recursively unifying their pointees
  /// (Steensgaard's join).
  void unify(uint32_t X, uint32_t Y) {
    X = find(X);
    Y = find(Y);
    if (X == Y)
      return;
    uint32_t PX = R.Pointee[X];
    uint32_t PY = R.Pointee[Y];
    R.Parent[Y] = X;
    if (PY == ~0u)
      return;
    if (PX == ~0u) {
      R.Pointee[X] = PY;
      return;
    }
    unify(PX, PY);
  }

  /// \returns the pointee node of \p X, creating a fresh one if absent.
  uint32_t pointeeOf(uint32_t X) {
    X = find(X);
    if (R.Pointee[X] == ~0u)
      R.Pointee[X] = makeNode();
    return find(R.Pointee[X]);
  }

  /// Records that location \p X may contain a pointer to \p Target.
  void addPointsTo(uint32_t X, uint32_t Target) {
    X = find(X);
    Target = find(Target);
    if (R.Pointee[X] == ~0u) {
      R.Pointee[X] = Target;
      return;
    }
    unify(R.Pointee[X], Target);
  }

  /// Unifies the *contents* of two locations (v = w).
  void copy(uint32_t Dst, uint32_t Src) {
    // Conservative Steensgaard: unify the two value nodes' pointees.
    Dst = find(Dst);
    Src = find(Src);
    if (Dst == Src)
      return;
    uint32_t PD = R.Pointee[Dst];
    uint32_t PS = R.Pointee[Src];
    if (PS == ~0u && PD == ~0u) {
      // Share a fresh pointee so later discoveries propagate both ways.
      uint32_t Fresh = makeNode();
      R.Pointee[find(Dst)] = Fresh;
      R.Pointee[find(Src)] = Fresh;
      return;
    }
    if (PD == ~0u) {
      R.Pointee[Dst] = find(PS);
      return;
    }
    if (PS == ~0u) {
      R.Pointee[Src] = find(PD);
      return;
    }
    unify(PD, PS);
  }

  //===--- Mapping expressions to nodes ---===//

  /// \returns the node of the location named by atom \p E, or ~0u for
  /// literals (which carry no points-to information).
  uint32_t atomNode(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::VarRef: {
      VarId Id = cast<VarRefExpr>(E)->getVarId();
      if (Id.isGlobal())
        return idOf(AbstractLoc::global(Id.Index));
      return idOf(AbstractLoc::local(CurFunc, Id.Index));
    }
    default:
      return ~0u;
    }
  }

  /// Node for the struct field named by a core field expression.
  uint32_t fieldNode(const FieldExpr *E) {
    const Type *BaseTy = E->getBase()->getType();
    Symbol S = BaseTy->getPointee()->getStructName();
    return idOf(AbstractLoc::field(S, E->getFieldIndex()));
  }

  //===--- Constraint generation ---===//

  void visitAssign(const AssignStmt *A) {
    const Expr *LHS = A->getLHS();
    const Expr *RHS = A->getRHS();

    // Destination node (a storable cell) — for *p the cell is pts(p).
    uint32_t Dst;
    if (const auto *V = dyn_cast<VarRefExpr>(LHS)) {
      (void)V;
      Dst = atomNode(LHS);
    } else if (const auto *D = dyn_cast<DerefExpr>(LHS)) {
      uint32_t PtrN = atomNode(D->getSub());
      if (PtrN == ~0u)
        return;
      Dst = pointeeOf(PtrN);
    } else {
      Dst = fieldNode(cast<FieldExpr>(LHS));
    }
    if (Dst == ~0u)
      return;

    switch (RHS->getKind()) {
    case ExprKind::VarRef:
      copy(Dst, atomNode(RHS));
      return;
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NullLit:
    case ExprKind::Unary:
    case ExprKind::Binary:
    case ExprKind::Nondet:
      return; // No pointer flows.
    case ExprKind::FuncRef:
      return; // Function values carry no memory aliasing.
    case ExprKind::AddrOf: {
      const Expr *Sub = cast<AddrOfExpr>(RHS)->getSub();
      if (const auto *V = dyn_cast<VarRefExpr>(Sub)) {
        (void)V;
        addPointsTo(Dst, atomNode(Sub));
      } else {
        addPointsTo(Dst, fieldNode(cast<FieldExpr>(Sub)));
      }
      return;
    }
    case ExprKind::Deref: {
      uint32_t PtrN = atomNode(cast<DerefExpr>(RHS)->getSub());
      if (PtrN == ~0u)
        return;
      copy(Dst, pointeeOf(PtrN));
      return;
    }
    case ExprKind::Field:
      copy(Dst, fieldNode(cast<FieldExpr>(RHS)));
      return;
    case ExprKind::New: {
      Symbol S = cast<NewExpr>(RHS)->getStructName();
      addPointsTo(Dst, idOf(AbstractLoc::object(S)));
      return;
    }
    case ExprKind::Call:
      visitCall(cast<CallExpr>(RHS), Dst);
      return;
    }
  }

  /// Binds the arguments and result of a call to \p FI's parameters and
  /// return value.
  void bindCallee(uint32_t FI, const std::vector<ExprPtr> &Args,
                  uint32_t ResultNode) {
    const FuncDecl *F = P.getFunction(FI);
    for (unsigned I = 0, E = Args.size(); I != E; ++I) {
      if (I >= F->getNumParams())
        break;
      uint32_t ArgN = atomNode(Args[I].get());
      if (ArgN != ~0u)
        copy(idOf(AbstractLoc::local(FI, I)), ArgN);
    }
    if (ResultNode != ~0u)
      copy(ResultNode, idOf(AbstractLoc::ret(FI)));
  }

  /// Binds a call to its callee, or for an indirect call to every function
  /// whose signature matches the callee's static type.
  void bindCall(const Expr *Callee, const std::vector<ExprPtr> &Args,
                uint32_t ResultNode) {
    if (const auto *F = dyn_cast<FuncRefExpr>(Callee)) {
      bindCallee(F->getFuncIndex(), Args, ResultNode);
      return;
    }
    const Type *Ty = Callee->getType();
    for (uint32_t I = 0, E = P.getFunctions().size(); I != E; ++I)
      if (P.getFunctions()[I]->getFuncType() == Ty)
        bindCallee(I, Args, ResultNode);
  }

  void visitCall(const CallExpr *C, uint32_t ResultNode) {
    bindCall(C->getCallee(), C->getArgs(), ResultNode);
  }

  void visitStmt(const Stmt *S) {
    switch (S->getKind()) {
    case StmtKind::Assign:
      visitAssign(cast<AssignStmt>(S));
      return;
    case StmtKind::ExprStmt:
      visitCall(cast<CallExpr>(cast<ExprStmt>(S)->getExpr()), ~0u);
      return;
    case StmtKind::Async: {
      const auto *A = cast<AsyncStmt>(S);
      bindCall(A->getCallee(), A->getArgs(), ~0u);
      return;
    }
    case StmtKind::Return: {
      const auto *Ret = cast<ReturnStmt>(S);
      if (Ret->getValue()) {
        uint32_t V = atomNode(Ret->getValue());
        if (V != ~0u)
          copy(idOf(AbstractLoc::ret(CurFunc)), V);
      }
      return;
    }
    default:
      return;
    }
  }

  const Program &P;
  PointsTo &R;
  uint32_t CurFunc = 0;
};

} // namespace kiss::alias

uint32_t PointsTo::find(uint32_t X) const {
  while (Parent[X] != X) {
    Parent[X] = Parent[Parent[X]];
    X = Parent[X];
  }
  return X;
}

size_t PointsTo::slotOf(const AbstractLoc &L) const {
  uint64_t H = ((uint64_t(L.A) << 32) | L.B) * 0x9e3779b97f4a7c15ull;
  H ^= static_cast<uint64_t>(L.K) * 0xc2b2ae3d27d4eb4full;
  size_t Mask = IdSlots.size() - 1;
  for (size_t I = (H >> 32) & Mask;; I = (I + 1) & Mask) {
    const IdSlot &S = IdSlots[I];
    if (S.Id == ~0u || S.Loc == L)
      return I;
  }
}

void PointsTo::growIdSlots() {
  std::vector<IdSlot> Old = std::move(IdSlots);
  IdSlots.assign(Old.empty() ? 256 : 2 * Old.size(), IdSlot());
  for (const IdSlot &S : Old)
    if (S.Id != ~0u)
      IdSlots[slotOf(S.Loc)] = S;
  Parent.reserve(IdSlots.size() / 2);
  Pointee.reserve(IdSlots.size() / 2);
}

uint32_t PointsTo::idOf(const AbstractLoc &L) const {
  return IdSlots.empty() ? ~0u : IdSlots[slotOf(L)].Id;
}

PointsTo PointsTo::analyze(const Program &P) {
  assert(lower::isCoreProgram(P) && "alias analysis requires core programs");
  PointsTo R;
  Solver S(P, R);
  S.run();
  return R;
}

bool PointsTo::mayPointTo(const AbstractLoc &L,
                          const AbstractLoc &Target) const {
  uint32_t LId = idOf(L);
  uint32_t TId = idOf(Target);
  if (TId == ~0u)
    return false; // The target's address was never taken or mentioned.
  if (LId == ~0u)
    return false; // The source cell holds no tracked pointers.
  uint32_t P = Pointee[find(LId)];
  if (P == ~0u)
    return false;
  return find(P) == find(TId);
}

bool PointsTo::exprMayPointTo(const lang::Expr *E, uint32_t FuncIndex,
                              const AbstractLoc &Target) const {
  if (const auto *V = dyn_cast<VarRefExpr>(E)) {
    VarId Id = V->getVarId();
    AbstractLoc L = Id.isGlobal() ? AbstractLoc::global(Id.Index)
                                  : AbstractLoc::local(FuncIndex, Id.Index);
    return mayPointTo(L, Target);
  }
  // Literals cannot point anywhere; anything else is not an atom and is
  // conservatively assumed to alias.
  if (isa<IntLitExpr>(E) || isa<BoolLitExpr>(E) || isa<NullLitExpr>(E) ||
      isa<FuncRefExpr>(E))
    return false;
  return true;
}
