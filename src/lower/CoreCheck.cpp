//===- CoreCheck.cpp - Validates the Figure-3 core fragment ---------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "lower/Lower.h"

using namespace kiss;
using namespace kiss::lang;
using namespace kiss::lower;

namespace {

/// Tracks the first violation found.
struct CoreValidator {
  std::string Why;
  SourceLoc WhyLoc;

  bool fail(const Stmt *At, std::string Reason) {
    if (Why.empty()) {
      Why = std::move(Reason);
      WhyLoc = At ? At->getLoc() : SourceLoc();
    }
    return false;
  }

  bool isAtomVar(const Expr *E) {
    return isa<VarRefExpr>(E) && cast<VarRefExpr>(E)->getVarId().isResolved();
  }

  /// atom | !atom | atom cmp atom. The comparison form is not produced by
  /// Lower but is used by the KISS instrumenter for its guards.
  bool isCondition(const Expr *E) {
    if (isAtom(E))
      return true;
    if (const auto *U = dyn_cast<UnaryExpr>(E))
      return U->getOp() == UnaryOp::Not && isAtom(U->getSub());
    if (const auto *B = dyn_cast<BinaryExpr>(E)) {
      switch (B->getOp()) {
      case BinaryOp::Eq:
      case BinaryOp::Ne:
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
        return isAtom(B->getLHS()) && isAtom(B->getRHS());
      default:
        return false;
      }
    }
    return false;
  }

  /// One-operator right-hand sides over atoms.
  bool isCoreRHS(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NullLit:
    case ExprKind::FuncRef:
    case ExprKind::New:
    case ExprKind::Nondet:
      return true;
    case ExprKind::VarRef:
      return isAtomVar(E);
    case ExprKind::Unary:
      return isAtom(cast<UnaryExpr>(E)->getSub());
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      if (B->getOp() == BinaryOp::LAnd || B->getOp() == BinaryOp::LOr)
        return false;
      return isAtom(B->getLHS()) && isAtom(B->getRHS());
    }
    case ExprKind::Deref:
      return isAtom(cast<DerefExpr>(E)->getSub());
    case ExprKind::Field:
      return isAtom(cast<FieldExpr>(E)->getBase());
    case ExprKind::AddrOf: {
      const Expr *Sub = cast<AddrOfExpr>(E)->getSub();
      if (isAtomVar(Sub))
        return true;
      const auto *F = dyn_cast<FieldExpr>(Sub);
      return F && isAtom(F->getBase());
    }
    case ExprKind::Call:
      return isCoreCall(E);
    }
    return false;
  }

  bool isCoreCall(const Expr *E) {
    const auto *C = dyn_cast<CallExpr>(E);
    if (!C)
      return false;
    if (!isAtom(C->getCallee()))
      return false;
    for (const ExprPtr &A : C->getArgs())
      if (!isAtom(A.get()))
        return false;
    return true;
  }

  bool isCoreLValue(const Expr *E) {
    if (isAtomVar(E))
      return true;
    if (const auto *D = dyn_cast<DerefExpr>(E))
      return isAtom(D->getSub());
    if (const auto *F = dyn_cast<FieldExpr>(E))
      return isAtom(F->getBase());
    return false;
  }

  /// Checks \p S and, stopping at the first failure, the statements
  /// nested in it.
  bool checkStmt(const Stmt *S, bool InAtomic) {
    if (!checkLeaf(S, InAtomic))
      return false;
    bool Inner = InAtomic || isa<AtomicStmt>(S);
    bool Ok = true;
    forEachSubStmt(S, [&](const Stmt *Sub) {
      Ok = Ok && checkStmt(Sub, Inner);
    });
    return Ok;
  }

  /// Checks \p S itself; compound statements pass unless misplaced.
  bool checkLeaf(const Stmt *S, bool InAtomic) {
    switch (S->getKind()) {
    case StmtKind::Decl:
      return fail(S, "declaration statement survives lowering");
    case StmtKind::If:
      return fail(S, "if statement survives lowering");
    case StmtKind::While:
      return fail(S, "while statement survives lowering");
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      if (!isCoreLValue(A->getLHS()))
        return fail(S, "assignment target is not a core lvalue");
      if (isa<CallExpr>(A->getRHS())) {
        if (InAtomic)
          return fail(S, "call inside atomic block");
        if (!isAtomVar(A->getLHS()))
          return fail(S, "call result must be assigned to a variable");
        return isCoreCall(A->getRHS()) ||
               fail(S, "call with non-atom callee or arguments");
      }
      if (!isAtomVar(A->getLHS()) && !isAtom(A->getRHS()))
        return fail(S, "store through pointer/field with non-atom source");
      return isCoreRHS(A->getRHS()) ||
             fail(S, "assignment source is not a core right-hand side");
    }
    case StmtKind::ExprStmt:
      if (InAtomic)
        return fail(S, "call inside atomic block");
      return isCoreCall(cast<ExprStmt>(S)->getExpr()) ||
             fail(S, "expression statement is not a core call");
    case StmtKind::Async: {
      if (InAtomic)
        return fail(S, "async inside atomic block");
      const auto *A = cast<AsyncStmt>(S);
      if (!isAtom(A->getCallee()))
        return fail(S, "async callee is not an atom");
      for (const ExprPtr &Arg : A->getArgs())
        if (!isAtom(Arg.get()))
          return fail(S, "async argument is not an atom");
      return true;
    }
    case StmtKind::Assert:
      return isCondition(cast<AssertStmt>(S)->getCond()) ||
             fail(S, "assert condition is not atom or !atom");
    case StmtKind::Assume:
      return isCondition(cast<AssumeStmt>(S)->getCond()) ||
             fail(S, "assume condition is not atom or !atom");
    case StmtKind::Atomic:
      return !InAtomic || fail(S, "nested atomic block");
    case StmtKind::Block:
    case StmtKind::Choice:
    case StmtKind::Iter:
      return true;
    case StmtKind::Return: {
      if (InAtomic)
        return fail(S, "return inside atomic block");
      const auto *R = cast<ReturnStmt>(S);
      if (R->getValue() && !isAtom(R->getValue()))
        return fail(S, "return value is not an atom");
      return true;
    }
    case StmtKind::Skip:
      return true;
    }
    return fail(S, "unknown statement kind");
  }
};

} // namespace

bool kiss::lower::isCoreProgram(const Program &P, std::string *Why,
                                SourceLoc *WhyLoc) {
  CoreValidator V;
  for (const auto &F : P.getFunctions()) {
    if (!F->getBody()) {
      if (Why)
        *Why = "function without a body";
      if (WhyLoc)
        *WhyLoc = F->getLoc();
      return false;
    }
    if (!V.checkStmt(F->getBody(), false)) {
      if (Why)
        *Why = "in function '" +
               std::string(P.getSymbolTable().str(F->getName())) +
               "': " + V.Why;
      if (WhyLoc)
        *WhyLoc = V.WhyLoc;
      return false;
    }
  }
  return true;
}
