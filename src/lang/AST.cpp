//===- AST.cpp - Deep cloning and small AST helpers -----------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "lang/AST.h"

using namespace kiss;
using namespace kiss::lang;

const char *kiss::lang::getBinaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::LAnd:
    return "&&";
  case BinaryOp::LOr:
    return "||";
  }
  return "<?>";
}

static ExprPtr cloneOrNull(const Expr *E) { return E ? E->clone() : nullptr; }
static StmtPtr cloneOrNull(const Stmt *S) { return S ? S->clone() : nullptr; }

ExprPtr Expr::clone() const {
  ExprPtr Out;
  switch (Kind) {
  case ExprKind::IntLit: {
    const auto *E = cast<IntLitExpr>(this);
    Out = std::make_unique<IntLitExpr>(E->getValue(), Loc);
    break;
  }
  case ExprKind::BoolLit: {
    const auto *E = cast<BoolLitExpr>(this);
    Out = std::make_unique<BoolLitExpr>(E->getValue(), Loc);
    break;
  }
  case ExprKind::NullLit:
    Out = std::make_unique<NullLitExpr>(Loc);
    break;
  case ExprKind::VarRef: {
    const auto *E = cast<VarRefExpr>(this);
    auto V = std::make_unique<VarRefExpr>(E->getName(), Loc);
    V->setVarId(E->getVarId());
    Out = std::move(V);
    break;
  }
  case ExprKind::FuncRef: {
    const auto *E = cast<FuncRefExpr>(this);
    auto F = std::make_unique<FuncRefExpr>(E->getName(), Loc);
    F->setFuncIndex(E->getFuncIndex());
    Out = std::move(F);
    break;
  }
  case ExprKind::Unary: {
    const auto *E = cast<UnaryExpr>(this);
    Out = std::make_unique<UnaryExpr>(E->getOp(), E->getSub()->clone(), Loc);
    break;
  }
  case ExprKind::Binary: {
    const auto *E = cast<BinaryExpr>(this);
    Out = std::make_unique<BinaryExpr>(E->getOp(), E->getLHS()->clone(),
                                       E->getRHS()->clone(), Loc);
    break;
  }
  case ExprKind::Deref: {
    const auto *E = cast<DerefExpr>(this);
    Out = std::make_unique<DerefExpr>(E->getSub()->clone(), Loc);
    break;
  }
  case ExprKind::Field: {
    const auto *E = cast<FieldExpr>(this);
    auto F =
        std::make_unique<FieldExpr>(E->getBase()->clone(), E->getField(), Loc);
    F->setFieldIndex(E->getFieldIndex());
    Out = std::move(F);
    break;
  }
  case ExprKind::AddrOf: {
    const auto *E = cast<AddrOfExpr>(this);
    Out = std::make_unique<AddrOfExpr>(E->getSub()->clone(), Loc);
    break;
  }
  case ExprKind::Call: {
    const auto *E = cast<CallExpr>(this);
    std::vector<ExprPtr> Args;
    Args.reserve(E->getArgs().size());
    for (const ExprPtr &A : E->getArgs())
      Args.push_back(A->clone());
    Out = std::make_unique<CallExpr>(E->getCallee()->clone(), std::move(Args),
                                     Loc);
    break;
  }
  case ExprKind::New: {
    const auto *E = cast<NewExpr>(this);
    Out = std::make_unique<NewExpr>(E->getStructName(), Loc);
    break;
  }
  case ExprKind::Nondet: {
    const auto *E = cast<NondetExpr>(this);
    if (E->isBool())
      Out = std::make_unique<NondetExpr>(Loc);
    else
      Out = std::make_unique<NondetExpr>(E->getLo(), E->getHi(), Loc);
    break;
  }
  }
  Out->setType(getType());
  return Out;
}

StmtPtr Stmt::clone() const {
  StmtPtr Out;
  switch (Kind) {
  case StmtKind::Block: {
    const auto *S = cast<BlockStmt>(this);
    auto B = std::make_unique<BlockStmt>(Loc);
    B->getStmts().reserve(S->getStmts().size());
    for (const StmtPtr &Sub : S->getStmts())
      B->append(Sub->clone());
    Out = std::move(B);
    break;
  }
  case StmtKind::Decl: {
    const auto *S = cast<DeclStmt>(this);
    auto D = std::make_unique<DeclStmt>(S->getName(), S->getDeclType(),
                                        cloneOrNull(S->getInit()), Loc);
    D->setVarId(S->getVarId());
    Out = std::move(D);
    break;
  }
  case StmtKind::Assign: {
    const auto *S = cast<AssignStmt>(this);
    Out = std::make_unique<AssignStmt>(S->getLHS()->clone(),
                                       S->getRHS()->clone(), Loc);
    break;
  }
  case StmtKind::ExprStmt: {
    const auto *S = cast<ExprStmt>(this);
    Out = std::make_unique<ExprStmt>(S->getExpr()->clone(), Loc);
    break;
  }
  case StmtKind::Async: {
    const auto *S = cast<AsyncStmt>(this);
    std::vector<ExprPtr> Args;
    Args.reserve(S->getArgs().size());
    for (const ExprPtr &A : S->getArgs())
      Args.push_back(A->clone());
    Out = std::make_unique<AsyncStmt>(S->getCallee()->clone(), std::move(Args),
                                      Loc);
    break;
  }
  case StmtKind::Assert: {
    const auto *S = cast<AssertStmt>(this);
    Out = std::make_unique<AssertStmt>(S->getCond()->clone(), Loc);
    break;
  }
  case StmtKind::Assume: {
    const auto *S = cast<AssumeStmt>(this);
    Out = std::make_unique<AssumeStmt>(S->getCond()->clone(), Loc);
    break;
  }
  case StmtKind::Atomic: {
    const auto *S = cast<AtomicStmt>(this);
    Out = std::make_unique<AtomicStmt>(S->getBody()->clone(), Loc);
    break;
  }
  case StmtKind::If: {
    const auto *S = cast<IfStmt>(this);
    Out = std::make_unique<IfStmt>(S->getCond()->clone(),
                                   S->getThen()->clone(),
                                   cloneOrNull(S->getElse()), Loc);
    break;
  }
  case StmtKind::While: {
    const auto *S = cast<WhileStmt>(this);
    Out = std::make_unique<WhileStmt>(S->getCond()->clone(),
                                      S->getBody()->clone(), Loc);
    break;
  }
  case StmtKind::Choice: {
    const auto *S = cast<ChoiceStmt>(this);
    std::vector<StmtPtr> Branches;
    Branches.reserve(S->getBranches().size());
    for (const StmtPtr &B : S->getBranches())
      Branches.push_back(B->clone());
    Out = std::make_unique<ChoiceStmt>(std::move(Branches), Loc);
    break;
  }
  case StmtKind::Iter: {
    const auto *S = cast<IterStmt>(this);
    Out = std::make_unique<IterStmt>(S->getBody()->clone(), Loc);
    break;
  }
  case StmtKind::Return: {
    const auto *S = cast<ReturnStmt>(this);
    Out = std::make_unique<ReturnStmt>(cloneOrNull(S->getValue()), Loc);
    break;
  }
  case StmtKind::Skip:
    Out = std::make_unique<SkipStmt>(Loc);
    break;
  }
  Out->setRole(getRole());
  Out->setOrigin(getOrigin());
  Out->setBenign(isBenign());
  return Out;
}
