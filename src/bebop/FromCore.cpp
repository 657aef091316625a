//===- FromCore.cpp -------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "bebop/FromCore.h"

#include "cfg/CFG.h"
#include "lower/Lower.h"
#include "support/Diagnostics.h"

#include <cassert>
#include <map>

using namespace kiss;
using namespace kiss::bebop;
using namespace kiss::lang;

namespace {

/// "int" / "a pointer" / "non-bool" for fragment-rejection messages.
const char *describeNonBoolType(const Type *Ty) {
  if (Ty->isInt())
    return "int";
  if (Ty->isPointer())
    return "a pointer";
  return "non-bool";
}

/// \returns the first async statement in \p S (or a nested statement),
/// null if none. Also finds the first non-bool surface declaration before
/// it via \p BadDecl.
const Stmt *findAsyncOrBadDecl(const Stmt *S, const Stmt *&BadDecl) {
  const Stmt *Async = nullptr;
  if (!S)
    return Async;
  forEachStmtPreorder(S, [&](const Stmt *Sub) {
    if (Async)
      return;
    if (isa<AsyncStmt>(Sub))
      Async = Sub;
    else if (const auto *D = dyn_cast<DeclStmt>(Sub);
             D && !BadDecl && !D->getDeclType()->isBool())
      BadDecl = Sub;
  });
  return Async;
}

} // namespace

bool kiss::bebop::isBooleanFragment(const Program &P, std::string *Why,
                                    SourceLoc *Where) {
  auto fail = [&](std::string Reason, SourceLoc Loc) {
    if (Why)
      *Why = std::move(Reason);
    if (Where)
      *Where = Loc;
    return false;
  };

  if (!P.getStructs().empty())
    return fail("program declares structs", SourceLoc());
  for (const GlobalDecl &G : P.getGlobals())
    if (!G.Ty->isBool())
      return fail("global '" + std::string(P.getSymbolTable().str(G.Name)) +
                      "' is " + describeNonBoolType(G.Ty),
                  G.Loc);
  // Return slots become extra globals, so the 64-global scope limit covers
  // program globals plus one slot per bool-returning function.
  size_t NumGlobals = P.getGlobals().size();
  for (const auto &F : P.getFunctions()) {
    const std::string Name(P.getSymbolTable().str(F->getName()));
    if (!F->getReturnType()->isVoid() && !F->getReturnType()->isBool())
      return fail("function '" + Name + "' returns " +
                      describeNonBoolType(F->getReturnType()),
                  F->getLoc());
    if (F->getReturnType()->isBool())
      ++NumGlobals;
    if (F->getLocals().size() > MaxVarsPerScope)
      return fail("function '" + Name + "' declares " +
                      std::to_string(F->getLocals().size()) +
                      " locals, over the 64-variable scope limit",
                  F->getLoc());
    for (const VarDecl &L : F->getLocals())
      if (!L.Ty->isBool())
        return fail("local '" + std::string(P.getSymbolTable().str(L.Name)) +
                        "' of function '" + Name + "' is " +
                        describeNonBoolType(L.Ty),
                    L.Loc);
    const Stmt *BadDecl = nullptr;
    if (const Stmt *A = findAsyncOrBadDecl(F->getBody(), BadDecl))
      return fail("function '" + Name +
                      "' forks a thread (async is outside the sequential "
                      "fragment)",
                  A->getLoc());
    if (BadDecl)
      return fail("declaration in function '" + Name + "' is " +
                      describeNonBoolType(
                          cast<DeclStmt>(BadDecl)->getDeclType()),
                  BadDecl->getLoc());
  }
  if (NumGlobals > MaxVarsPerScope)
    return fail("program needs " + std::to_string(NumGlobals) +
                    " globals (including return slots), over the "
                    "64-variable scope limit",
                SourceLoc());
  return true;
}

namespace {

/// Converts one program; assumes the boolean-fragment check passed.
class Converter {
public:
  Converter(const Program &P, DiagnosticEngine &Diags)
      : P(P), Diags(Diags) {}

  std::optional<BoolProgram> run();

private:
  bool convertExpr(const Expr *E, BExpr &Out);
  bool convertCondition(const Expr *E, BExpr &Out);
  bool convertFunction(uint32_t FuncIdx, const cfg::FunctionCFG &FCFG);

  bool error(SourceLoc Loc, std::string Msg) {
    Diags.error(Loc, std::move(Msg));
    return false;
  }

  const Program &P;
  DiagnosticEngine &Diags;
  BoolProgram Out;
  /// Return-value global bit per function (-1 when void).
  std::vector<int> RetGlobal;
};

bool Converter::convertExpr(const Expr *E, BExpr &Out) {
  switch (E->getKind()) {
  case ExprKind::BoolLit:
    Out = BExpr::constant(cast<BoolLitExpr>(E)->getValue());
    return true;
  case ExprKind::VarRef: {
    VarId Id = cast<VarRefExpr>(E)->getVarId();
    Out = Id.isGlobal() ? BExpr::global(Id.Index) : BExpr::local(Id.Index);
    return true;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->getOp() != UnaryOp::Not)
      return error(E->getLoc(), "non-boolean unary operator");
    BExpr Sub;
    if (!convertExpr(U->getSub(), Sub))
      return false;
    Out = BExpr::unary(BExpr::Kind::Not, std::move(Sub));
    return true;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    BExpr::Kind K;
    switch (B->getOp()) {
    case BinaryOp::Eq:
      K = BExpr::Kind::Eq;
      break;
    case BinaryOp::Ne:
      K = BExpr::Kind::Ne;
      break;
    default:
      return error(E->getLoc(), "non-boolean binary operator");
    }
    BExpr L, R;
    if (!convertExpr(B->getLHS(), L) || !convertExpr(B->getRHS(), R))
      return false;
    Out = BExpr::binary(K, std::move(L), std::move(R));
    return true;
  }
  case ExprKind::Nondet:
    Out = BExpr::nondet();
    return true;
  default:
    return error(E->getLoc(), "expression outside the boolean fragment");
  }
}

bool Converter::convertCondition(const Expr *E, BExpr &Out) {
  return convertExpr(E, Out);
}

bool Converter::convertFunction(uint32_t FuncIdx,
                                const cfg::FunctionCFG &FCFG) {
  const FuncDecl &F = *P.getFunctions()[FuncIdx];
  BFunction &BF = Out.Funcs[FuncIdx];
  BF.Name = std::string(P.getSymbolTable().str(F.getName()));
  BF.NumParams = F.getNumParams();
  BF.NumLocals = F.getLocals().size();
  if (BF.NumLocals > MaxVarsPerScope)
    return error(F.getLoc(),
                 "function '" + BF.Name + "' exceeds the 64-local limit");

  // First pass: one primary boolean node per CFG node (placeholders), so
  // successor ids can be copied through; extra nodes are appended.
  const uint32_t NumCfgNodes = FCFG.getNumNodes();
  BF.Nodes.resize(NumCfgNodes);
  BF.Entry = FCFG.getEntry();
  // A dedicated exit every Return jumps to.
  BF.Nodes.push_back(BNode{});
  uint32_t ExitId = BF.Nodes.size() - 1;
  BF.Nodes[ExitId].K = BNode::Kind::Exit;
  BF.Exit = ExitId;

  for (uint32_t I = 0; I != NumCfgNodes; ++I) {
    const cfg::Node &N = FCFG.getNode(I);
    // Default: a Nop wired like the CFG node.
    BF.Nodes[I].K = BNode::Kind::Nop;
    BF.Nodes[I].Succs.assign(N.Succs.begin(), N.Succs.end());

    switch (N.Kind) {
    case cfg::NodeKind::Nop:
    case cfg::NodeKind::AtomicBegin:
    case cfg::NodeKind::AtomicEnd:
      break;

    case cfg::NodeKind::Stmt: {
      const Stmt *S = N.S;
      switch (S->getKind()) {
      case StmtKind::Assign: {
        const auto *A = cast<AssignStmt>(S);
        const auto *LHS = dyn_cast<VarRefExpr>(A->getLHS());
        if (!LHS)
          return error(S->getLoc(),
                       "assignment through memory outside the fragment");
        BF.Nodes[I].K = BNode::Kind::Assign;
        BF.Nodes[I].IsGlobalTarget = LHS->getVarId().isGlobal();
        BF.Nodes[I].Target = LHS->getVarId().Index;
        if (!convertExpr(A->getRHS(), BF.Nodes[I].Expr))
          return false;
        break;
      }
      case StmtKind::Assert:
        BF.Nodes[I].K = BNode::Kind::Assert;
        if (!convertCondition(cast<AssertStmt>(S)->getCond(),
                              BF.Nodes[I].Expr))
          return false;
        break;
      case StmtKind::Assume:
        BF.Nodes[I].K = BNode::Kind::Assume;
        if (!convertCondition(cast<AssumeStmt>(S)->getCond(),
                              BF.Nodes[I].Expr))
          return false;
        break;
      case StmtKind::Skip:
        break;
      case StmtKind::Async:
        return error(S->getLoc(),
                     "async statement outside the sequential fragment");
      default:
        return error(S->getLoc(),
                     "unexpected statement in the boolean fragment");
      }
      break;
    }

    case cfg::NodeKind::Call: {
      const CallExpr *Call;
      const VarRefExpr *ResultVar = nullptr;
      if (const auto *A = dyn_cast<AssignStmt>(N.S)) {
        Call = cast<CallExpr>(A->getRHS());
        ResultVar = cast<VarRefExpr>(A->getLHS());
      } else {
        Call = cast<CallExpr>(cast<ExprStmt>(N.S)->getExpr());
      }
      const auto *Callee = dyn_cast<FuncRefExpr>(Call->getCallee());
      if (!Callee)
        return error(N.S->getLoc(),
                     "indirect calls are outside the boolean fragment");

      BF.Nodes[I].K = BNode::Kind::Call;
      BF.Nodes[I].Callee = Callee->getFuncIndex();
      for (const ExprPtr &Arg : Call->getArgs()) {
        BExpr BA;
        if (!convertExpr(Arg.get(), BA))
          return false;
        if (BA.K == BExpr::Kind::Nondet)
          return error(Arg->getLoc(),
                       "nondet call arguments are not supported");
        BF.Nodes[I].Args.push_back(std::move(BA));
      }

      if (ResultVar) {
        // Call -> (v := ret-global of callee) -> original successors.
        int Ret = RetGlobal[Callee->getFuncIndex()];
        assert(Ret >= 0 && "bool-result call to a void function");
        BNode Copy;
        Copy.K = BNode::Kind::Assign;
        Copy.IsGlobalTarget = ResultVar->getVarId().isGlobal();
        Copy.Target = ResultVar->getVarId().Index;
        Copy.Expr = BExpr::global(static_cast<uint32_t>(Ret));
        Copy.Succs = BF.Nodes[I].Succs;
        BF.Nodes.push_back(std::move(Copy));
        BF.Nodes[I].Succs = {static_cast<uint32_t>(BF.Nodes.size() - 1)};
      }
      break;
    }

    case cfg::NodeKind::Return: {
      const Expr *Value =
          N.S ? cast<ReturnStmt>(N.S)->getValue() : nullptr;
      if (Value && RetGlobal[FuncIdx] >= 0) {
        // (ret-global := value) -> exit.
        BF.Nodes[I].K = BNode::Kind::Assign;
        BF.Nodes[I].IsGlobalTarget = true;
        BF.Nodes[I].Target = static_cast<uint32_t>(RetGlobal[FuncIdx]);
        if (!convertExpr(Value, BF.Nodes[I].Expr))
          return false;
      }
      BF.Nodes[I].Succs = {ExitId};
      break;
    }
    }
  }
  return true;
}

std::optional<BoolProgram> Converter::run() {
  std::string Why;
  SourceLoc Where;
  if (!isBooleanFragment(P, &Why, &Where)) {
    error(Where, "program is outside the boolean fragment: " + Why);
    return std::nullopt;
  }
  if (!lower::isCoreProgram(P, &Why)) {
    error(SourceLoc(), "program is not in core form: " + Why);
    return std::nullopt;
  }

  // Globals: program globals first, then one return slot per bool-returning
  // function.
  Out.NumGlobals = P.getGlobals().size();
  for (unsigned I = 0, E = P.getGlobals().size(); I != E; ++I)
    if (P.getGlobals()[I].Init && P.getGlobals()[I].Init->BoolValue)
      Out.InitialGlobals |= 1ull << I;

  RetGlobal.assign(P.getFunctions().size(), -1);
  for (unsigned I = 0, E = P.getFunctions().size(); I != E; ++I)
    if (P.getFunctions()[I]->getReturnType()->isBool())
      RetGlobal[I] = Out.NumGlobals++;
  if (Out.NumGlobals > MaxVarsPerScope) {
    error(SourceLoc(), "program exceeds the 64-global limit");
    return std::nullopt;
  }

  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(P);
  Out.Funcs.resize(P.getFunctions().size());
  for (unsigned I = 0, E = P.getFunctions().size(); I != E; ++I)
    if (!convertFunction(I, CFG.getFunctionCFG(I)))
      return std::nullopt;

  int Entry = P.getFunctionIndex(P.getEntryName());
  if (Entry < 0) {
    error(SourceLoc(), "program has no entry function");
    return std::nullopt;
  }
  Out.EntryFunc = Entry;
  return std::move(Out);
}

} // namespace

std::optional<BoolProgram>
kiss::bebop::convertFromCore(const Program &P, DiagnosticEngine &Diags) {
  Converter C(P, Diags);
  return C.run();
}
