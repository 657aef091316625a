//===- Sema.cpp -----------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "lang/Sema.h"

#include "support/Diagnostics.h"

#include <map>
#include <utility>
#include <vector>

using namespace kiss;
using namespace kiss::lang;

namespace {

/// Per-run semantic analysis state.
class SemaChecker {
public:
  SemaChecker(Program &P, DiagnosticEngine &Diags)
      : P(P), Syms(P.getSymbolTable()), Types(P.getTypeContext()),
        Diags(Diags) {}

  bool run();

private:
  //===--- Declarations ---===//
  bool checkStructs();
  bool checkGlobals();
  bool registerFunctionSignatures();
  bool checkFunctionBody(FuncDecl &F);

  //===--- Statements ---===//
  bool checkStmt(Stmt *S);
  bool checkBlock(BlockStmt *B);

  //===--- Expressions ---===//
  /// Checks \p E in place, replacing the node when a VarRef resolves to a
  /// function name. \p Expected guides contextually-typed literals (null).
  /// \returns the expression type, or null on error.
  const Type *checkExpr(ExprPtr &E, const Type *Expected = nullptr);
  const Type *checkCall(ExprPtr &E);
  bool checkCallArgs(const Type *FuncTy, std::vector<ExprPtr> &Args,
                     SourceLoc Loc);

  /// Checks a boolean condition in place.
  bool checkCondition(ExprPtr &Cond, SourceLoc Loc, const char *What);

  /// \returns true if \p E is a legal assignment / address-of target
  /// (variable, *pointer, or base->field).
  static bool isLValue(const Expr *E) {
    return isa<VarRefExpr>(E) || isa<DerefExpr>(E) || isa<FieldExpr>(E);
  }

  /// \returns true if values of type \p Ty fit in one memory cell.
  static bool isScalar(const Type *Ty) {
    return Ty->isBool() || Ty->isInt() || Ty->isPointer() || Ty->isFunc();
  }

  void error(SourceLoc Loc, std::string Msg) {
    Diags.error(Loc, std::move(Msg));
  }
  std::string typeName(const Type *Ty) const { return Ty->str(Syms); }
  std::string name(Symbol S) const { return std::string(Syms.str(S)); }

  //===--- Scopes ---===//
  void pushScope() { ScopeStarts.push_back(Shadowed.size()); }
  void popScope();
  bool declareLocal(Symbol Name, VarId Id, SourceLoc Loc);
  /// \returns the resolved id of \p Name, searching innermost-out, then
  /// globals. Unresolved if absent.
  VarId lookupVar(Symbol Name) const;

  Program &P;
  SymbolTable &Syms;
  TypeContext &Types;
  DiagnosticEngine &Diags;

  FuncDecl *CurFunc = nullptr;
  /// A name's innermost local binding and the depth of the open scope that
  /// holds it; depth 0 means no open scope binds the name.
  struct Binding {
    VarId Id;
    uint32_t Depth = 0;
  };
  /// Indexed by Symbol.
  std::vector<Binding> Bindings;
  /// Each declaration in the open scopes with the binding it replaced,
  /// oldest first; popScope restores them.
  std::vector<std::pair<Symbol, Binding>> Shadowed;
  /// Shadowed.size() when each open scope began, outermost first.
  std::vector<size_t> ScopeStarts;
};

} // namespace

bool SemaChecker::run() {
  bool Ok = checkStructs();
  Ok &= checkGlobals();
  Ok &= registerFunctionSignatures();
  if (!Ok)
    return false;
  for (const auto &F : P.getFunctions())
    Ok &= checkFunctionBody(*F);
  return Ok && !Diags.hasErrors();
}

bool SemaChecker::checkStructs() {
  bool Ok = true;
  for (const auto &S : P.getStructs()) {
    for (const FieldDecl &F : S->getFields()) {
      if (F.Ty->isVoid() || F.Ty->isStruct()) {
        error(F.Loc, "field '" + name(F.Name) +
                         "' must have scalar type; use a pointer for "
                         "struct-typed fields");
        Ok = false;
      }
    }
  }
  return Ok;
}

bool SemaChecker::checkGlobals() {
  bool Ok = true;
  std::map<Symbol, SourceLoc> Seen;
  for (GlobalDecl &G : P.getGlobals()) {
    if (!Seen.emplace(G.Name, G.Loc).second) {
      error(G.Loc, "redefinition of global '" + name(G.Name) + "'");
      Ok = false;
      continue;
    }
    if (!isScalar(G.Ty)) {
      error(G.Loc, "global '" + name(G.Name) + "' must have scalar type");
      Ok = false;
      continue;
    }
    if (!G.Init)
      continue;
    bool InitOk = false;
    switch (G.Init->K) {
    case ConstInit::Kind::Int:
      InitOk = G.Ty->isInt();
      break;
    case ConstInit::Kind::Bool:
      InitOk = G.Ty->isBool();
      break;
    case ConstInit::Kind::Null:
      InitOk = G.Ty->isPointer() || G.Ty->isFunc();
      break;
    }
    if (!InitOk) {
      error(G.Loc, "initializer type does not match global '" + name(G.Name) +
                       "' of type " + typeName(G.Ty));
      Ok = false;
    }
  }
  return Ok;
}

bool SemaChecker::registerFunctionSignatures() {
  bool Ok = true;
  std::vector<bool> Seen(Syms.size());
  for (const auto &F : P.getFunctions()) {
    if (Seen[F->getName().getIndex()]) {
      error(F->getLoc(),
            "redefinition of function '" + name(F->getName()) + "'");
      Ok = false;
      continue;
    }
    Seen[F->getName().getIndex()] = true;
    if (P.getGlobalIndex(F->getName()) >= 0) {
      error(F->getLoc(), "'" + name(F->getName()) +
                             "' is declared as both a global and a function");
      Ok = false;
    }
    std::vector<const Type *> ParamTys;
    for (unsigned I = 0; I != F->getNumParams(); ++I) {
      const VarDecl &Param = F->getLocals()[I];
      if (!isScalar(Param.Ty)) {
        error(Param.Loc,
              "parameter '" + name(Param.Name) + "' must have scalar type");
        Ok = false;
      }
      ParamTys.push_back(Param.Ty);
    }
    const Type *RetTy = F->getReturnType();
    if (!RetTy->isVoid() && !isScalar(RetTy)) {
      error(F->getLoc(), "return type of '" + name(F->getName()) +
                             "' must be void or scalar");
      Ok = false;
    }
    F->setFuncType(Types.getFuncType(RetTy, std::move(ParamTys)));
  }
  return Ok;
}

void SemaChecker::popScope() {
  size_t Start = ScopeStarts.back();
  for (size_t I = Shadowed.size(); I != Start; --I)
    Bindings[Shadowed[I - 1].first.getIndex()] = Shadowed[I - 1].second;
  Shadowed.resize(Start);
  ScopeStarts.pop_back();
}

bool SemaChecker::declareLocal(Symbol Name, VarId Id, SourceLoc Loc) {
  assert(!ScopeStarts.empty() && "no active scope");
  uint32_t Depth = static_cast<uint32_t>(ScopeStarts.size());
  if (Name.getIndex() >= Bindings.size())
    Bindings.resize(Syms.size());
  Binding &B = Bindings[Name.getIndex()];
  if (B.Depth == Depth) {
    error(Loc, "redefinition of '" + this->name(Name) + "' in the same scope");
    return false;
  }
  Shadowed.emplace_back(Name, B);
  B = Binding{Id, Depth};
  return true;
}

VarId SemaChecker::lookupVar(Symbol Name) const {
  if (Name.getIndex() < Bindings.size() && Bindings[Name.getIndex()].Depth)
    return Bindings[Name.getIndex()].Id;
  int G = P.getGlobalIndex(Name);
  if (G >= 0)
    return VarId{VarScope::Global, static_cast<uint32_t>(G)};
  return VarId{};
}

bool SemaChecker::checkFunctionBody(FuncDecl &F) {
  CurFunc = &F;
  assert(ScopeStarts.empty() && "scopes left open by the previous function");
  pushScope();
  bool Ok = true;
  for (unsigned I = 0; I != F.getNumParams(); ++I) {
    const VarDecl &Param = F.getLocals()[I];
    Ok &= declareLocal(Param.Name, VarId{VarScope::Local, I}, Param.Loc);
  }
  Ok &= checkStmt(F.getBody());
  popScope();
  CurFunc = nullptr;
  return Ok;
}

bool SemaChecker::checkBlock(BlockStmt *B) {
  pushScope();
  bool Ok = true;
  for (StmtPtr &S : B->getStmts())
    Ok &= checkStmt(S.get());
  popScope();
  return Ok;
}

bool SemaChecker::checkCondition(ExprPtr &Cond, SourceLoc Loc,
                                 const char *What) {
  const Type *Ty = checkExpr(Cond);
  if (!Ty)
    return false;
  if (!Ty->isBool()) {
    error(Loc, std::string(What) + " must have type bool, got " +
                   typeName(Ty));
    return false;
  }
  return true;
}

bool SemaChecker::checkStmt(Stmt *S) {
  switch (S->getKind()) {
  case StmtKind::Block:
    return checkBlock(cast<BlockStmt>(S));

  case StmtKind::Decl: {
    auto *D = cast<DeclStmt>(S);
    if (!isScalar(D->getDeclType())) {
      error(S->getLoc(),
            "local '" + name(D->getName()) + "' must have scalar type");
      return false;
    }
    uint32_t Slot = CurFunc->addLocal(
        VarDecl{D->getName(), D->getDeclType(), D->getLoc()});
    VarId Id{VarScope::Local, Slot};
    D->setVarId(Id);
    bool Ok = declareLocal(D->getName(), Id, D->getLoc());
    if (D->getInit()) {
      const Type *InitTy = checkExpr(D->getInitRef(), D->getDeclType());
      if (!InitTy)
        return false;
      if (InitTy != D->getDeclType()) {
        error(S->getLoc(), "cannot initialize '" + name(D->getName()) +
                               "' of type " + typeName(D->getDeclType()) +
                               " with value of type " + typeName(InitTy));
        Ok = false;
      }
    }
    return Ok;
  }

  case StmtKind::Assign: {
    auto *A = cast<AssignStmt>(S);
    if (!isLValue(A->getLHS())) {
      error(S->getLoc(), "left-hand side of assignment is not assignable");
      return false;
    }
    const Type *LTy = checkExpr(A->getLHSRef());
    if (!LTy)
      return false;
    if (!isScalar(LTy)) {
      error(S->getLoc(), "cannot assign a non-scalar value");
      return false;
    }
    const Type *RTy = checkExpr(A->getRHSRef(), LTy);
    if (!RTy)
      return false;
    if (RTy->isVoid()) {
      error(S->getLoc(), "cannot assign a void call result");
      return false;
    }
    if (RTy != LTy) {
      error(S->getLoc(), "cannot assign value of type " + typeName(RTy) +
                             " to target of type " + typeName(LTy));
      return false;
    }
    return true;
  }

  case StmtKind::ExprStmt: {
    auto *ES = cast<ExprStmt>(S);
    if (!isa<CallExpr>(ES->getExpr())) {
      error(S->getLoc(), "expression statement must be a call");
      return false;
    }
    return checkExpr(ES->getExprRef()) != nullptr;
  }

  case StmtKind::Async: {
    auto *A = cast<AsyncStmt>(S);
    const Type *CalleeTy = checkExpr(A->getCalleeRef());
    if (!CalleeTy)
      return false;
    if (!CalleeTy->isFunc()) {
      error(S->getLoc(), "async callee must be a function value, got " +
                             typeName(CalleeTy));
      return false;
    }
    if (!CalleeTy->getReturnType()->isVoid()) {
      error(S->getLoc(), "async callee must return void");
      return false;
    }
    return checkCallArgs(CalleeTy, A->getArgs(), S->getLoc());
  }

  case StmtKind::Assert:
    return checkCondition(cast<AssertStmt>(S)->getCondRef(), S->getLoc(),
                          "assert condition");
  case StmtKind::Assume:
    return checkCondition(cast<AssumeStmt>(S)->getCondRef(), S->getLoc(),
                          "assume condition");

  case StmtKind::Atomic:
    return checkStmt(cast<AtomicStmt>(S)->getBody());

  case StmtKind::If: {
    auto *I = cast<IfStmt>(S);
    bool Ok = checkCondition(I->getCondRef(), S->getLoc(), "if condition");
    Ok &= checkStmt(I->getThen());
    if (I->getElse())
      Ok &= checkStmt(I->getElse());
    return Ok;
  }

  case StmtKind::While: {
    auto *W = cast<WhileStmt>(S);
    bool Ok = checkCondition(W->getCondRef(), S->getLoc(), "while condition");
    Ok &= checkStmt(W->getBody());
    return Ok;
  }

  case StmtKind::Choice: {
    bool Ok = true;
    for (StmtPtr &B : cast<ChoiceStmt>(S)->getBranches())
      Ok &= checkStmt(B.get());
    return Ok;
  }

  case StmtKind::Iter:
    return checkStmt(cast<IterStmt>(S)->getBody());

  case StmtKind::Return: {
    auto *R = cast<ReturnStmt>(S);
    const Type *RetTy = CurFunc->getReturnType();
    if (!R->getValue()) {
      if (!RetTy->isVoid()) {
        error(S->getLoc(), "non-void function '" + name(CurFunc->getName()) +
                               "' must return a value");
        return false;
      }
      return true;
    }
    if (RetTy->isVoid()) {
      error(S->getLoc(), "void function cannot return a value");
      return false;
    }
    const Type *Ty = checkExpr(R->getValueRef(), RetTy);
    if (!Ty)
      return false;
    if (Ty != RetTy) {
      error(S->getLoc(), "return type mismatch: expected " + typeName(RetTy) +
                             ", got " + typeName(Ty));
      return false;
    }
    return true;
  }

  case StmtKind::Skip:
    return true;
  }
  return false;
}

const Type *SemaChecker::checkCall(ExprPtr &E) {
  auto *Call = cast<CallExpr>(E.get());
  const Type *CalleeTy = checkExpr(Call->getCalleeRef());
  if (!CalleeTy)
    return nullptr;
  if (!CalleeTy->isFunc()) {
    error(E->getLoc(),
          "called value has non-function type " + typeName(CalleeTy));
    return nullptr;
  }
  if (!checkCallArgs(CalleeTy, Call->getArgs(), E->getLoc()))
    return nullptr;
  E->setType(CalleeTy->getReturnType());
  return E->getType();
}

bool SemaChecker::checkCallArgs(const Type *FuncTy, std::vector<ExprPtr> &Args,
                                SourceLoc Loc) {
  const auto &Params = FuncTy->getParamTypes();
  if (Args.size() != Params.size()) {
    error(Loc, "call expects " + std::to_string(Params.size()) +
                   " argument(s), got " + std::to_string(Args.size()));
    return false;
  }
  bool Ok = true;
  for (unsigned I = 0, N = Args.size(); I != N; ++I) {
    const Type *ArgTy = checkExpr(Args[I], Params[I]);
    if (!ArgTy) {
      Ok = false;
      continue;
    }
    if (ArgTy != Params[I]) {
      error(Args[I]->getLoc(), "argument " + std::to_string(I + 1) +
                                   " has type " + typeName(ArgTy) +
                                   ", expected " + typeName(Params[I]));
      Ok = false;
    }
  }
  return Ok;
}

const Type *SemaChecker::checkExpr(ExprPtr &E, const Type *Expected) {
  switch (E->getKind()) {
  case ExprKind::IntLit:
    E->setType(Types.getIntType());
    return E->getType();

  case ExprKind::BoolLit:
    E->setType(Types.getBoolType());
    return E->getType();

  case ExprKind::NullLit: {
    if (!Expected || (!Expected->isPointer() && !Expected->isFunc())) {
      error(E->getLoc(), "cannot infer the pointer type of 'null' here");
      return nullptr;
    }
    E->setType(Expected);
    return E->getType();
  }

  case ExprKind::VarRef: {
    auto *V = cast<VarRefExpr>(E.get());
    VarId Id = lookupVar(V->getName());
    if (Id.isResolved()) {
      V->setVarId(Id);
      const Type *Ty = Id.isGlobal() ? P.getGlobals()[Id.Index].Ty
                                     : CurFunc->getLocals()[Id.Index].Ty;
      E->setType(Ty);
      return Ty;
    }
    // A name that resolves to a function becomes a FuncRef value.
    int FI = P.getFunctionIndex(V->getName());
    if (FI >= 0) {
      auto F = std::make_unique<FuncRefExpr>(V->getName(), E->getLoc());
      F->setFuncIndex(FI);
      F->setType(P.getFunction(FI)->getFuncType());
      E = std::move(F);
      return E->getType();
    }
    error(E->getLoc(),
          "use of undeclared identifier '" + name(V->getName()) + "'");
    return nullptr;
  }

  case ExprKind::FuncRef: {
    auto *F = cast<FuncRefExpr>(E.get());
    int FI = P.getFunctionIndex(F->getName());
    if (FI < 0) {
      error(E->getLoc(), "unknown function '" + name(F->getName()) + "'");
      return nullptr;
    }
    F->setFuncIndex(FI);
    E->setType(P.getFunction(FI)->getFuncType());
    return E->getType();
  }

  case ExprKind::Unary: {
    auto *U = cast<UnaryExpr>(E.get());
    const Type *SubTy = checkExpr(U->getSubRef());
    if (!SubTy)
      return nullptr;
    if (U->getOp() == UnaryOp::Not) {
      if (!SubTy->isBool()) {
        error(E->getLoc(), "operand of '!' must have type bool");
        return nullptr;
      }
      E->setType(Types.getBoolType());
    } else {
      if (!SubTy->isInt()) {
        error(E->getLoc(), "operand of unary '-' must have type int");
        return nullptr;
      }
      E->setType(Types.getIntType());
    }
    return E->getType();
  }

  case ExprKind::Binary: {
    auto *B = cast<BinaryExpr>(E.get());
    switch (B->getOp()) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      const Type *LTy = checkExpr(B->getLHSRef());
      const Type *RTy = checkExpr(B->getRHSRef());
      if (!LTy || !RTy)
        return nullptr;
      if (!LTy->isInt() || !RTy->isInt()) {
        error(E->getLoc(), std::string("operands of '") +
                               getBinaryOpSpelling(B->getOp()) +
                               "' must have type int");
        return nullptr;
      }
      bool IsArith = B->getOp() == BinaryOp::Add ||
                     B->getOp() == BinaryOp::Sub ||
                     B->getOp() == BinaryOp::Mul;
      E->setType(IsArith ? Types.getIntType() : Types.getBoolType());
      return E->getType();
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      // Check the non-null side first so a null literal takes its type.
      const Type *LTy = nullptr;
      const Type *RTy = nullptr;
      if (!isa<NullLitExpr>(B->getLHS())) {
        LTy = checkExpr(B->getLHSRef());
        RTy = checkExpr(B->getRHSRef(), LTy);
      } else {
        RTy = checkExpr(B->getRHSRef());
        LTy = checkExpr(B->getLHSRef(), RTy);
      }
      if (!LTy || !RTy)
        return nullptr;
      if (LTy != RTy) {
        error(E->getLoc(), "cannot compare values of types " + typeName(LTy) +
                               " and " + typeName(RTy));
        return nullptr;
      }
      if (!isScalar(LTy)) {
        error(E->getLoc(), "compared values must be scalars");
        return nullptr;
      }
      E->setType(Types.getBoolType());
      return E->getType();
    }
    case BinaryOp::LAnd:
    case BinaryOp::LOr: {
      const Type *LTy = checkExpr(B->getLHSRef());
      const Type *RTy = checkExpr(B->getRHSRef());
      if (!LTy || !RTy)
        return nullptr;
      if (!LTy->isBool() || !RTy->isBool()) {
        error(E->getLoc(), "operands of logical operators must be bool");
        return nullptr;
      }
      E->setType(Types.getBoolType());
      return E->getType();
    }
    }
    return nullptr;
  }

  case ExprKind::Deref: {
    auto *D = cast<DerefExpr>(E.get());
    const Type *SubTy = checkExpr(D->getSubRef());
    if (!SubTy)
      return nullptr;
    if (!SubTy->isPointer()) {
      error(E->getLoc(),
            "cannot dereference non-pointer type " + typeName(SubTy));
      return nullptr;
    }
    const Type *Pointee = SubTy->getPointee();
    if (!isScalar(Pointee)) {
      error(E->getLoc(),
            "cannot load a whole struct; access a field with '->'");
      return nullptr;
    }
    E->setType(Pointee);
    return E->getType();
  }

  case ExprKind::Field: {
    auto *F = cast<FieldExpr>(E.get());
    const Type *BaseTy = checkExpr(F->getBaseRef());
    if (!BaseTy)
      return nullptr;
    if (!BaseTy->isPointer() || !BaseTy->getPointee()->isStruct()) {
      error(E->getLoc(),
            "'->' requires a pointer-to-struct, got " + typeName(BaseTy));
      return nullptr;
    }
    StructDecl *S = P.getStruct(BaseTy->getPointee()->getStructName());
    if (!S) {
      error(E->getLoc(), "use of undeclared struct type");
      return nullptr;
    }
    int Index = S->getFieldIndex(F->getField());
    if (Index < 0) {
      error(E->getLoc(), "struct '" + name(S->getName()) +
                             "' has no field '" + name(F->getField()) + "'");
      return nullptr;
    }
    F->setFieldIndex(Index);
    E->setType(S->getFields()[Index].Ty);
    return E->getType();
  }

  case ExprKind::AddrOf: {
    auto *A = cast<AddrOfExpr>(E.get());
    const Expr *Sub = A->getSub();
    if (!isa<VarRefExpr>(Sub) && !isa<FieldExpr>(Sub)) {
      error(E->getLoc(), "'&' requires a variable or field");
      return nullptr;
    }
    const Type *SubTy = checkExpr(A->getSubRef());
    if (!SubTy)
      return nullptr;
    // A VarRef may have been rewritten into a FuncRef; that is not
    // addressable.
    if (!isa<VarRefExpr>(A->getSub()) && !isa<FieldExpr>(A->getSub())) {
      error(E->getLoc(), "cannot take the address of a function");
      return nullptr;
    }
    E->setType(Types.getPointerType(SubTy));
    return E->getType();
  }

  case ExprKind::Call:
    return checkCall(E);

  case ExprKind::New: {
    auto *N = cast<NewExpr>(E.get());
    StructDecl *S = P.getStruct(N->getStructName());
    if (!S) {
      error(E->getLoc(), "unknown struct '" + name(N->getStructName()) +
                             "' in new expression");
      return nullptr;
    }
    E->setType(Types.getPointerType(Types.getStructType(S->getName())));
    return E->getType();
  }

  case ExprKind::Nondet: {
    auto *N = cast<NondetExpr>(E.get());
    if (N->isBool()) {
      E->setType(Types.getBoolType());
    } else {
      if (N->getHi() - N->getLo() + 1 > MaxNondetRange) {
        error(E->getLoc(),
              "nondet_int range exceeds the supported maximum of " +
                  std::to_string(MaxNondetRange) + " values");
        return nullptr;
      }
      E->setType(Types.getIntType());
    }
    return E->getType();
  }
  }
  return nullptr;
}

bool kiss::lang::typeCheck(Program &P, DiagnosticEngine &Diags) {
  SemaChecker Checker(P, Diags);
  return Checker.run();
}
