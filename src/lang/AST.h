//===- AST.h - AST of the parallel modeling language ------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for the paper's Figure-3 parallel language plus the
/// surface sugar the frontend accepts (if/while, compound expressions,
/// struct fields, parameters and return values). The Lower pass normalizes
/// surface programs into the *core* fragment (see lower/Lower.h); the KISS
/// transformation, the CFG builder, and the engines consume core programs
/// only.
///
/// Nodes use an LLVM-style Kind tag with isa<>/cast<>/dyn_cast<> helpers and
/// are owned through std::unique_ptr by their parents; a Program owns all
/// top-level declarations. Expression and statement nodes take their memory
/// from per-thread free lists (see allocateNode), because every check
/// builds and drops a few hundred of them.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_LANG_AST_H
#define KISS_LANG_AST_H

#include "lang/Type.h"
#include "support/SourceLoc.h"
#include "support/Symbol.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace kiss::lang {

class Expr;
class Stmt;
class FuncDecl;
class Program;

using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

//===----------------------------------------------------------------------===//
// Node memory
//===----------------------------------------------------------------------===//

/// Memory for one Expr or Stmt node of \p Size bytes. Small sizes come from
/// the calling thread's free list for that size when it has a block, and
/// from the global allocator otherwise. Under AddressSanitizer every
/// request goes to the global allocator, so a use of a freed node is still
/// trapped.
void *allocateNode(size_t Size);

/// Returns \p Size bytes of node memory to the calling thread's free list,
/// or to the global allocator once the thread holds MaxRetainedNodeBytes
/// or has begun to exit. Any thread may free a node, whichever thread
/// allocated it; a thread's free lists are released when it exits.
void deallocateNode(void *P, size_t Size) noexcept;

/// The most node memory one thread keeps for reuse.
constexpr size_t MaxRetainedNodeBytes = 512 * 1024;

/// \returns the node memory the calling thread keeps for reuse.
size_t retainedNodeBytes();

//===----------------------------------------------------------------------===//
// Casting helpers
//===----------------------------------------------------------------------===//

/// LLVM-style isa<>: \p N must expose getKind() and T must define classKind.
template <typename T, typename NodeT> bool isa(const NodeT *N) {
  return N && N->getKind() == T::classKind;
}

template <typename T, typename NodeT> T *cast(NodeT *N) {
  assert(isa<T>(N) && "cast to wrong node kind");
  return static_cast<T *>(N);
}

template <typename T, typename NodeT> const T *cast(const NodeT *N) {
  assert(isa<T>(N) && "cast to wrong node kind");
  return static_cast<const T *>(N);
}

template <typename T, typename NodeT> T *dyn_cast(NodeT *N) {
  return isa<T>(N) ? static_cast<T *>(N) : nullptr;
}

template <typename T, typename NodeT> const T *dyn_cast(const NodeT *N) {
  return isa<T>(N) ? static_cast<const T *>(N) : nullptr;
}

//===----------------------------------------------------------------------===//
// Variable references
//===----------------------------------------------------------------------===//

/// Where a resolved variable lives.
enum class VarScope : uint8_t {
  Unresolved, ///< Before semantic analysis.
  Global,     ///< Index into Program globals.
  Local,      ///< Index into FuncDecl locals (parameters come first).
};

/// A resolved variable id: scope plus slot index.
struct VarId {
  VarScope Scope = VarScope::Unresolved;
  uint32_t Index = 0;

  bool isResolved() const { return Scope != VarScope::Unresolved; }
  bool isGlobal() const { return Scope == VarScope::Global; }
  bool isLocal() const { return Scope == VarScope::Local; }

  friend bool operator==(VarId A, VarId B) {
    return A.Scope == B.Scope && A.Index == B.Index;
  }
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLit,
  BoolLit,
  NullLit,
  VarRef,
  FuncRef,
  Unary,
  Binary,
  Deref,
  Field,
  AddrOf,
  Call,
  New,
  Nondet,
};

/// Base class of all expressions. Carries the location and (after Sema)
/// the type.
class Expr {
public:
  virtual ~Expr() = default;

  static void *operator new(size_t Size) { return allocateNode(Size); }
  static void operator delete(void *P, size_t Size) {
    deallocateNode(P, Size);
  }

  ExprKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  const Type *getType() const { return Ty; }
  void setType(const Type *T) { Ty = T; }

  /// Deep copy, preserving locations and (if set) types.
  ExprPtr clone() const;

protected:
  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  ExprKind Kind;
  SourceLoc Loc;
  const Type *Ty = nullptr;
};

/// An integer literal.
class IntLitExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::IntLit;

  IntLitExpr(int64_t Value, SourceLoc Loc)
      : Expr(classKind, Loc), Value(Value) {}

  int64_t getValue() const { return Value; }

private:
  int64_t Value;
};

/// true or false.
class BoolLitExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::BoolLit;

  BoolLitExpr(bool Value, SourceLoc Loc) : Expr(classKind, Loc), Value(Value) {}

  bool getValue() const { return Value; }

private:
  bool Value;
};

/// The null pointer literal; its pointer type is inferred from context.
class NullLitExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::NullLit;

  explicit NullLitExpr(SourceLoc Loc) : Expr(classKind, Loc) {}
};

/// A reference to a global, parameter, or local variable.
class VarRefExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::VarRef;

  VarRefExpr(Symbol Name, SourceLoc Loc) : Expr(classKind, Loc), Name(Name) {}

  Symbol getName() const { return Name; }
  void setName(Symbol N) { Name = N; }
  VarId getVarId() const { return Id; }
  void setVarId(VarId V) { Id = V; }

private:
  Symbol Name;
  VarId Id;
};

/// A function name used as a value (thread start functions, indirect calls).
class FuncRefExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::FuncRef;

  FuncRefExpr(Symbol Name, SourceLoc Loc) : Expr(classKind, Loc), Name(Name) {}

  Symbol getName() const { return Name; }
  void setName(Symbol N) { Name = N; }

  /// Index into Program functions; set by Sema.
  uint32_t getFuncIndex() const { return FuncIndex; }
  void setFuncIndex(uint32_t I) { FuncIndex = I; }

private:
  Symbol Name;
  uint32_t FuncIndex = ~0u;
};

enum class UnaryOp : uint8_t { Not, Neg };

/// !e or -e.
class UnaryExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::Unary;

  UnaryExpr(UnaryOp Op, ExprPtr Sub, SourceLoc Loc)
      : Expr(classKind, Loc), Op(Op), Sub(std::move(Sub)) {}

  UnaryOp getOp() const { return Op; }
  const Expr *getSub() const { return Sub.get(); }
  Expr *getSub() { return Sub.get(); }
  ExprPtr &getSubRef() { return Sub; }

private:
  UnaryOp Op;
  ExprPtr Sub;
};

enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  LAnd,
  LOr,
};

/// \returns the surface spelling of \p Op.
const char *getBinaryOpSpelling(BinaryOp Op);

/// A binary operation. LAnd/LOr are surface-only (lowered to branching).
class BinaryExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::Binary;

  BinaryExpr(BinaryOp Op, ExprPtr LHS, ExprPtr RHS, SourceLoc Loc)
      : Expr(classKind, Loc), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  BinaryOp getOp() const { return Op; }
  const Expr *getLHS() const { return LHS.get(); }
  Expr *getLHS() { return LHS.get(); }
  ExprPtr &getLHSRef() { return LHS; }
  const Expr *getRHS() const { return RHS.get(); }
  Expr *getRHS() { return RHS.get(); }
  ExprPtr &getRHSRef() { return RHS; }

private:
  BinaryOp Op;
  ExprPtr LHS;
  ExprPtr RHS;
};

/// *e — load through a pointer; also a legal assignment target.
class DerefExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::Deref;

  DerefExpr(ExprPtr Sub, SourceLoc Loc)
      : Expr(classKind, Loc), Sub(std::move(Sub)) {}

  const Expr *getSub() const { return Sub.get(); }
  Expr *getSub() { return Sub.get(); }
  ExprPtr &getSubRef() { return Sub; }

private:
  ExprPtr Sub;
};

/// base->field where base has type S*; also a legal assignment target.
class FieldExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::Field;

  FieldExpr(ExprPtr Base, Symbol Field, SourceLoc Loc)
      : Expr(classKind, Loc), Base(std::move(Base)), Field(Field) {}

  const Expr *getBase() const { return Base.get(); }
  Expr *getBase() { return Base.get(); }
  ExprPtr &getBaseRef() { return Base; }
  Symbol getField() const { return Field; }

  /// Index of the field within its struct; set by Sema.
  uint32_t getFieldIndex() const { return FieldIndex; }
  void setFieldIndex(uint32_t I) { FieldIndex = I; }

private:
  ExprPtr Base;
  Symbol Field;
  uint32_t FieldIndex = ~0u;
};

/// &lvalue, where lvalue is a variable or a field access.
class AddrOfExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::AddrOf;

  AddrOfExpr(ExprPtr Sub, SourceLoc Loc)
      : Expr(classKind, Loc), Sub(std::move(Sub)) {}

  const Expr *getSub() const { return Sub.get(); }
  Expr *getSub() { return Sub.get(); }
  ExprPtr &getSubRef() { return Sub; }

private:
  ExprPtr Sub;
};

/// f(args) or v(args) for a func-typed v.
class CallExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::Call;

  CallExpr(ExprPtr Callee, std::vector<ExprPtr> Args, SourceLoc Loc)
      : Expr(classKind, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const Expr *getCallee() const { return Callee.get(); }
  Expr *getCallee() { return Callee.get(); }
  ExprPtr &getCalleeRef() { return Callee; }
  const std::vector<ExprPtr> &getArgs() const { return Args; }
  std::vector<ExprPtr> &getArgs() { return Args; }

private:
  ExprPtr Callee;
  std::vector<ExprPtr> Args;
};

/// new S — allocates a zero-initialized S on the heap; never null.
class NewExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::New;

  NewExpr(Symbol StructName, SourceLoc Loc)
      : Expr(classKind, Loc), StructName(StructName) {}

  Symbol getStructName() const { return StructName; }

private:
  Symbol StructName;
};

/// nondet_bool() or nondet_int(lo, hi) — a nondeterministic value. In core
/// programs this may appear only as the full right-hand side of an
/// assignment to a variable.
class NondetExpr : public Expr {
public:
  static constexpr ExprKind classKind = ExprKind::Nondet;

  /// Boolean variant.
  explicit NondetExpr(SourceLoc Loc)
      : Expr(classKind, Loc), IsBool(true), Lo(0), Hi(1) {}

  /// Integer variant over the inclusive range [Lo, Hi].
  NondetExpr(int64_t Lo, int64_t Hi, SourceLoc Loc)
      : Expr(classKind, Loc), IsBool(false), Lo(Lo), Hi(Hi) {}

  bool isBool() const { return IsBool; }
  int64_t getLo() const { return Lo; }
  int64_t getHi() const { return Hi; }

private:
  bool IsBool;
  int64_t Lo;
  int64_t Hi;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Block,
  Decl,
  Assign,
  ExprStmt,
  Async,
  Assert,
  Assume,
  Atomic,
  If,
  While,
  Choice,
  Iter,
  Return,
  Skip,
};

/// Which instrumentation role a statement plays in a KISS-transformed
/// program. User statements carry a pointer to the original statement so
/// error traces can be mapped back to the concurrent program.
enum class InstrRole : uint8_t {
  User,      ///< Cloned from the source program.
  Init,      ///< raise/ts/access initialization.
  Raise,     ///< The RAISE statement (raise = true; return).
  Schedule,  ///< Scheduler machinery; on a call statement this marks a
             ///< thread dispatch (the callee runs as a new thread).
  SchedCall, ///< A call to the generated __kiss_schedule function.
  Propagate, ///< if (raise) return after a call.
  TsPut,     ///< Adding a forked thread to ts.
  Check,     ///< Inlined check_r/check_w race probe.
  Harness,   ///< Synthesized harness code (driver corpus).
  Suspend,   ///< K>2: a forked thread parks itself for a later round.
  Resume,    ///< K>2: the scheduler re-enters a suspended thread; on a
             ///< call statement the callee continues the parked thread
             ///< rather than starting a new one.
};

/// Base class of all statements.
class Stmt {
public:
  virtual ~Stmt() = default;

  static void *operator new(size_t Size) { return allocateNode(Size); }
  static void operator delete(void *P, size_t Size) {
    deallocateNode(P, Size);
  }

  StmtKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  InstrRole getRole() const { return Role; }
  void setRole(InstrRole R) { Role = R; }

  /// For instrumented programs: the statement of the original concurrent
  /// program this one was derived from (null for synthesized code).
  const Stmt *getOrigin() const { return Origin; }
  void setOrigin(const Stmt *S) { Origin = S; }

  /// §6 (future work realized): accesses in statements annotated `benign`
  /// are not instrumented with race probes.
  bool isBenign() const { return Benign; }
  void setBenign(bool B) { Benign = B; }

  /// Deep copy. The copy's Origin/Role are preserved.
  StmtPtr clone() const;

protected:
  Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  StmtKind Kind;
  SourceLoc Loc;
  InstrRole Role = InstrRole::User;
  const Stmt *Origin = nullptr;
  bool Benign = false;
};

/// { s1; ...; sn }
class BlockStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Block;

  explicit BlockStmt(SourceLoc Loc) : Stmt(classKind, Loc) {}
  BlockStmt(std::vector<StmtPtr> Stmts, SourceLoc Loc)
      : Stmt(classKind, Loc), Stmts(std::move(Stmts)) {}

  const std::vector<StmtPtr> &getStmts() const { return Stmts; }
  std::vector<StmtPtr> &getStmts() { return Stmts; }
  void append(StmtPtr S) { Stmts.push_back(std::move(S)); }

private:
  std::vector<StmtPtr> Stmts;
};

/// T name; or T name = init; (surface only; Lower hoists declarations).
class DeclStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Decl;

  DeclStmt(Symbol Name, const Type *DeclTy, ExprPtr Init, SourceLoc Loc)
      : Stmt(classKind, Loc), Name(Name), DeclTy(DeclTy),
        Init(std::move(Init)) {}

  Symbol getName() const { return Name; }
  const Type *getDeclType() const { return DeclTy; }
  const Expr *getInit() const { return Init.get(); }
  Expr *getInit() { return Init.get(); }
  ExprPtr &getInitRef() { return Init; }
  ExprPtr takeInit() { return std::move(Init); }

  VarId getVarId() const { return Id; }
  void setVarId(VarId V) { Id = V; }

private:
  Symbol Name;
  const Type *DeclTy;
  ExprPtr Init;
  VarId Id;
};

/// lvalue = expr.
class AssignStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Assign;

  AssignStmt(ExprPtr LHS, ExprPtr RHS, SourceLoc Loc)
      : Stmt(classKind, Loc), LHS(std::move(LHS)), RHS(std::move(RHS)) {}

  const Expr *getLHS() const { return LHS.get(); }
  Expr *getLHS() { return LHS.get(); }
  ExprPtr &getLHSRef() { return LHS; }
  const Expr *getRHS() const { return RHS.get(); }
  Expr *getRHS() { return RHS.get(); }
  ExprPtr &getRHSRef() { return RHS; }
  ExprPtr takeRHS() { return std::move(RHS); }
  void setRHS(ExprPtr E) { RHS = std::move(E); }

private:
  ExprPtr LHS;
  ExprPtr RHS;
};

/// An expression evaluated for effect (a call whose result is dropped).
class ExprStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::ExprStmt;

  ExprStmt(ExprPtr E, SourceLoc Loc) : Stmt(classKind, Loc), E(std::move(E)) {}

  const Expr *getExpr() const { return E.get(); }
  Expr *getExpr() { return E.get(); }
  ExprPtr &getExprRef() { return E; }

private:
  ExprPtr E;
};

/// async f(args) — forks a thread running f(args).
class AsyncStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Async;

  AsyncStmt(ExprPtr Callee, std::vector<ExprPtr> Args, SourceLoc Loc)
      : Stmt(classKind, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const Expr *getCallee() const { return Callee.get(); }
  Expr *getCallee() { return Callee.get(); }
  ExprPtr &getCalleeRef() { return Callee; }
  const std::vector<ExprPtr> &getArgs() const { return Args; }
  std::vector<ExprPtr> &getArgs() { return Args; }

private:
  ExprPtr Callee;
  std::vector<ExprPtr> Args;
};

/// assert(e) — the checked safety property.
class AssertStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Assert;

  AssertStmt(ExprPtr Cond, SourceLoc Loc)
      : Stmt(classKind, Loc), Cond(std::move(Cond)) {}

  const Expr *getCond() const { return Cond.get(); }
  Expr *getCond() { return Cond.get(); }
  ExprPtr &getCondRef() { return Cond; }

private:
  ExprPtr Cond;
};

/// assume(e) — blocks (concurrent) / prunes the path (sequential) when e is
/// false.
class AssumeStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Assume;

  AssumeStmt(ExprPtr Cond, SourceLoc Loc)
      : Stmt(classKind, Loc), Cond(std::move(Cond)) {}

  const Expr *getCond() const { return Cond.get(); }
  Expr *getCond() { return Cond.get(); }
  ExprPtr &getCondRef() { return Cond; }

private:
  ExprPtr Cond;
};

/// atomic { s } — executed without interruption by other threads. The body
/// must not contain calls, returns, or nested atomics (checked by Lower).
class AtomicStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Atomic;

  AtomicStmt(StmtPtr Body, SourceLoc Loc)
      : Stmt(classKind, Loc), Body(std::move(Body)) {}

  const Stmt *getBody() const { return Body.get(); }
  Stmt *getBody() { return Body.get(); }

private:
  StmtPtr Body;
};

/// if (cond) then else — surface only; lowered to choice/assume per §3.
class IfStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::If;

  IfStmt(ExprPtr Cond, StmtPtr Then, StmtPtr Else, SourceLoc Loc)
      : Stmt(classKind, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  const Expr *getCond() const { return Cond.get(); }
  Expr *getCond() { return Cond.get(); }
  ExprPtr &getCondRef() { return Cond; }
  const Stmt *getThen() const { return Then.get(); }
  Stmt *getThen() { return Then.get(); }
  const Stmt *getElse() const { return Else.get(); }
  Stmt *getElse() { return Else.get(); }

private:
  ExprPtr Cond;
  StmtPtr Then;
  StmtPtr Else; // may be null
};

/// while (cond) body — surface only; lowered to iter/assume per §3.
class WhileStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::While;

  WhileStmt(ExprPtr Cond, StmtPtr Body, SourceLoc Loc)
      : Stmt(classKind, Loc), Cond(std::move(Cond)), Body(std::move(Body)) {}

  const Expr *getCond() const { return Cond.get(); }
  Expr *getCond() { return Cond.get(); }
  ExprPtr &getCondRef() { return Cond; }
  const Stmt *getBody() const { return Body.get(); }
  Stmt *getBody() { return Body.get(); }

private:
  ExprPtr Cond;
  StmtPtr Body;
};

/// choice { s1 } or { s2 } ... — executes exactly one branch,
/// nondeterministically.
class ChoiceStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Choice;

  ChoiceStmt(std::vector<StmtPtr> Branches, SourceLoc Loc)
      : Stmt(classKind, Loc), Branches(std::move(Branches)) {}

  const std::vector<StmtPtr> &getBranches() const { return Branches; }
  std::vector<StmtPtr> &getBranches() { return Branches; }

private:
  std::vector<StmtPtr> Branches;
};

/// iter { s } — executes s a nondeterministic number of times (>= 0).
class IterStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Iter;

  IterStmt(StmtPtr Body, SourceLoc Loc)
      : Stmt(classKind, Loc), Body(std::move(Body)) {}

  const Stmt *getBody() const { return Body.get(); }
  Stmt *getBody() { return Body.get(); }
  StmtPtr takeBody() { return std::move(Body); }

private:
  StmtPtr Body;
};

/// return; or return e;. In a KISS-transformed program a value-less return
/// in a non-void function yields the default value of the return type (this
/// happens only while the simulated exception `raise` is set).
class ReturnStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Return;

  ReturnStmt(ExprPtr Value, SourceLoc Loc)
      : Stmt(classKind, Loc), Value(std::move(Value)) {}

  const Expr *getValue() const { return Value.get(); }
  Expr *getValue() { return Value.get(); }
  ExprPtr &getValueRef() { return Value; }

private:
  ExprPtr Value; // may be null
};

/// skip; — assume(true).
class SkipStmt : public Stmt {
public:
  static constexpr StmtKind classKind = StmtKind::Skip;

  explicit SkipStmt(SourceLoc Loc) : Stmt(classKind, Loc) {}
};

//===----------------------------------------------------------------------===//
// Child traversal
//===----------------------------------------------------------------------===//
//
// The AST's child structure, defined once. Each helper calls Fn on the
// children of a node in source order, passing pointers with the node's own
// constness (a const Stmt * yields const children), and allocates nothing.
// A walker supplies only its per-node action; the switches below are the
// one place a new node kind must list its children.

namespace detail {
/// \p Base with the constness of \p Node.
template <typename Node, typename Base>
using SameConst = std::conditional_t<std::is_const_v<Node>, const Base, Base>;
} // namespace detail

/// Calls \p F on each direct child statement of \p Node: Block members,
/// the Atomic/Iter/While body, Choice branches, If then and (if present)
/// else.
template <typename StmtT, typename Fn>
void forEachSubStmt(StmtT *Node, Fn &&F) {
  using S = detail::SameConst<StmtT, Stmt>;
  S *N = Node;
  switch (N->getKind()) {
  case StmtKind::Block:
    for (const StmtPtr &Sub : cast<BlockStmt>(N)->getStmts())
      F(static_cast<S *>(Sub.get()));
    return;
  case StmtKind::Choice:
    for (const StmtPtr &Sub : cast<ChoiceStmt>(N)->getBranches())
      F(static_cast<S *>(Sub.get()));
    return;
  case StmtKind::Atomic:
    F(cast<AtomicStmt>(N)->getBody());
    return;
  case StmtKind::Iter:
    F(cast<IterStmt>(N)->getBody());
    return;
  case StmtKind::While:
    F(cast<WhileStmt>(N)->getBody());
    return;
  case StmtKind::If: {
    auto *I = cast<IfStmt>(N);
    F(I->getThen());
    if (I->getElse())
      F(I->getElse());
    return;
  }
  case StmtKind::Decl:
  case StmtKind::Assign:
  case StmtKind::ExprStmt:
  case StmtKind::Async:
  case StmtKind::Assert:
  case StmtKind::Assume:
  case StmtKind::Return:
  case StmtKind::Skip:
    return;
  }
}

/// Calls \p F on each direct child expression of \p Node: the Unary,
/// Deref and AddrOf operand, Binary LHS then RHS, the Field base, the Call
/// callee then arguments.
template <typename ExprT, typename Fn>
void forEachSubExpr(ExprT *Node, Fn &&F) {
  using E = detail::SameConst<ExprT, Expr>;
  E *N = Node;
  switch (N->getKind()) {
  case ExprKind::Unary:
    F(cast<UnaryExpr>(N)->getSub());
    return;
  case ExprKind::Deref:
    F(cast<DerefExpr>(N)->getSub());
    return;
  case ExprKind::AddrOf:
    F(cast<AddrOfExpr>(N)->getSub());
    return;
  case ExprKind::Binary: {
    auto *B = cast<BinaryExpr>(N);
    F(B->getLHS());
    F(B->getRHS());
    return;
  }
  case ExprKind::Field:
    F(cast<FieldExpr>(N)->getBase());
    return;
  case ExprKind::Call: {
    auto *C = cast<CallExpr>(N);
    F(C->getCallee());
    for (const ExprPtr &A : C->getArgs())
      F(static_cast<E *>(A.get()));
    return;
  }
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NullLit:
  case ExprKind::VarRef:
  case ExprKind::FuncRef:
  case ExprKind::New:
  case ExprKind::Nondet:
    return;
  }
}

/// Calls \p F on each expression statement \p Node holds itself (not those
/// of its child statements): the Decl initializer (if any), Assign LHS then
/// RHS, the ExprStmt expression, the Async callee then arguments, the
/// Assert/Assume/If/While condition, the Return value (if any).
template <typename StmtT, typename Fn>
void forEachStmtExpr(StmtT *Node, Fn &&F) {
  using S = detail::SameConst<StmtT, Stmt>;
  using E = detail::SameConst<StmtT, Expr>;
  S *N = Node;
  switch (N->getKind()) {
  case StmtKind::Decl:
    if (E *Init = cast<DeclStmt>(N)->getInit())
      F(Init);
    return;
  case StmtKind::Assign: {
    auto *A = cast<AssignStmt>(N);
    F(A->getLHS());
    F(A->getRHS());
    return;
  }
  case StmtKind::ExprStmt:
    F(cast<ExprStmt>(N)->getExpr());
    return;
  case StmtKind::Async: {
    auto *A = cast<AsyncStmt>(N);
    F(A->getCallee());
    for (const ExprPtr &Arg : A->getArgs())
      F(static_cast<E *>(Arg.get()));
    return;
  }
  case StmtKind::Assert:
    F(cast<AssertStmt>(N)->getCond());
    return;
  case StmtKind::Assume:
    F(cast<AssumeStmt>(N)->getCond());
    return;
  case StmtKind::If:
    F(cast<IfStmt>(N)->getCond());
    return;
  case StmtKind::While:
    F(cast<WhileStmt>(N)->getCond());
    return;
  case StmtKind::Return:
    if (E *V = cast<ReturnStmt>(N)->getValue())
      F(V);
    return;
  case StmtKind::Block:
  case StmtKind::Atomic:
  case StmtKind::Choice:
  case StmtKind::Iter:
  case StmtKind::Skip:
    return;
  }
}

/// Calls \p F on \p Node and every statement nested in it, in pre-order.
template <typename StmtT, typename Fn>
void forEachStmtPreorder(StmtT *Node, Fn &&F) {
  using S = detail::SameConst<StmtT, Stmt>;
  S *N = Node;
  F(N);
  forEachSubStmt(N, [&F](S *Sub) { forEachStmtPreorder(Sub, F); });
}

/// Calls \p F on every expression node under \p Node — an Expr, or a Stmt
/// and the statements nested in it — in pre-order: a statement's own
/// expressions before its child statements, an expression before its
/// operands.
template <typename NodeT, typename Fn>
void forEachExprPreorder(NodeT *Node, Fn &&F) {
  using E = detail::SameConst<NodeT, Expr>;
  if constexpr (std::is_base_of_v<Stmt, std::remove_const_t<NodeT>>) {
    forEachStmtPreorder(Node, [&F](auto *S) {
      forEachStmtExpr(S, [&F](E *X) { forEachExprPreorder(X, F); });
    });
  } else {
    E *N = Node;
    F(N);
    forEachSubExpr(N, [&F](E *Sub) { forEachExprPreorder(Sub, F); });
  }
}

//===----------------------------------------------------------------------===//
// Declarations and Program
//===----------------------------------------------------------------------===//

/// A field of a struct declaration.
struct FieldDecl {
  Symbol Name;
  const Type *Ty = nullptr;
  SourceLoc Loc;
};

/// struct S { fields }.
class StructDecl {
public:
  StructDecl(Symbol Name, SourceLoc Loc) : Name(Name), Loc(Loc) {}

  Symbol getName() const { return Name; }
  SourceLoc getLoc() const { return Loc; }

  const std::vector<FieldDecl> &getFields() const { return Fields; }
  void addField(FieldDecl F) { Fields.push_back(std::move(F)); }

  /// \returns the index of field \p F, or -1 if absent.
  int getFieldIndex(Symbol F) const {
    for (unsigned I = 0, E = Fields.size(); I != E; ++I)
      if (Fields[I].Name == F)
        return I;
    return -1;
  }

private:
  Symbol Name;
  SourceLoc Loc;
  std::vector<FieldDecl> Fields;
};

/// A compile-time constant used for global initializers.
struct ConstInit {
  enum class Kind { Int, Bool, Null } K = Kind::Int;
  int64_t IntValue = 0;
  bool BoolValue = false;

  static ConstInit makeInt(int64_t V) {
    ConstInit C;
    C.K = Kind::Int;
    C.IntValue = V;
    return C;
  }
  static ConstInit makeBool(bool V) {
    ConstInit C;
    C.K = Kind::Bool;
    C.BoolValue = V;
    return C;
  }
  static ConstInit makeNull() {
    ConstInit C;
    C.K = Kind::Null;
    return C;
  }
};

/// A global variable.
struct GlobalDecl {
  Symbol Name;
  const Type *Ty = nullptr;
  std::optional<ConstInit> Init;
  SourceLoc Loc;
};

/// A named local slot (parameters occupy the first slots).
struct VarDecl {
  Symbol Name;
  const Type *Ty = nullptr;
  SourceLoc Loc;
};

/// A function definition.
class FuncDecl {
public:
  FuncDecl(Symbol Name, const Type *RetTy, SourceLoc Loc)
      : Name(Name), RetTy(RetTy), Loc(Loc) {}

  Symbol getName() const { return Name; }
  const Type *getReturnType() const { return RetTy; }
  SourceLoc getLoc() const { return Loc; }

  unsigned getNumParams() const { return NumParams; }
  void setNumParams(unsigned N) { NumParams = N; }

  /// All locals; slots [0, getNumParams()) are the parameters.
  const std::vector<VarDecl> &getLocals() const { return Locals; }
  std::vector<VarDecl> &getLocals() { return Locals; }

  /// Registers a new local slot and returns its index.
  uint32_t addLocal(VarDecl V) {
    // Most functions have a handful of locals: skip the first doublings.
    if (Locals.empty())
      Locals.reserve(8);
    Locals.push_back(std::move(V));
    return Locals.size() - 1;
  }

  const Stmt *getBody() const { return Body.get(); }
  Stmt *getBody() { return Body.get(); }
  void setBody(StmtPtr B) { Body = std::move(B); }
  StmtPtr takeBody() { return std::move(Body); }

  /// The signature as a func type (set by Sema).
  const Type *getFuncType() const { return FuncTy; }
  void setFuncType(const Type *T) { FuncTy = T; }

private:
  Symbol Name;
  const Type *RetTy;
  SourceLoc Loc;
  unsigned NumParams = 0;
  std::vector<VarDecl> Locals;
  StmtPtr Body;
  const Type *FuncTy = nullptr;
};

/// A whole translation unit: structs, globals, functions, and an entry
/// point. Programs reference (but do not own) a SymbolTable and TypeContext
/// shared across pipeline stages.
class Program {
public:
  Program(SymbolTable &Syms, TypeContext &Types) : Syms(Syms), Types(Types) {}

  SymbolTable &getSymbolTable() const { return Syms; }
  TypeContext &getTypeContext() const { return Types; }

  //===--- Structs ---===//
  StructDecl *addStruct(Symbol Name, SourceLoc Loc) {
    Structs.push_back(std::make_unique<StructDecl>(Name, Loc));
    return Structs.back().get();
  }
  const std::vector<std::unique_ptr<StructDecl>> &getStructs() const {
    return Structs;
  }
  StructDecl *getStruct(Symbol Name) const {
    for (const auto &S : Structs)
      if (S->getName() == Name)
        return S.get();
    return nullptr;
  }

  //===--- Globals ---===//
  uint32_t addGlobal(GlobalDecl G) {
    Globals.push_back(std::move(G));
    return Globals.size() - 1;
  }
  const std::vector<GlobalDecl> &getGlobals() const { return Globals; }
  std::vector<GlobalDecl> &getGlobals() { return Globals; }
  int getGlobalIndex(Symbol Name) const {
    for (unsigned I = 0, E = Globals.size(); I != E; ++I)
      if (Globals[I].Name == Name)
        return I;
    return -1;
  }

  //===--- Functions ---===//
  FuncDecl *addFunction(Symbol Name, const Type *RetTy, SourceLoc Loc) {
    if (Funcs.empty())
      Funcs.reserve(16);
    Funcs.push_back(std::make_unique<FuncDecl>(Name, RetTy, Loc));
    return Funcs.back().get();
  }
  const std::vector<std::unique_ptr<FuncDecl>> &getFunctions() const {
    return Funcs;
  }
  FuncDecl *getFunction(Symbol Name) const {
    for (const auto &F : Funcs)
      if (F->getName() == Name)
        return F.get();
    return nullptr;
  }
  int getFunctionIndex(Symbol Name) const {
    for (unsigned I = 0, E = Funcs.size(); I != E; ++I)
      if (Funcs[I]->getName() == Name)
        return I;
    return -1;
  }
  FuncDecl *getFunction(uint32_t Index) const {
    assert(Index < Funcs.size() && "function index out of range");
    return Funcs[Index].get();
  }

  //===--- Entry point ---===//
  Symbol getEntryName() const { return Entry; }
  void setEntryName(Symbol S) { Entry = S; }
  FuncDecl *getEntryFunction() const {
    return Entry.isValid() ? getFunction(Entry) : nullptr;
  }

private:
  SymbolTable &Syms;
  TypeContext &Types;
  std::vector<std::unique_ptr<StructDecl>> Structs;
  std::vector<GlobalDecl> Globals;
  std::vector<std::unique_ptr<FuncDecl>> Funcs;
  Symbol Entry;
};

} // namespace kiss::lang

#endif // KISS_LANG_AST_H
