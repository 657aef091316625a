//===- SemaTest.cpp -------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace kiss;
using namespace kiss::lang;
using namespace kiss::test;

namespace {

TEST(SemaTest, UndeclaredIdentifier) {
  std::string E = compileError("void main() { x = 1; }");
  EXPECT_NE(E.find("undeclared identifier"), std::string::npos) << E;
}

TEST(SemaTest, AssignTypeMismatch) {
  std::string E = compileError("void main() { int x; x = true; }");
  EXPECT_NE(E.find("cannot assign"), std::string::npos) << E;
}

TEST(SemaTest, ConditionMustBeBool) {
  EXPECT_NE(compileError("void main() { if (1) { } }").find("bool"),
            std::string::npos);
  EXPECT_NE(compileError("void main() { assert(2 + 2); }").find("bool"),
            std::string::npos);
  EXPECT_NE(compileError("void main() { while (0) { } }").find("bool"),
            std::string::npos);
}

TEST(SemaTest, ArithmeticRequiresInts) {
  std::string E = compileError("void main() { int x; x = true + 1; }");
  EXPECT_NE(E.find("int"), std::string::npos) << E;
}

TEST(SemaTest, ComparisonRequiresSameTypes) {
  std::string E =
      compileError("void main() { bool b; int x; b = b == x; }");
  EXPECT_NE(E.find("compare"), std::string::npos) << E;
}

TEST(SemaTest, NullNeedsPointerContext) {
  std::string E = compileError("void main() { int x; x = null; }");
  EXPECT_FALSE(E.empty());
}

TEST(SemaTest, NullComparesAgainstPointers) {
  auto C = compile(R"(
    struct S { int x; }
    void main() {
      S *p = new S;
      bool b = p == null;
      bool c = null != p;
      p = null;
    }
  )");
  EXPECT_TRUE(C);
}

TEST(SemaTest, FieldAccessRequiresStructPointer) {
  std::string E = compileError("void main() { int x; x = x->f; }");
  EXPECT_NE(E.find("pointer-to-struct"), std::string::npos) << E;
}

TEST(SemaTest, UnknownFieldRejected) {
  std::string E = compileError(R"(
    struct S { int x; }
    void main() { S *p = new S; p->nope = 1; }
  )");
  EXPECT_NE(E.find("no field"), std::string::npos) << E;
}

TEST(SemaTest, CallArityAndTypesChecked) {
  EXPECT_NE(compileError(R"(
    void f(int a) { skip; }
    void main() { f(); }
  )").find("argument"), std::string::npos);
  EXPECT_NE(compileError(R"(
    void f(int a) { skip; }
    void main() { f(true); }
  )").find("argument"), std::string::npos);
}

TEST(SemaTest, VoidResultCannotBeAssigned) {
  std::string E = compileError(R"(
    void f() { skip; }
    void main() { int x; x = f(); }
  )");
  EXPECT_FALSE(E.empty());
}

TEST(SemaTest, ReturnTypeChecked) {
  EXPECT_FALSE(compileError(R"(
    int f() { return true; }
    void main() { skip; }
  )").empty());
  EXPECT_FALSE(compileError(R"(
    int f() { return; }
    void main() { skip; }
  )").empty());
  EXPECT_FALSE(compileError(R"(
    void f() { return 1; }
    void main() { skip; }
  )").empty());
}

TEST(SemaTest, AsyncCalleeMustReturnVoid) {
  std::string E = compileError(R"(
    int f() { return 1; }
    void main() { async f(); }
  )");
  EXPECT_NE(E.find("void"), std::string::npos) << E;
}

TEST(SemaTest, FunctionNameBecomesFuncValue) {
  auto C = compile(R"(
    void f() { skip; }
    void main() {
      func<void()> g = f;
      g();
    }
  )");
  EXPECT_TRUE(C);
}

TEST(SemaTest, FuncValueSignatureMismatchRejected) {
  std::string E = compileError(R"(
    void f(int x) { skip; }
    void main() {
      func<void()> g;
      g = f;
    }
  )");
  EXPECT_FALSE(E.empty());
}

TEST(SemaTest, AddressOfVariableAndField) {
  auto C = compile(R"(
    struct S { int x; }
    int g;
    void main() {
      S *p = new S;
      int *a = &g;
      int *b = &p->x;
      int v;
      v = *a;
      *b = v;
    }
  )");
  EXPECT_TRUE(C);
}

TEST(SemaTest, AddressOfFunctionRejected) {
  std::string E = compileError(R"(
    void f() { skip; }
    void main() {
      func<void()> g;
      g = *(&f);
    }
  )");
  EXPECT_FALSE(E.empty());
}

TEST(SemaTest, DerefOfStructPointerRejected) {
  std::string E = compileError(R"(
    struct S { int x; }
    void main() {
      S *p = new S;
      int v;
      v = *p;
    }
  )");
  EXPECT_NE(E.find("field"), std::string::npos) << E;
}

TEST(SemaTest, ShadowingInNestedScopesAllowed) {
  auto C = compile(R"(
    void main() {
      int x = 1;
      { int x = 2; assert(x == 2); }
      assert(x == 1);
    }
  )");
  EXPECT_TRUE(C);
}

TEST(SemaTest, SameScopeRedefinitionRejected) {
  std::string E = compileError("void main() { int x; bool x; }");
  EXPECT_NE(E.find("redefinition"), std::string::npos) << E;
}

TEST(SemaTest, DuplicateFunctionsAndGlobalsRejected) {
  EXPECT_FALSE(compileError(R"(
    void f() { skip; }
    void f() { skip; }
    void main() { skip; }
  )").empty());
  EXPECT_FALSE(compileError("int g; bool g; void main() { skip; }").empty());
}

TEST(SemaTest, StructByValueFieldRejected) {
  std::string E = compileError(R"(
    struct Inner { int x; }
    struct Outer { Inner inner; }
    void main() { skip; }
  )");
  EXPECT_NE(E.find("scalar"), std::string::npos) << E;
}

TEST(SemaTest, GlobalInitializerTypeChecked) {
  EXPECT_FALSE(compileError("int g = true; void main() { skip; }").empty());
  EXPECT_FALSE(compileError("bool b = 3; void main() { skip; }").empty());
}

TEST(SemaTest, ExpressionStatementMustBeCall) {
  std::string E = compileError("void main() { int x; x + 1; }");
  EXPECT_NE(E.find("call"), std::string::npos) << E;
}

TEST(SemaTest, NondetRangeLimitEnforced) {
  std::string E =
      compileError("void main() { int x = nondet_int(0, 100000); }");
  EXPECT_NE(E.find("range"), std::string::npos) << E;
}

/// The variables assigned in \p S, in source order, through nested blocks.
void collectAssignedIds(const Stmt *S, std::vector<VarId> &Out) {
  if (const auto *B = dyn_cast<BlockStmt>(S)) {
    for (const StmtPtr &Child : B->getStmts())
      collectAssignedIds(Child.get(), Out);
  } else if (const auto *A = dyn_cast<AssignStmt>(S)) {
    Out.push_back(cast<VarRefExpr>(A->getLHS())->getVarId());
  }
}

std::vector<VarId> assignedIds(const Compiled &C, const char *Func) {
  std::vector<VarId> Ids;
  Symbol Name = C.Ctx->Syms.lookup(Func);
  collectAssignedIds(C.Program->getFunction(Name)->getBody(), Ids);
  return Ids;
}

TEST(SemaTest, NestedShadowingResolvesInnermostFirst) {
  auto C = parseOnly(R"(
    int x;
    void main() {
      x = 0;
      int x = 1;
      {
        x = 2;
        int x = 3;
        { x = 4; int x = 5; x = 6; }
        x = 7;
      }
      x = 8;
    }
    void f() { x = 9; }
  )");
  ASSERT_TRUE(C) << C.diagnostics();
  VarId G{VarScope::Global, 0};
  VarId L0{VarScope::Local, 0}, L1{VarScope::Local, 1}, L2{VarScope::Local, 2};
  std::vector<VarId> Main = assignedIds(C, "main");
  std::vector<VarId> Expected = {G, L0, L1, L2, L1, L0};
  ASSERT_EQ(Main.size(), Expected.size());
  for (size_t I = 0; I != Main.size(); ++I)
    EXPECT_TRUE(Main[I] == Expected[I])
        << "assignment " << I << ": scope " << int(Main[I].Scope)
        << ", index " << Main[I].Index;
  // main's locals are out of scope in the next function.
  std::vector<VarId> F = assignedIds(C, "f");
  ASSERT_EQ(F.size(), 1u);
  EXPECT_TRUE(F[0] == G);
}

TEST(SemaTest, ThousandsOfLocalsInOneScope) {
  constexpr unsigned N = 20000;
  std::string Decls;
  for (unsigned I = 0; I != N; ++I)
    Decls += "int v" + std::to_string(I) + " = " + std::to_string(I % 7) +
             "; ";
  std::string Uses;
  for (unsigned I = N; I-- != 0;)
    Uses += "v" + std::to_string(I) + " = g; ";

  auto C = parseOnly("int g; void main() { " + Decls + Uses + "}");
  ASSERT_TRUE(C) << C.diagnostics();
  std::vector<VarId> Ids = assignedIds(C, "main");
  ASSERT_EQ(Ids.size(), N);
  for (unsigned I = 0; I != N; ++I)
    ASSERT_TRUE(Ids[I] == (VarId{VarScope::Local, N - 1 - I})) << I;

  auto Redefined = parseOnly("void main() { " + Decls + "bool v123; }");
  EXPECT_FALSE(Redefined);
  EXPECT_NE(Redefined.diagnostics().find("redefinition of 'v123'"),
            std::string::npos)
      << Redefined.diagnostics();
}

} // namespace
