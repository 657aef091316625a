//===- LowerTest.cpp ------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "lang/ASTPrinter.h"

using namespace kiss;
using namespace kiss::lang;
using namespace kiss::test;

namespace {

/// Recursively counts statements of kind \p K.
unsigned countKind(const Stmt *S, StmtKind K) {
  unsigned N = S->getKind() == K ? 1 : 0;
  switch (S->getKind()) {
  case StmtKind::Block:
    for (const StmtPtr &Sub : cast<BlockStmt>(S)->getStmts())
      N += countKind(Sub.get(), K);
    break;
  case StmtKind::Atomic:
    N += countKind(cast<AtomicStmt>(S)->getBody(), K);
    break;
  case StmtKind::Choice:
    for (const StmtPtr &B : cast<ChoiceStmt>(S)->getBranches())
      N += countKind(B.get(), K);
    break;
  case StmtKind::Iter:
    N += countKind(cast<IterStmt>(S)->getBody(), K);
    break;
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    N += countKind(I->getThen(), K);
    if (I->getElse())
      N += countKind(I->getElse(), K);
    break;
  }
  case StmtKind::While:
    N += countKind(cast<WhileStmt>(S)->getBody(), K);
    break;
  default:
    break;
  }
  return N;
}

TEST(LowerTest, ProducesCorePrograms) {
  auto C = compile(R"(
    struct Dev { int pendingIo; bool stoppingFlag; }
    bool stopped = false;
    int status;
    int inc(Dev *e) {
      if (e->stoppingFlag) { return 0 - 1; }
      atomic { e->pendingIo = e->pendingIo + 1; }
      return 0;
    }
    void main() {
      Dev *e = new Dev;
      e->pendingIo = 1;
      status = inc(e);
      while (status < 3) { status = status + 1; }
    }
  )");
  ASSERT_TRUE(C);
  std::string Why;
  EXPECT_TRUE(lower::isCoreProgram(*C.Program, &Why)) << Why;
}

TEST(LowerTest, IfBecomesChoiceWithAssumes) {
  auto C = compile(R"(
    void main() {
      int x = 0;
      bool c = x == 0;
      if (c) { x = 1; } else { x = 2; }
    }
  )");
  ASSERT_TRUE(C);
  const Stmt *Body = C.Program->getEntryFunction()->getBody();
  EXPECT_EQ(countKind(Body, StmtKind::If), 0u);
  EXPECT_EQ(countKind(Body, StmtKind::Choice), 1u);
  EXPECT_GE(countKind(Body, StmtKind::Assume), 2u);
}

TEST(LowerTest, WhileBecomesIterWithExitAssume) {
  auto C = compile(R"(
    void main() {
      int x = 0;
      while (x < 5) { x = x + 1; }
      assert(x == 5);
    }
  )");
  ASSERT_TRUE(C);
  const Stmt *Body = C.Program->getEntryFunction()->getBody();
  EXPECT_EQ(countKind(Body, StmtKind::While), 0u);
  EXPECT_EQ(countKind(Body, StmtKind::Iter), 1u);
}

TEST(LowerTest, CompoundExpressionsFlattened) {
  auto C = compile(R"(
    int add(int a, int b) { return a + b; }
    void main() {
      int r = add(1 + 2, add(3, 4)) * 2;
    }
  )");
  ASSERT_TRUE(C);
  std::string Why;
  EXPECT_TRUE(lower::isCoreProgram(*C.Program, &Why)) << Why;
  // Temporaries were created.
  const FuncDecl *Main = C.Program->getEntryFunction();
  EXPECT_GT(Main->getLocals().size(), 1u);
}

TEST(LowerTest, ShortCircuitAndLowersToBranch) {
  // If `&&` evaluated eagerly, p->x would fault on the null path; the
  // sequential checker proves this program safe, so this test doubles as a
  // semantic check once the engine runs it. Here we only check shape.
  auto C = compile(R"(
    struct S { int x; }
    void main() {
      S *p = null;
      bool ok = p != null && true;
    }
  )");
  ASSERT_TRUE(C);
  const Stmt *Body = C.Program->getEntryFunction()->getBody();
  EXPECT_GE(countKind(Body, StmtKind::Choice), 1u);
}

TEST(LowerTest, DeclsAreHoisted) {
  auto C = compile(R"(
    void main() {
      int x = 1;
      { int y = 2; x = y; }
    }
  )");
  ASSERT_TRUE(C);
  const Stmt *Body = C.Program->getEntryFunction()->getBody();
  EXPECT_EQ(countKind(Body, StmtKind::Decl), 0u);
  EXPECT_EQ(C.Program->getEntryFunction()->getLocals().size(), 2u);
}

TEST(LowerTest, ShadowedLocalsGetDistinctNames) {
  auto C = compile(R"(
    void main() {
      int x = 1;
      { int x = 2; }
    }
  )");
  ASSERT_TRUE(C);
  const auto &Locals = C.Program->getEntryFunction()->getLocals();
  ASSERT_EQ(Locals.size(), 2u);
  EXPECT_NE(Locals[0].Name, Locals[1].Name);
}

/// \returns the spellings of \p F's locals, in slot order.
std::vector<std::string> localNames(const Compiled &C, const char *F) {
  std::vector<std::string> Out;
  const FuncDecl *Fn = C.Program->getFunction(C.Ctx->Syms.lookup(F));
  for (const VarDecl &L : Fn->getLocals())
    Out.push_back(std::string(C.Ctx->Syms.str(L.Name)));
  return Out;
}

TEST(LowerTest, LocalNamedLikeAGlobalOrFunctionIsRenamed) {
  auto C = compile(R"(
    int g;
    void helper() { }
    void main() {
      int g = 1;
      int helper = 2;
      g = helper;
    }
  )");
  ASSERT_TRUE(C);
  EXPECT_EQ(localNames(C, "main"),
            (std::vector<std::string>{"g__2", "helper__2"}));
}

TEST(LowerTest, UserLocalSpelledLikeARenameDoesNotCollide) {
  auto C = compile(R"(
    void main() {
      int x = 1;
      { int x = 2; }
      int x__2 = 3;
    }
  )");
  ASSERT_TRUE(C);
  EXPECT_EQ(localNames(C, "main"),
            (std::vector<std::string>{"x", "x__2", "x__2__2"}));
  std::string Printed = printProgram(*C.Program);
  lower::CompilerContext Ctx2;
  EXPECT_TRUE(lower::compileToCore(Ctx2, "reparse.kiss", Printed))
      << Printed << Ctx2.renderDiagnostics();
}

TEST(LowerTest, FunctionsKeepTheirOwnLocalNames) {
  auto C = compile(R"(
    void f() { int a = 1; int b = a; }
    void main() { int a = 2; int b = a; f(); }
  )");
  ASSERT_TRUE(C);
  std::vector<std::string> Expected = {"a", "b"};
  EXPECT_EQ(localNames(C, "f"), Expected);
  EXPECT_EQ(localNames(C, "main"), Expected);
}

TEST(LowerTest, LoweredProgramPrintsAndReparses) {
  auto C = compile(R"(
    struct Dev { int pendingIo; bool stoppingFlag; }
    void touch(Dev *e) {
      if (e->stoppingFlag && e->pendingIo > 0) { e->pendingIo = 0; }
    }
    void main() {
      Dev *e = new Dev;
      int i = 0;
      while (i < 2) { touch(e); i = i + 1; }
    }
  )");
  ASSERT_TRUE(C);
  std::string Printed = printProgram(*C.Program);
  lower::CompilerContext Ctx2;
  auto P2 = lower::compileToCore(Ctx2, "reparse.kiss", Printed);
  ASSERT_TRUE(P2) << "lowered program failed to reparse:\n"
                  << Printed << "\n"
                  << Ctx2.renderDiagnostics();
}

TEST(LowerTest, CallInsideAtomicRejected) {
  std::string E = compileError(R"(
    int f() { return 1; }
    void main() {
      int x;
      atomic { x = f(); }
    }
  )");
  EXPECT_NE(E.find("atomic"), std::string::npos) << E;
}

TEST(LowerTest, ReturnInsideAtomicRejected) {
  std::string E = compileError(R"(
    void main() {
      atomic { return; }
    }
  )");
  EXPECT_NE(E.find("atomic"), std::string::npos) << E;
}

TEST(LowerTest, AsyncInsideAtomicRejected) {
  std::string E = compileError(R"(
    void f() { skip; }
    void main() {
      atomic { async f(); }
    }
  )");
  EXPECT_NE(E.find("atomic"), std::string::npos) << E;
}

TEST(LowerTest, NestedAtomicRejected) {
  std::string E = compileError(R"(
    void main() {
      atomic { atomic { skip; } }
    }
  )");
  EXPECT_NE(E.find("nested"), std::string::npos) << E;
}

TEST(LowerTest, AtomicWithAssumeAllowed) {
  // The lock_acquire idiom from §3 of the paper.
  auto C = compile(R"(
    int lock;
    void lock_acquire(int *l) {
      atomic { assume(*l == 0); *l = 1; }
    }
    void lock_release(int *l) {
      atomic { *l = 0; }
    }
    void main() {
      lock_acquire(&lock);
      lock_release(&lock);
    }
  )");
  EXPECT_TRUE(C);
}

} // namespace
