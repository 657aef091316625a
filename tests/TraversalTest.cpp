//===- TraversalTest.cpp - The AST child-traversal contract ---------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the visit order of the traversal helpers in lang/AST.h on one
/// surface program (before lowering, so Decl, If and While are still
/// there) that uses every statement and expression kind.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "lang/ASTPrinter.h"

#include <set>

using namespace kiss;
using namespace kiss::lang;

namespace {

const char *const Source = R"(struct S { int f; }
int g;
S *p;
int h(int a) { return a + 1; }
void w(int a) { skip; }
void main() {
  int x = h(g);
  bool b;
  p = new S;
  p->f = -x;
  *(&x) = nondet_int(0, 2);
  b = !(x == 1) && true;
  w(x);
  async w(g);
  assert(b);
  assume(p != null);
  atomic { g = 1; }
  if (b) { g = 2; } else skip;
  if (x < 2) g = 3;
  while (x > 0) { x = x - 1; }
  choice { skip; } or { g = 4; }
  iter { g = 5; }
  return;
}
)";

const char *kindName(StmtKind K) {
  static const char *const Names[] = {
      "Block", "Decl",   "Assign", "ExprStmt", "Async", "Assert", "Assume",
      "Atomic", "If",    "While",  "Choice",   "Iter",  "Return", "Skip"};
  return Names[static_cast<unsigned>(K)];
}

/// One line per statement of \p Body in pre-order: its kind, the kinds of
/// its direct child statements and the expressions it holds itself.
template <typename StmtT>
std::string renderStmts(StmtT *Body, const SymbolTable &Syms) {
  std::string Out;
  forEachStmtPreorder(Body, [&](auto *S) {
    Out += kindName(S->getKind());
    Out += " [";
    forEachSubStmt(S, [&](auto *Sub) {
      Out += " ";
      Out += kindName(Sub->getKind());
    });
    Out += " ] {";
    forEachStmtExpr(S, [&](auto *E) { Out += " " + printExpr(E, Syms); });
    Out += " }\n";
  });
  return Out;
}

/// One line per expression node under \p Body in pre-order: the node, then
/// its direct operands.
template <typename StmtT>
std::string renderExprs(StmtT *Body, const SymbolTable &Syms) {
  std::string Out;
  forEachExprPreorder(Body, [&](auto *E) {
    Out += printExpr(E, Syms) + " <-";
    forEachSubExpr(E, [&](auto *Sub) { Out += " " + printExpr(Sub, Syms); });
    Out += "\n";
  });
  return Out;
}

class TraversalTest : public ::testing::Test {
protected:
  void SetUp() override {
    C = test::parseOnly(Source);
    ASSERT_TRUE(C) << C.diagnostics();
    Main = C.Program->getEntryFunction()->getBody();
  }

  const SymbolTable &syms() const { return C.Ctx->Syms; }

  test::Compiled C;
  Stmt *Main = nullptr;
};

TEST_F(TraversalTest, ProgramUsesEveryKind) {
  std::set<StmtKind> Stmts;
  std::set<ExprKind> Exprs;
  forEachStmtPreorder(Main, [&](Stmt *S) { Stmts.insert(S->getKind()); });
  forEachExprPreorder(Main, [&](Expr *E) { Exprs.insert(E->getKind()); });
  EXPECT_EQ(Stmts.size(), static_cast<size_t>(StmtKind::Skip) + 1);
  EXPECT_EQ(Exprs.size(), static_cast<size_t>(ExprKind::Nondet) + 1);
}

TEST_F(TraversalTest, StatementChildrenAndExpressionsInSourceOrder) {
  const char *Expected = "Block [ Decl Decl Assign Assign Assign Assign "
                         "ExprStmt Async Assert Assume Atomic If If While "
                         "Choice Iter Return ] { }\n"
                         "Decl [ ] { h(g) }\n"
                         "Decl [ ] { }\n"
                         "Assign [ ] { p new S }\n"
                         "Assign [ ] { p->f -(x) }\n"
                         "Assign [ ] { *(&x) nondet_int(0, 2) }\n"
                         "Assign [ ] { b !(x == 1) && true }\n"
                         "ExprStmt [ ] { w(x) }\n"
                         "Async [ ] { w g }\n"
                         "Assert [ ] { b }\n"
                         "Assume [ ] { p != null }\n"
                         "Atomic [ Block ] { }\n"
                         "Block [ Assign ] { }\n"
                         "Assign [ ] { g 1 }\n"
                         "If [ Block Skip ] { b }\n"
                         "Block [ Assign ] { }\n"
                         "Assign [ ] { g 2 }\n"
                         "Skip [ ] { }\n"
                         "If [ Assign ] { x < 2 }\n"
                         "Assign [ ] { g 3 }\n"
                         "While [ Block ] { x > 0 }\n"
                         "Block [ Assign ] { }\n"
                         "Assign [ ] { x x - 1 }\n"
                         "Choice [ Block Block ] { }\n"
                         "Block [ Skip ] { }\n"
                         "Skip [ ] { }\n"
                         "Block [ Assign ] { }\n"
                         "Assign [ ] { g 4 }\n"
                         "Iter [ Block ] { }\n"
                         "Block [ Assign ] { }\n"
                         "Assign [ ] { g 5 }\n"
                         "Return [ ] { }\n";
  EXPECT_EQ(renderStmts(Main, syms()), Expected);
  // The const form walks the same nodes in the same order.
  EXPECT_EQ(renderStmts(static_cast<const Stmt *>(Main), syms()), Expected);
}

TEST_F(TraversalTest, ExpressionsInPreorder) {
  const char *Expected = "h(g) <- h g\n"
                         "h <-\n"
                         "g <-\n"
                         "p <-\n"
                         "new S <-\n"
                         "p->f <- p\n"
                         "p <-\n"
                         "-(x) <- x\n"
                         "x <-\n"
                         "*(&x) <- &x\n"
                         "&x <- x\n"
                         "x <-\n"
                         "nondet_int(0, 2) <-\n"
                         "b <-\n"
                         "!(x == 1) && true <- !(x == 1) true\n"
                         "!(x == 1) <- x == 1\n"
                         "x == 1 <- x 1\n"
                         "x <-\n"
                         "1 <-\n"
                         "true <-\n"
                         "w(x) <- w x\n"
                         "w <-\n"
                         "x <-\n"
                         "w <-\n"
                         "g <-\n"
                         "b <-\n"
                         "p != null <- p null\n"
                         "p <-\n"
                         "null <-\n"
                         "g <-\n"
                         "1 <-\n"
                         "b <-\n"
                         "g <-\n"
                         "2 <-\n"
                         "x < 2 <- x 2\n"
                         "x <-\n"
                         "2 <-\n"
                         "g <-\n"
                         "3 <-\n"
                         "x > 0 <- x 0\n"
                         "x <-\n"
                         "0 <-\n"
                         "x <-\n"
                         "x - 1 <- x 1\n"
                         "x <-\n"
                         "1 <-\n"
                         "g <-\n"
                         "4 <-\n"
                         "g <-\n"
                         "5 <-\n";
  EXPECT_EQ(renderExprs(Main, syms()), Expected);
  EXPECT_EQ(renderExprs(static_cast<const Stmt *>(Main), syms()), Expected);
}

TEST_F(TraversalTest, ReturnValueAndMutableChildren) {
  // h's `return a + 1;` holds its value; the non-const form hands out
  // mutable nodes, so a walker can rewrite in place.
  FuncDecl *H = C.Program->getFunction(C.Ctx->Syms.intern("h"));
  ASSERT_NE(H, nullptr);
  std::string Seen;
  forEachExprPreorder(H->getBody(), [&](Expr *E) {
    Seen += printExpr(E, syms()) + ";";
    if (auto *V = dyn_cast<VarRefExpr>(E))
      V->setName(C.Ctx->Syms.intern("renamed"));
  });
  EXPECT_EQ(Seen, "a + 1;a;1;");
  EXPECT_EQ(printStmt(H->getBody(), syms()), "{\n  return renamed + 1;\n}\n");
}

} // namespace
