//===- NodeMemoryTest.cpp - AST node memory across threads ----------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
//
// Expr and Stmt nodes recycle their memory through per-thread free lists.
// These tests free nodes on a thread other than the one that built them,
// and let a thread exit while its nodes live on elsewhere. They run under
// the sanitizer presets: ASan (where nodes bypass the free lists) checks
// the ownership paths, TSan checks that no list is shared between threads.
//
//===----------------------------------------------------------------------===//

#include "lang/AST.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace kiss;
using namespace kiss::lang;

namespace {

/// Builds \p N small statement trees: assume(x == 1); and { skip; }.
std::vector<StmtPtr> buildNodes(unsigned N) {
  std::vector<StmtPtr> Out;
  for (unsigned I = 0; I != N; ++I) {
    auto Cond = std::make_unique<BinaryExpr>(
        BinaryOp::Eq, std::make_unique<VarRefExpr>(Symbol(), SourceLoc()),
        std::make_unique<IntLitExpr>(I, SourceLoc()), SourceLoc());
    Out.push_back(std::make_unique<AssumeStmt>(std::move(Cond), SourceLoc()));
    auto Block = std::make_unique<BlockStmt>(SourceLoc());
    Block->append(std::make_unique<SkipStmt>(SourceLoc()));
    Out.push_back(std::move(Block));
  }
  return Out;
}

/// \returns true if every node built by buildNodes(N) still reads back.
bool intact(const std::vector<StmtPtr> &Nodes) {
  for (size_t I = 0; I != Nodes.size(); I += 2) {
    const auto *A = dyn_cast<AssumeStmt>(Nodes[I].get());
    const auto *B = dyn_cast<BlockStmt>(Nodes[I + 1].get());
    if (!A || !B || B->getStmts().size() != 1)
      return false;
    const auto *Eq = dyn_cast<BinaryExpr>(A->getCond());
    const auto *Lit = Eq ? dyn_cast<IntLitExpr>(Eq->getRHS()) : nullptr;
    if (!Lit || Lit->getValue() != static_cast<int64_t>(I / 2))
      return false;
  }
  return true;
}

TEST(NodeRecycler, NodesBuiltOnOneThreadDieOnAnother) {
  for (int Round = 0; Round != 4; ++Round) {
    std::vector<StmtPtr> Nodes;
    std::thread Builder([&] { Nodes = buildNodes(500); });
    Builder.join();
    ASSERT_TRUE(intact(Nodes));
    size_t Before = retainedNodeBytes();
    std::thread Destroyer([&] {
      Nodes.clear();
      EXPECT_LE(retainedNodeBytes(), MaxRetainedNodeBytes);
    });
    Destroyer.join();
    // The destroying thread kept the blocks, not this one.
    EXPECT_EQ(retainedNodeBytes(), Before);
    // This thread's own lists still work after the handoffs.
    std::vector<StmtPtr> Mine = buildNodes(50);
    EXPECT_TRUE(intact(Mine));
  }
}

TEST(NodeRecycler, ThreadExitsWhileItsNodesLiveElsewhere) {
  std::vector<StmtPtr> Survivors;
  std::thread Builder([&] {
    // Churn first so the thread holds free blocks of its own at exit.
    for (int I = 0; I != 3; ++I)
      buildNodes(200);
    Survivors = buildNodes(300);
  });
  Builder.join();
  // The builder is gone and its free lists were released; its live nodes
  // are still usable, and freeing them here recycles them here.
  ASSERT_TRUE(intact(Survivors));
  size_t Before = retainedNodeBytes();
  Survivors.clear();
  EXPECT_GE(retainedNodeBytes(), Before);
  EXPECT_LE(retainedNodeBytes(), MaxRetainedNodeBytes);
  std::vector<StmtPtr> Again = buildNodes(300);
  EXPECT_TRUE(intact(Again));
}

TEST(NodeRecycler, RetainedBytesAreCapped) {
  std::thread Worker([] {
    // Far more node memory than the cap, freed at once.
    std::vector<StmtPtr> Many = buildNodes(20000);
    Many.clear();
    EXPECT_LE(retainedNodeBytes(), MaxRetainedNodeBytes);
  });
  Worker.join();
}

} // namespace
