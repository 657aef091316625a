//===- SeqCheckTest.cpp ---------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "conc/ConcChecker.h"
#include "seqcheck/Explorer.h"
#include "seqcheck/SeqChecker.h"

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::test;

namespace {

CheckResult run(const std::string &Source,
                seqcheck::SeqOptions Opts = seqcheck::SeqOptions()) {
  auto C = compile(Source);
  EXPECT_TRUE(C);
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
  return seqcheck::checkProgram(*C.Program, CFG, Opts);
}

TEST(SeqCheckTest, TrivialSafeProgram) {
  CheckResult R = run("void main() { assert(true); }");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, TrivialAssertionFailure) {
  CheckResult R = run("void main() { assert(false); }");
  EXPECT_EQ(R.Outcome, CheckOutcome::AssertionFailure);
  EXPECT_FALSE(R.Trace.empty());
}

TEST(SeqCheckTest, ArithmeticAndComparisons) {
  CheckResult R = run(R"(
    void main() {
      int x = 6;
      int y = 7;
      assert(x * y == 42);
      assert(x - y == (-1));
      assert(x + y >= 13);
      assert(x < y);
      assert(!(x == y));
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, NondetBoolExploresBothBranches) {
  CheckResult R = run(R"(
    void main() {
      bool b = nondet_bool();
      assert(b);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::AssertionFailure);
}

TEST(SeqCheckTest, NondetIntRangeExplored) {
  CheckResult R = run(R"(
    void main() {
      int x = nondet_int(0, 10);
      assert(x <= 10);
      assert(x >= 0);
      assert(x != 7);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::AssertionFailure);
}

TEST(SeqCheckTest, ChoiceExploresAllBranches) {
  CheckResult R = run(R"(
    void main() {
      int x;
      choice { x = 1; } or { x = 2; } or { x = 3; }
      assert(x != 2);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::AssertionFailure);
}

TEST(SeqCheckTest, AssumePrunesPaths) {
  CheckResult R = run(R"(
    void main() {
      int x = nondet_int(0, 10);
      assume(x > 5);
      assert(x >= 6);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, IterReachesArbitraryCounts) {
  CheckResult R = run(R"(
    void main() {
      int x = 0;
      iter { x = x + 1; assume(x <= 4); }
      assert(x != 3);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::AssertionFailure);
}

TEST(SeqCheckTest, WhileLoopTerminationSemantics) {
  CheckResult R = run(R"(
    void main() {
      int x = 0;
      while (x < 5) { x = x + 1; }
      assert(x == 5);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, FunctionCallsAndReturnValues) {
  CheckResult R = run(R"(
    int add(int a, int b) { return a + b; }
    int twice(int a) { return add(a, a); }
    void main() {
      assert(twice(21) == 42);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, RecursionWorksViaSummaryOfStates) {
  CheckResult R = run(R"(
    int fact(int n) {
      if (n <= 1) { return 1; }
      return n * fact(n - 1);
    }
    void main() {
      assert(fact(5) == 120);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, UnboundedRecursionHitsFrameBound) {
  seqcheck::SeqOptions Opts;
  Opts.MaxFrames = 32;
  CheckResult R = run(R"(
    void spin() { spin(); }
    void main() { spin(); }
  )", Opts);
  EXPECT_EQ(R.Outcome, CheckOutcome::BoundExceeded);
}

TEST(SeqCheckTest, GlobalsInitializedFromDeclarations) {
  CheckResult R = run(R"(
    int g = 41;
    bool flag = true;
    void main() {
      assert(flag);
      assert(g + 1 == 42);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, HeapObjectsAndFields) {
  CheckResult R = run(R"(
    struct Dev { int pendingIo; bool stoppingFlag; Dev *next; }
    void main() {
      Dev *a = new Dev;
      Dev *b = new Dev;
      assert(a != b);
      assert(a->pendingIo == 0);
      assert(!a->stoppingFlag);
      assert(a->next == null);
      a->next = b;
      b->pendingIo = 7;
      assert(a->next->pendingIo == 7);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, NullDereferenceIsRuntimeError) {
  CheckResult R = run(R"(
    struct S { int x; }
    void main() {
      S *p = null;
      p->x = 1;
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::RuntimeError);
  EXPECT_NE(R.Message.find("null"), std::string::npos);
}

TEST(SeqCheckTest, ShortCircuitAvoidsNullDeref) {
  CheckResult R = run(R"(
    struct S { int x; }
    void main() {
      S *p = null;
      bool ok = p != null && p->x == 1;
      assert(!ok);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, PointersThroughGlobalsAndLocals) {
  CheckResult R = run(R"(
    int g = 1;
    void main() {
      int x = 2;
      int *p = &g;
      int *q = &x;
      *p = *q + 10;
      assert(g == 12);
      *q = *p;
      assert(x == 12);
      assert(p != q);
      p = q;
      assert(p == q);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, PointerToFieldReadsAndWrites) {
  CheckResult R = run(R"(
    struct S { int a; int b; }
    void main() {
      S *s = new S;
      int *pa = &s->a;
      int *pb = &s->b;
      *pa = 1;
      *pb = 2;
      assert(s->a == 1);
      assert(s->b == 2);
      assert(pa != pb);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, FunctionValuesAndIndirectCalls) {
  CheckResult R = run(R"(
    int one() { return 1; }
    int two() { return 2; }
    void main() {
      func<int()> f;
      choice { f = one; } or { f = two; }
      int r = f();
      assert(r == 1 || r == 2);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, CallThroughNullFunctionIsRuntimeError) {
  CheckResult R = run(R"(
    void main() {
      func<void()> f = null;
      f();
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::RuntimeError);
}

TEST(SeqCheckTest, UninitializedUseIsRuntimeError) {
  CheckResult R = run(R"(
    void main() {
      int x;
      int y = x + 1;
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::RuntimeError);
  EXPECT_NE(R.Message.find("uninitialized"), std::string::npos);
}

TEST(SeqCheckTest, AsyncIsRejectedBySequentialEngine) {
  for (ExecEngine E : {ExecEngine::Interp, ExecEngine::Threaded}) {
    SCOPED_TRACE(getExecEngineName(E));
    seqcheck::SeqOptions Opts;
    Opts.Exec = E;
    CheckResult R = run(R"(
      void f() { skip; }
      void main() { async f(); }
    )", Opts);
    EXPECT_EQ(R.Outcome, CheckOutcome::RuntimeError);
    EXPECT_NE(R.Message.find("async"), std::string::npos);
  }
}

// A thread blocked inside an atomic section with no other thread to run:
// the state is terminal, not an error, and both engines count the same
// search.
TEST(SeqCheckTest, BlockedAtomicSectionIsTerminal) {
  std::vector<CheckResult> Rs;
  for (ExecEngine E : {ExecEngine::Interp, ExecEngine::Threaded}) {
    SCOPED_TRACE(getExecEngineName(E));
    seqcheck::SeqOptions Opts;
    Opts.Exec = E;
    Rs.push_back(run(R"(
      int g = 0;
      void main() {
        g = 1;
        atomic { assume(false); }
        assert(false);
      }
    )", Opts));
    EXPECT_EQ(Rs.back().Outcome, CheckOutcome::Safe);
    EXPECT_GT(Rs.back().StatesExplored, 1u);
  }
  EXPECT_EQ(Rs[0].StatesExplored, Rs[1].StatesExplored);
  EXPECT_EQ(Rs[0].TransitionsExplored, Rs[1].TransitionsExplored);
}

TEST(SeqCheckTest, StateBudgetReportsBoundExceeded) {
  seqcheck::SeqOptions Opts;
  Opts.MaxStates = 50;
  CheckResult R = run(R"(
    void main() {
      int x = nondet_int(0, 100);
      int y = nondet_int(0, 100);
      assert(x + y >= 0);
    }
  )", Opts);
  EXPECT_EQ(R.Outcome, CheckOutcome::BoundExceeded);
  EXPECT_EQ(R.Bound, gov::BoundReason::States);
}

TEST(SeqCheckTest, InjectedDeadlineTripReportsReason) {
  const std::string Source = R"(
    void main() {
      int x = nondet_int(0, 100);
      assert(x >= 0);
    }
  )";
  CheckResult Full = run(Source);
  ASSERT_EQ(Full.Outcome, CheckOutcome::Safe);

  seqcheck::SeqOptions Opts;
  Opts.Budget.TripAtTick = 3; // Trip on the third expanded state.
  Opts.Budget.TripReason = gov::BoundReason::Deadline;
  CheckResult R = run(Source, Opts);
  EXPECT_EQ(R.Outcome, CheckOutcome::BoundExceeded);
  EXPECT_EQ(R.Bound, gov::BoundReason::Deadline);
  EXPECT_NE(R.Message.find("deadline"), std::string::npos);
  // The trip cut exploration short, and deterministically so.
  EXPECT_LT(R.StatesExplored, Full.StatesExplored);
  CheckResult Again = run(Source, Opts);
  EXPECT_EQ(Again.StatesExplored, R.StatesExplored);
}

TEST(SeqCheckTest, InjectedMemoryTripReportsReason) {
  seqcheck::SeqOptions Opts;
  Opts.Budget.TripAtTick = 1;
  Opts.Budget.TripReason = gov::BoundReason::Memory;
  CheckResult R = run("void main() { assert(true); }", Opts);
  EXPECT_EQ(R.Outcome, CheckOutcome::BoundExceeded);
  EXPECT_EQ(R.Bound, gov::BoundReason::Memory);
}

/// A budget between the visited set's final size and that size plus the
/// parent links. An armed, unreached injection drops the governor's
/// check stride to one tick, so the search trips exactly when the links
/// are counted.
gov::RunBudget budgetBetweenStoreAndLinks(const CheckResult &Full) {
  const uint64_t Store =
      Full.Exploration.ArenaBytes + Full.Exploration.IndexBytes;
  const uint64_t Links = Full.StatesExplored * sizeof(ParentLink);
  gov::RunBudget B;
  B.MemoryBytes = Store + Links / 2;
  B.TripAtTick = uint64_t(1) << 40;
  return B;
}

void expectMemoryTrip(const CheckResult &R) {
  EXPECT_EQ(R.Outcome, CheckOutcome::BoundExceeded);
  EXPECT_EQ(R.Bound, gov::BoundReason::Memory);
  EXPECT_NE(R.Message.find("memory budget of"), std::string::npos)
      << R.Message;
}

TEST(SeqCheckTest, MemoryBudgetCountsParentLinks) {
  // 51 x 51 choices: a complete search of ~2,600 states.
  auto C = compile(R"(
    void main() {
      int x = nondet_int(0, 50);
      int y = nondet_int(0, 50);
      assert(x + y >= 0);
    }
  )");
  ASSERT_TRUE(C);
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);

  for (ExecEngine E : {ExecEngine::Interp, ExecEngine::Threaded}) {
    SCOPED_TRACE(getExecEngineName(E));
    seqcheck::SeqOptions Opts;
    Opts.Exec = E;
    const CheckResult Full = seqcheck::checkProgram(*C.Program, CFG, Opts);
    ASSERT_EQ(Full.Outcome, CheckOutcome::Safe);
    ASSERT_GT(Full.StatesExplored, 2'500u);
    Opts.Budget = budgetBetweenStoreAndLinks(Full);
    expectMemoryTrip(seqcheck::checkProgram(*C.Program, CFG, Opts));
  }

  conc::ConcOptions CO;
  const CheckResult Full = conc::checkProgram(*C.Program, CFG, CO);
  ASSERT_EQ(Full.Outcome, CheckOutcome::Safe);
  CO.Budget = budgetBetweenStoreAndLinks(Full);
  expectMemoryTrip(conc::checkProgram(*C.Program, CFG, CO));
}

TEST(SeqCheckTest, InjectedCancellationReportsReason) {
  gov::CancellationToken Token;
  seqcheck::SeqOptions Opts;
  Opts.Budget.Cancel = &Token;
  Opts.Budget.CancelAtTick = 2;
  CheckResult R = run(R"(
    void main() {
      int x = nondet_int(0, 100);
      assert(x >= 0);
    }
  )", Opts);
  EXPECT_EQ(R.Outcome, CheckOutcome::BoundExceeded);
  EXPECT_EQ(R.Bound, gov::BoundReason::Cancelled);
  EXPECT_TRUE(Token.isCancelled());
}

TEST(SeqCheckTest, SafeRunReportsNoBoundAndIndexBytes) {
  CheckResult R = run(R"(
    void main() {
      int x = nondet_int(0, 10);
      assert(x >= 0);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
  EXPECT_EQ(R.Bound, gov::BoundReason::None);
  // The visited-set index is populated, so accounted index bytes are
  // nonzero alongside the arena bytes.
  EXPECT_GT(R.Exploration.IndexBytes, 0u);
  EXPECT_GT(R.Exploration.ArenaBytes, 0u);
}

TEST(SeqCheckTest, HeapGarbageIsCanonicalizedAway) {
  // Allocating in a loop diverges unless unreachable objects are ignored
  // by state dedup.
  CheckResult R = run(R"(
    struct S { int x; }
    void main() {
      iter {
        S *p = new S;
        p = null;
      }
      assert(true);
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::Safe);
}

TEST(SeqCheckTest, BfsYieldsShortestCounterexample) {
  CheckResult R = run(R"(
    void main() {
      int x = 0;
      choice { assert(false); } or { x = 1; assert(false); }
    }
  )");
  EXPECT_EQ(R.Outcome, CheckOutcome::AssertionFailure);
  // The shortest trace goes straight into the first branch: entry nop,
  // x = 0, choice fork, assert — at most a handful of steps.
  EXPECT_LE(R.Trace.size(), 6u);
}

TEST(SeqCheckTest, TraceFormatsWithSourceLines) {
  auto C = compile(R"(
    void main() {
      int x = 1;
      assert(x == 2);
    }
  )");
  ASSERT_TRUE(C);
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
  CheckResult R = seqcheck::checkProgram(*C.Program, CFG);
  ASSERT_EQ(R.Outcome, CheckOutcome::AssertionFailure);
  std::string Text = formatTrace(R.Trace, *C.Program, CFG, &C.Ctx->SM);
  EXPECT_NE(Text.find("assert"), std::string::npos);
  EXPECT_NE(Text.find("test.kiss:"), std::string::npos);
}

} // namespace
