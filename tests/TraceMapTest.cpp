//===- TraceMapTest.cpp ---------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "kiss/Kiss.h"

using namespace kiss;
using namespace kiss::core;
using namespace kiss::test;

namespace {

KissReport findError(const Compiled &C, unsigned MaxTs) {
  CheckConfig Opts;
  Opts.MaxTs = MaxTs;
  return core::check(*C.Program, Opts, C.Ctx->Diags);
}

TEST(TraceMapTest, SingleThreadTraceIsAllT0) {
  auto C = compile(R"(
    void main() {
      int x = 1;
      x = x + 1;
      assert(x == 3);
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 0);
  ASSERT_EQ(R.Verdict, KissVerdict::AssertionViolation);
  ASSERT_FALSE(R.Trace.Steps.empty());
  for (const MappedStep &S : R.Trace.Steps)
    EXPECT_EQ(S.Thread, 0u);
  EXPECT_EQ(R.Trace.NumThreads, 1u);
}

TEST(TraceMapTest, EveryStepHasAnOriginStatement) {
  auto C = compile(R"(
    int g = 0;
    void w() { g = 1; }
    void main() {
      async w();
      assert(g == 0);
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 0);
  ASSERT_EQ(R.Verdict, KissVerdict::AssertionViolation);
  for (const MappedStep &S : R.Trace.Steps)
    EXPECT_NE(S.Origin, nullptr);
}

TEST(TraceMapTest, LastStepIsTheFailingAssert) {
  auto C = compile(R"(
    int g = 0;
    void w() { g = 1; }
    void main() {
      async w();
      assert(g == 0);
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 0);
  ASSERT_EQ(R.Verdict, KissVerdict::AssertionViolation);
  ASSERT_FALSE(R.Trace.Steps.empty());
  const MappedStep &Last = R.Trace.Steps.back();
  EXPECT_EQ(Last.K, MappedStep::Kind::Exec);
  EXPECT_TRUE(lang::isa<lang::AssertStmt>(Last.Origin));
  EXPECT_EQ(Last.Thread, 0u);
}

TEST(TraceMapTest, ForkedThreadGetsFreshId) {
  auto C = compile(R"(
    int g = 0;
    void w() { g = g + 1; }
    void main() {
      async w();
      assert(g == 0);
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 0);
  ASSERT_EQ(R.Verdict, KissVerdict::AssertionViolation);
  bool SawT1Exec = false;
  for (const MappedStep &S : R.Trace.Steps)
    if (S.Thread == 1 && S.K == MappedStep::Kind::Exec)
      SawT1Exec = true;
  EXPECT_TRUE(SawT1Exec);
  EXPECT_EQ(R.Trace.NumThreads, 2u);
}

TEST(TraceMapTest, SpawnEventEmittedWhenThreadDeferred) {
  // With MAX=1 a failing path exists where w is put into ts and scheduled
  // later; depending on BFS order the shortest counterexample may instead
  // run w synchronously. Force deferral: the bug requires the fork to
  // happen *after* main finishes (w must see armed == true).
  auto C = compile(R"(
    bool armed = false;
    void w() {
      assert(!armed);
    }
    void main() {
      async w();
      armed = true;
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 1);
  ASSERT_EQ(R.Verdict, KissVerdict::AssertionViolation);
  bool SawSpawn = false;
  for (const MappedStep &S : R.Trace.Steps)
    if (S.K == MappedStep::Kind::Spawn)
      SawSpawn = true;
  EXPECT_TRUE(SawSpawn);
}

TEST(TraceMapTest, RaceTraceEndsWithCheckEvent) {
  auto C = compile(R"(
    int shared = 0;
    void w() { shared = 1; }
    void main() {
      async w();
      shared = 2;
    }
  )");
  ASSERT_TRUE(C);
  CheckConfig Opts;
  Opts.MaxTs = 0;
  RaceTarget T = RaceTarget::global(C.Ctx->Syms.intern("shared"));
  Opts.M = CheckConfig::Mode::Race;
  Opts.Race = T;
  KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
  ASSERT_EQ(R.Verdict, KissVerdict::RaceDetected);
  ASSERT_FALSE(R.Trace.Steps.empty());
  // The trace contains two access events on different threads.
  unsigned Checks = 0;
  std::set<uint32_t> CheckThreads;
  for (const MappedStep &S : R.Trace.Steps)
    if (S.K == MappedStep::Kind::Check) {
      ++Checks;
      CheckThreads.insert(S.Thread);
    }
  EXPECT_EQ(Checks, 2u);
  EXPECT_EQ(CheckThreads.size(), 2u);
  EXPECT_EQ(R.Trace.Steps.back().K, MappedStep::Kind::Check);
}

TEST(TraceMapTest, NestedCallsStayOnTheirThread) {
  auto C = compile(R"(
    int depth = 0;
    void inner() { depth = depth + 1; }
    void outer() { inner(); inner(); }
    void w() { outer(); }
    void main() {
      async w();
      assert(depth == 0);
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 0);
  ASSERT_EQ(R.Verdict, KissVerdict::AssertionViolation);
  // All statements of w/outer/inner are attributed to thread 1.
  const SymbolTable &Syms = C.Ctx->Syms;
  (void)Syms;
  for (const MappedStep &S : R.Trace.Steps) {
    if (S.Thread == 1)
      continue;
    // Thread 0 steps must come from main only.
    EXPECT_EQ(S.Thread, 0u);
  }
  bool DepthUpdateOnT1 = false;
  for (const MappedStep &S : R.Trace.Steps)
    if (S.Thread == 1 && lang::isa<lang::AssignStmt>(S.Origin))
      DepthUpdateOnT1 = true;
  EXPECT_TRUE(DepthUpdateOnT1);
}

/// Context switches in a mapped trace: adjacent steps on different threads.
unsigned switchesIn(const core::ConcurrentTrace &T) {
  unsigned N = 0;
  for (size_t I = 1; I < T.Steps.size(); ++I)
    N += T.Steps[I].Thread != T.Steps[I - 1].Thread;
  return N;
}

// Golden walkthroughs: thread-id shape and context-switch counts of the
// shortest counterexamples on small canonical programs. BFS makes these
// deterministic; a change here means the mapped trace's shape changed.

TEST(TraceMapTest, GoldenSynchronousErrorHasNoSwitches) {
  // The error is reachable with w run synchronously at its fork point and
  // main contributes no steps of its own (a synchronous fork emits no
  // spawn event), so the mapped trace is w's steps only: zero switches.
  auto C = compile(R"(
    int g = 0;
    void w() { g = 1; assert(g == 0); }
    void main() { async w(); }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 0);
  ASSERT_EQ(R.Verdict, KissVerdict::AssertionViolation);
  EXPECT_EQ(R.Trace.NumThreads, 2u);
  EXPECT_EQ(switchesIn(R.Trace), 0u);
  for (const MappedStep &S : R.Trace.Steps)
    EXPECT_EQ(S.Thread, 1u);
}

TEST(TraceMapTest, GoldenTwoSwitchErrorCountsTwo) {
  // main arms after the fork, w must run between the arming and the
  // assert: t0 -> t1 -> t0, exactly two context switches.
  auto C = compile(R"(
    bool armed = false;
    bool fired = false;
    void w() {
      assume(armed);
      fired = true;
    }
    void main() {
      async w();
      armed = true;
      assert(!fired);
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 2);
  ASSERT_EQ(R.Verdict, KissVerdict::AssertionViolation);
  EXPECT_EQ(R.Trace.NumThreads, 2u);
  EXPECT_EQ(switchesIn(R.Trace), 2u);
  // The trace is t0+, t1+, t0+: the failing assert is back on main.
  EXPECT_EQ(R.Trace.Steps.front().Thread, 0u);
  EXPECT_EQ(R.Trace.Steps.back().Thread, 0u);
}

TEST(TraceMapTest, GoldenThreeThreadChainUsesFreshIds) {
  // Both workers must run, in order, for the assert to fail; the mapped
  // trace attributes their steps to distinct fresh thread ids.
  auto C = compile(R"(
    int stage = 0;
    void w0() { stage = 1; }
    void w1() {
      assume(stage == 1);
      stage = 2;
    }
    void main() {
      async w0();
      async w1();
      assert(stage != 2);
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 2);
  ASSERT_EQ(R.Verdict, KissVerdict::AssertionViolation);
  EXPECT_EQ(R.Trace.NumThreads, 3u);
  std::set<uint32_t> ExecThreads;
  for (const MappedStep &S : R.Trace.Steps)
    if (S.K == MappedStep::Kind::Exec)
      ExecThreads.insert(S.Thread);
  EXPECT_EQ(ExecThreads, (std::set<uint32_t>{0, 1, 2}));
  EXPECT_EQ(R.Trace.Steps.back().Thread, 0u);
}

TEST(TraceMapTest, FormatterShowsThreadsAndLocations) {
  auto C = compile(R"(
    int g = 0;
    void w() { g = 5; }
    void main() {
      async w();
      assert(g == 0);
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = findError(C, 0);
  ASSERT_TRUE(R.foundError());
  std::string Text = formatConcurrentTrace(R.Trace, *C.Program, &C.Ctx->SM);
  EXPECT_NE(Text.find("[t0]"), std::string::npos);
  EXPECT_NE(Text.find("[t1]"), std::string::npos);
  EXPECT_NE(Text.find("test.kiss:"), std::string::npos);
  EXPECT_NE(Text.find("g = 5"), std::string::npos);
}

} // namespace
