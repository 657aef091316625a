//===- BenignTest.cpp - §6's benign-race annotation (future work) ---------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §6: "In future work, we intend to deal with the problem of benign races
/// by allowing the programmer to annotate an access as benign. KISS can
/// then use this annotation as a directive to not instrument that access."
/// The `benign` statement annotation realizes exactly that.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "kiss/Kiss.h"
#include "lang/ASTPrinter.h"

using namespace kiss;
using namespace kiss::core;
using namespace kiss::test;

namespace {

KissReport raceOnGlobal(const Compiled &C, const char *Name) {
  CheckConfig Opts;
  Opts.MaxTs = 0;
  RaceTarget T = RaceTarget::global(C.Ctx->Syms.intern(Name));
  Opts.M = CheckConfig::Mode::Race;
  Opts.Race = T;
  return core::check(*C.Program, Opts, C.Ctx->Diags);
}

TEST(BenignTest, AnnotationParsesAndSetsTheFlag) {
  auto C = parseOnly(R"(
    int g;
    void main() {
      benign g = 1;
      g = 2;
    }
  )");
  ASSERT_TRUE(C) << C.diagnostics();
  const auto *Body =
      lang::cast<lang::BlockStmt>(C.Program->getEntryFunction()->getBody());
  EXPECT_TRUE(Body->getStmts()[0]->isBenign());
  EXPECT_FALSE(Body->getStmts()[1]->isBenign());
}

TEST(BenignTest, AnnotationSurvivesLoweringIntoTemps) {
  auto C = compile(R"(
    int g;
    int h;
    void main() {
      benign g = h + h + 1;
    }
  )");
  ASSERT_TRUE(C);
  // Every lowered statement derived from the annotated one is benign.
  const auto *Body =
      lang::cast<lang::BlockStmt>(C.Program->getEntryFunction()->getBody());
  ASSERT_FALSE(Body->getStmts().empty());
  for (const lang::StmtPtr &S : Body->getStmts())
    EXPECT_TRUE(S->isBenign());
}

TEST(BenignTest, BenignAccessIsNotInstrumented) {
  // The unprotected read is annotated: no race is reported even though
  // the accesses conflict.
  auto C = compile(R"(
    int shared = 0;
    void worker() { shared = 1; }
    void main() {
      async worker();
      benign { int snapshot = shared; }
    }
  )");
  ASSERT_TRUE(C);
  KissReport R = raceOnGlobal(C, "shared");
  EXPECT_EQ(R.Verdict, KissVerdict::NoErrorFound) << R.Message;
}

TEST(BenignTest, UnannotatedTwinStillRaces) {
  auto C = compile(R"(
    int shared = 0;
    void worker() { shared = 1; }
    void main() {
      async worker();
      int snapshot = shared;
    }
  )");
  ASSERT_TRUE(C);
  EXPECT_EQ(raceOnGlobal(C, "shared").Verdict, KissVerdict::RaceDetected);
}

TEST(BenignTest, OnlyTheAnnotatedSideIsSkipped) {
  // Both sides write; only one is annotated: the conflict between the two
  // *instrumented* accesses of the remaining pair (worker vs. worker) no
  // longer exists, but main's write still conflicts with worker's.
  auto C = compile(R"(
    int shared = 0;
    void worker() { shared = 1; }
    void main() {
      async worker();
      shared = 2;
      benign shared = 3;
    }
  )");
  ASSERT_TRUE(C);
  EXPECT_EQ(raceOnGlobal(C, "shared").Verdict, KissVerdict::RaceDetected);
}

TEST(BenignTest, FakemodemOpenCountScenario) {
  // The paper's anecdote: fakemodem reads OpenCount once without the lock
  // — "the read operation is atomic already ... so the programmer chose
  // to not pay for the overhead of locking". Annotating that single read
  // silences the warning while every other field keeps its verdict.
  auto C = compile(R"(
    struct FDO_DATA { int lock; int openCount; }
    void FakeModem_Ioctl(FDO_DATA *d) {
      atomic { assume(d->lock == 0); d->lock = 1; }
      d->openCount = d->openCount + 1;
      atomic { d->lock = 0; }
    }
    void FakeModem_CheckIdle(FDO_DATA *d) {
      benign {
        int count = d->openCount;   // deliberate unlocked read
        if (count == 0) { skip; }
      }
    }
    void main() {
      FDO_DATA *d = new FDO_DATA;
      async FakeModem_Ioctl(d);
      FakeModem_CheckIdle(d);
    }
  )");
  ASSERT_TRUE(C);
  CheckConfig Opts;
  Opts.MaxTs = 0;
  RaceTarget T = RaceTarget::field(C.Ctx->Syms.intern("FDO_DATA"),
                                   C.Ctx->Syms.intern("openCount"));
  Opts.M = CheckConfig::Mode::Race;
  Opts.Race = T;
  KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
  EXPECT_EQ(R.Verdict, KissVerdict::NoErrorFound) << R.Message;
}

TEST(BenignTest, AssertionsInsideBenignStillChecked) {
  // benign only affects race probes, never assertion checking.
  auto C = compile(R"(
    void main() {
      benign assert(false);
    }
  )");
  ASSERT_TRUE(C);
  CheckConfig Opts;
  KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
  EXPECT_EQ(R.Verdict, KissVerdict::AssertionViolation);
}

TEST(BenignTest, PrintedAnnotationReparses) {
  auto C = compile(R"(
    int g;
    void worker() { g = 1; }
    void main() {
      async worker();
      benign g = 2;
    }
  )");
  ASSERT_TRUE(C);
  std::string Printed = lang::printProgram(*C.Program);
  EXPECT_NE(Printed.find("benign"), std::string::npos) << Printed;
  lower::CompilerContext Ctx2;
  auto P2 = lower::compileToCore(Ctx2, "rt", Printed);
  ASSERT_TRUE(P2) << Printed << Ctx2.renderDiagnostics();
  // The reparsed program still suppresses the race.
  CheckConfig Opts;
  Opts.MaxTs = 0;
  RaceTarget T = RaceTarget::global(Ctx2.Syms.intern("g"));
  Opts.M = CheckConfig::Mode::Race;
  Opts.Race = T;
  KissReport R = core::check(*P2, Opts, Ctx2.Diags);
  EXPECT_EQ(R.Verdict, KissVerdict::NoErrorFound);
}

} // namespace
