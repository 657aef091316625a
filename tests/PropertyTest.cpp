//===- PropertyTest.cpp - Randomized property sweeps ----------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized property sweeps over seeded random concurrent programs:
///
///  * Soundness (the paper's headline guarantee): every error KISS
///    reports is confirmed by exhaustive interleaving exploration — "our
///    technique never reports false errors".
///  * Theorem 1 (the coverage direction, specialized as §2 states it):
///    for a program whose error is reachable within two context switches
///    of a 2-thread execution, the KISS translation finds it.
///  * Frontend round-trip: printing a compiled program reparses to a
///    fixpoint.
///
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"
#include "TestUtil.h"

#include "conc/ConcChecker.h"
#include "kiss/Kiss.h"
#include "lang/ASTPrinter.h"

using namespace kiss;
using namespace kiss::core;
using namespace kiss::test;

namespace {

class SeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedTest, GeneratedProgramsCompile) {
  std::string Source = generateProgram(GetParam());
  auto C = compile(Source);
  EXPECT_TRUE(C) << Source;
}

TEST_P(SeedTest, KissNeverReportsFalseErrors) {
  std::string Source = generateProgram(GetParam());
  auto C = compile(Source);
  ASSERT_TRUE(C) << Source;

  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
  conc::ConcOptions CO;
  CO.MaxStates = 2'000'000;
  rt::CheckResult Truth = conc::checkProgram(*C.Program, CFG, CO);
  if (Truth.Outcome == rt::CheckOutcome::BoundExceeded)
    GTEST_SKIP() << "ground truth too large";

  for (unsigned MaxTs : {0u, 1u, 2u}) {
    CheckConfig Opts;
    Opts.MaxTs = MaxTs;
    KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
    if (R.foundError()) {
      EXPECT_TRUE(Truth.foundError())
          << "false error at MaxTs=" << MaxTs << " for seed " << GetParam()
          << "\n"
          << Source;
    }
  }
}

TEST_P(SeedTest, PrintedProgramsReachAFixpoint) {
  std::string Source = generateProgram(GetParam());
  auto C = compile(Source);
  ASSERT_TRUE(C) << Source;
  std::string Once = lang::printProgram(*C.Program);
  lower::CompilerContext Ctx2;
  auto P2 = lower::compileToCore(Ctx2, "roundtrip", Once);
  ASSERT_TRUE(P2) << Once << "\n" << Ctx2.renderDiagnostics();
  EXPECT_EQ(lang::printProgram(*P2), Once) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SeedTest,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===//
// Theorem 1 coverage: two threads, at most two context switches
//===----------------------------------------------------------------------===//

/// Single-worker programs (2 threads total). If exhaustive exploration
/// bounded to two context switches finds the bug, KISS must too.
class TwoSwitchCoverageTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TwoSwitchCoverageTest, KissCoversTwoSwitchErrors) {
  GenOptions GO;
  GO.NumWorkers = 1;
  GO.StmtsPerWorker = 4;
  GO.StmtsInMain = 4;
  GO.WithLocks = false;
  GO.AssertSlack = 1; // Easy-to-violate assertions.
  std::string Source = generateProgram(GetParam(), GO);
  auto C = compile(Source);
  ASSERT_TRUE(C) << Source;

  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
  conc::ConcOptions Bounded;
  Bounded.ContextSwitchBound = 2;
  Bounded.MaxStates = 2'000'000;
  rt::CheckResult Truth = conc::checkProgram(*C.Program, CFG, Bounded);
  if (Truth.Outcome != rt::CheckOutcome::AssertionFailure)
    GTEST_SKIP() << "no two-switch assertion failure in this program";

  // MAX = 2 suffices (one pending thread + the simulated main).
  CheckConfig Opts;
  Opts.MaxTs = 2;
  Opts.MaxStates = 2'000'000;
  KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
  EXPECT_EQ(R.Verdict, KissVerdict::AssertionViolation)
      << "Theorem 1 violated for seed " << GetParam() << "\n"
      << Source;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, TwoSwitchCoverageTest,
                         ::testing::Range<uint64_t>(100, 160));

//===----------------------------------------------------------------------===//
// Race-mode soundness: reported races correspond to conflicting accesses
//===----------------------------------------------------------------------===//

class RaceSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RaceSoundnessTest, RaceVerdictsNeverCrashAndStayClassified) {
  GenOptions GO;
  GO.WithAsserts = false; // Pure race checking.
  std::string Source = generateProgram(GetParam(), GO);
  auto C = compile(Source);
  ASSERT_TRUE(C) << Source;

  for (unsigned G = 0; G != GO.NumIntGlobals; ++G) {
    RaceTarget T = RaceTarget::global(
        C.Ctx->Syms.intern("g" + std::to_string(G)));
    CheckConfig Opts;
    Opts.MaxTs = 0;
    Opts.MaxStates = 500'000;
    Opts.M = CheckConfig::Mode::Race;
    Opts.Race = T;
    KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
    // Generated programs contain no user asserts here: any error must be
    // classified as a race, never as an assertion violation, and the
    // engine must not fault.
    EXPECT_NE(R.Verdict, KissVerdict::AssertionViolation) << Source;
    EXPECT_NE(R.Verdict, KissVerdict::RuntimeError)
        << R.Message << "\n" << Source;
    if (R.Verdict == KissVerdict::RaceDetected) {
      EXPECT_FALSE(R.Trace.Steps.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, RaceSoundnessTest,
                         ::testing::Range<uint64_t>(200, 230));

} // namespace
