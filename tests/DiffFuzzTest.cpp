//===- DiffFuzzTest.cpp - The differential fuzzing subsystem --------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for src/fuzz: generator determinism and compile-rate, oracle
/// verdicts on hand-written programs, the regression programs behind the
/// two transform bugs the fuzzer found, the shrinker, the repro file
/// format, and campaign invariance across worker counts.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fuzz/Fuzzer.h"
#include "fuzz/Repro.h"

#include <fstream>
#include <sstream>

using namespace kiss;
using namespace kiss::fuzz;
using namespace kiss::test;

namespace {

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(DiffFuzzTest, GeneratorIsDeterministic) {
  GenOptions G;
  G.WithPointers = true;
  EXPECT_EQ(generateProgram(42, G), generateProgram(42, G));
  EXPECT_NE(generateProgram(42, G), generateProgram(43, G));
}

TEST(DiffFuzzTest, VaryOptionsIsDeterministic) {
  GenOptions Base;
  Base.Threads = 3;
  Base.WithPointers = true;
  for (uint64_t S = 0; S != 16; ++S)
    EXPECT_EQ(generateProgram(S, varyOptions(S, Base)),
              generateProgram(S, varyOptions(S, Base)));
}

TEST(DiffFuzzTest, GeneratedProgramsAlwaysCompile) {
  GenOptions Base;
  Base.Threads = 3;
  Base.WithPointers = true;
  for (uint64_t S = 0; S != 200; ++S) {
    std::string Source = generateProgram(S, varyOptions(S, Base));
    lower::CompilerContext Ctx;
    auto P = lower::compileToCore(Ctx, "gen.kiss", Source);
    ASSERT_TRUE(P != nullptr)
        << "seed " << S << ":\n"
        << Source << "\n"
        << Ctx.renderDiagnostics();
  }
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

OracleResult runOn(const std::string &Source, bool BreakAsserts = false) {
  OracleOptions Opts;
  Opts.Kiss.InjectBreakAsserts = BreakAsserts;
  return runOracle(Source, Opts);
}

TEST(DiffFuzzTest, OracleAgreesOnSafeProgram) {
  OracleResult R = runOn(R"(
    int g = 0;
    void w() { g = g + 1; }
    void main() {
      async w();
      assert(g >= 0);
    }
  )");
  EXPECT_EQ(R.V, OracleVerdict::Agree);
  EXPECT_EQ(R.Kiss, core::KissVerdict::NoErrorFound);
}

TEST(DiffFuzzTest, OracleAgreesOnConfirmedError) {
  OracleResult R = runOn(R"(
    int g = 0;
    void w() { g = 1; }
    void main() {
      async w();
      assert(g == 0);
    }
  )");
  EXPECT_EQ(R.V, OracleVerdict::Agree);
  EXPECT_EQ(R.Kiss, core::KissVerdict::AssertionViolation);
  EXPECT_TRUE(R.TwoThread);
}

TEST(DiffFuzzTest, OracleDiscardsNonCompilingInputWithDiagnostics) {
  OracleResult R = runOn("void main() {\n  this is not a program\n}\n");
  EXPECT_EQ(R.V, OracleVerdict::Discard);
  // Discard diagnostics must carry line:col — they are the input of the
  // frontend error-location audit.
  EXPECT_NE(R.DiscardDiagnostics.find(":2:"), std::string::npos)
      << R.DiscardDiagnostics;
}

TEST(DiffFuzzTest, OracleCatchesInjectedUnsoundness) {
  // A trivially safe program; the sabotaged transform negates the cloned
  // assert, so KISS errs and the ground truth refutes it.
  OracleResult R = runOn(R"(
    int g = 0;
    void w() { g = g + 1; }
    void main() {
      async w();
      assert(g >= 0);
    }
  )",
                         /*BreakAsserts=*/true);
  EXPECT_EQ(R.V, OracleVerdict::SoundnessBug);
}

TEST(DiffFuzzTest, ExecDiffComparesTheConfiguredRunWithItsFlip) {
  // --exec-diff re-runs under the other exec engine and store mode, so it
  // agrees from either corner: threaded/flat (the default) and
  // interp/delta.
  const char *Source = R"(
    int g = 0;
    void w() { g = 1; }
    void main() {
      async w();
      assert(g == 0);
    }
  )";
  for (bool Reference : {false, true}) {
    OracleOptions OO;
    OO.ExecDiff = true;
    if (Reference) {
      OO.Kiss.Exec = rt::ExecEngine::Interp;
      OO.Kiss.Store = rt::StoreMode::Delta;
    }
    OracleResult R = runOracle(Source, OO);
    EXPECT_EQ(R.V, OracleVerdict::Agree) << R.Detail;
    EXPECT_EQ(R.Kiss, core::KissVerdict::AssertionViolation);
  }
}

// Before the call write-back fix the transform committed the callee's dummy
// unwind value to the destination on RAISE, and this program was reported
// as a (phantom) assertion violation: the dummy 0 in g0 unblocked w1's
// assume(g0 != 2). Found by the fuzzer as seed 20041365.
TEST(DiffFuzzTest, CallWritebackRegression) {
  OracleResult R = runOn(R"(
    int g0 = 2;
    int g1 = 0;
    int h0(int a) {
      if (a == 0) { return 2; }
      return a;
    }
    void w0() { g1 = h0(g1); }
    void w1() {
      assume(g0 != 2);
      assert(g1 <= 0);
    }
    void main() {
      async w0();
      async w1();
      g0 = h0(g1);
    }
  )");
  EXPECT_EQ(R.V, OracleVerdict::Agree);
  EXPECT_EQ(R.Kiss, core::KissVerdict::NoErrorFound);
}

// Before the atomicity-release fix KISS had no interleaving point at a
// blocking assume inside an atomic section and missed this two-thread,
// one-switch error (the ground truth releases atomicity when a thread
// blocks, exposing the partial write g1 = 2). Found as seed 4045.
TEST(DiffFuzzTest, AtomicReleaseRegression) {
  OracleResult R = runOn(R"(
    int g0 = 0;
    int g1 = 0;
    void w0() {
      g0 = g1;
      assert(g0 <= 1);
    }
    void main() {
      async w0();
      atomic { g1 = 2; assume(g1 <= 0); }
    }
  )");
  EXPECT_EQ(R.V, OracleVerdict::Agree);
  EXPECT_EQ(R.Kiss, core::KissVerdict::AssertionViolation);
}

// The release instrumentation negates the blocked assume's condition; on
// an already-negated condition it must unwrap the ! instead of stacking a
// second one, or the transformed program leaves the core fragment.
TEST(DiffFuzzTest, AtomicReleaseInstrumentationStaysCore) {
  OracleResult R = runOn(R"(
    bool b = true;
    void w() { skip; }
    void main() {
      async w();
      atomic { b = false; assume(!b); }
    }
  )");
  EXPECT_EQ(R.V, OracleVerdict::Agree);
}

// A thread blocked on an assume inside an atomic section must be able to
// wait there while the pending threads run, then resume; before the
// transform gave it that arm, these three fuzzer findings were missed
// errors at K=2 and K=4 alike. The regress corpus replays them at K=2;
// here both bounds run, the K=4 run through the susp variants' copy of
// the arm.
TEST(DiffFuzzTest, AtomicWaitRegressionsAgreeAtKTwoAndFour) {
  for (const char *Name : {"atomic-wait-flip", "atomic-wait-nondet",
                           "atomic-wait-partial-write"}) {
    std::ifstream In(std::string(KISS_REGRESS_DIR) + "/" + Name + ".kiss");
    ASSERT_TRUE(In) << Name;
    std::ostringstream Text;
    Text << In.rdbuf();
    Repro R;
    std::string Error;
    ASSERT_TRUE(parseRepro(Text.str(), R, Error)) << Name << ": " << Error;
    for (unsigned K : {2u, 4u}) {
      OracleOptions Opts;
      Opts.Kiss.MaxTs = R.MaxTs;
      Opts.Kiss.MaxSwitches = K;
      OracleResult Res = runOracle(R.Source, Opts);
      EXPECT_EQ(Res.V, OracleVerdict::Agree) << Name << " K=" << K;
      EXPECT_EQ(Res.Kiss, core::KissVerdict::AssertionViolation)
          << Name << " K=" << K;
    }
  }
}

TEST(DiffFuzzTest, CountContextSwitchesOnKnownTrace) {
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
  CheckConfig Opts;
  Opts.MaxTs = 2;
  core::KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
  ASSERT_EQ(R.Verdict, core::KissVerdict::AssertionViolation);
  // main arms, w fires, main asserts: two switches, two threads.
  EXPECT_EQ(R.Trace.NumThreads, 2u);
  EXPECT_EQ(countContextSwitches(R.Trace), 2u);
}

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

TEST(DiffFuzzTest, ShrinkerReducesWhilePreservingVerdict) {
  // A generated program plus the sabotaged transform: KISS errs on a safe
  // program. The shrinker must keep that verdict and end small.
  GenOptions G;
  G.Stmts = 6;
  G.Helpers = 2;
  std::string Source = generateProgram(5, G);
  OracleOptions OO;
  OO.Kiss.InjectBreakAsserts = true;
  OracleResult Full = runOracle(Source, OO);
  ASSERT_EQ(Full.V, OracleVerdict::SoundnessBug) << Source;

  ShrinkResult SR = shrink(Source, Full.V, OO, ShrinkOptions());
  EXPECT_EQ(SR.Final.V, OracleVerdict::SoundnessBug);
  EXPECT_LT(SR.Source.size(), Source.size());
  unsigned Lines = 0;
  for (char Ch : SR.Source)
    Lines += Ch == '\n';
  EXPECT_LE(Lines, 20u) << SR.Source;
}

//===----------------------------------------------------------------------===//
// Repro files
//===----------------------------------------------------------------------===//

TEST(DiffFuzzTest, ReproRoundTrips) {
  Repro R;
  R.Seed = 123;
  R.MaxTs = 3;
  R.BreakTransform = true;
  R.Expect = OracleVerdict::SoundnessBug;
  R.Detail = "two\nlines";
  R.Source = "void main() { skip; }\n";
  Repro Back;
  std::string Error;
  ASSERT_TRUE(parseRepro(renderRepro(R), Back, Error)) << Error;
  EXPECT_EQ(Back.Seed, 123u);
  EXPECT_EQ(Back.MaxTs, 3u);
  EXPECT_TRUE(Back.BreakTransform);
  EXPECT_EQ(Back.Expect, OracleVerdict::SoundnessBug);
  EXPECT_EQ(Back.Detail, "two lines"); // Flattened to stay one header line.
  // The program text keeps every line so file locations stay meaningful.
  EXPECT_NE(Back.Source.find("void main"), std::string::npos);
}

TEST(DiffFuzzTest, ReproRejectsMalformedHeaders) {
  Repro R;
  std::string Error;
  EXPECT_FALSE(parseRepro("// kissfuzz-expect: definitely-not-a-verdict\n",
                          R, Error));
  EXPECT_FALSE(parseRepro("// kissfuzz-max-ts: banana\n", R, Error));
  EXPECT_FALSE(parseRepro("// kissfuzz-break-transform: maybe\n", R, Error));
}

TEST(DiffFuzzTest, VerdictNamesRoundTrip) {
  for (auto V : {OracleVerdict::Agree, OracleVerdict::SoundnessBug,
                 OracleVerdict::TraceBug, OracleVerdict::CompletenessBug,
                 OracleVerdict::ExecDivergence, OracleVerdict::Discard,
                 OracleVerdict::Inconclusive}) {
    OracleVerdict Back;
    ASSERT_TRUE(parseOracleVerdict(getOracleVerdictName(V), Back));
    EXPECT_EQ(Back, V);
  }
}

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

TEST(DiffFuzzTest, CampaignIsInvariantAcrossJobs) {
  FuzzOptions Opts;
  Opts.Seed = 11;
  Opts.Cases = 24;
  Opts.Shrink = false;
  Opts.Jobs = 1;
  FuzzSummary A = runCampaign(Opts);
  Opts.Jobs = 4;
  FuzzSummary B = runCampaign(Opts);
  EXPECT_EQ(A.CasesRun, B.CasesRun);
  for (int I = 0; I != 7; ++I)
    EXPECT_EQ(A.Counts[I], B.Counts[I]);
  ASSERT_EQ(A.Findings.size(), B.Findings.size());
  for (size_t I = 0; I != A.Findings.size(); ++I) {
    EXPECT_EQ(A.Findings[I].Seed, B.Findings[I].Seed);
    EXPECT_EQ(A.Findings[I].Source, B.Findings[I].Source);
  }
}

TEST(DiffFuzzTest, CampaignSmokeAtKFour) {
  // The K-generalized oracle: at MaxSwitches = 4 the completeness bound
  // widens to 2R+2 = 4 switches (with the K = 2 fallback for ineligible
  // programs), and soundness must hold unconditionally — a short campaign
  // ends with zero violations of either direction.
  FuzzOptions Opts;
  Opts.Seed = 7;
  Opts.Cases = 40;
  Opts.Shrink = false;
  Opts.Oracle.Kiss.MaxSwitches = 4;
  FuzzSummary Sum = runCampaign(Opts);
  EXPECT_EQ(Sum.CasesRun, 40u);
  EXPECT_EQ(Sum.violations(), 0u) << "K=4 oracle disagreement";
}

TEST(DiffFuzzTest, CampaignFindsAndShrinksInjectedBug) {
  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Cases = 3;
  Opts.VaryGrammar = false;
  Opts.Oracle.Kiss.InjectBreakAsserts = true;
  FuzzSummary Sum = runCampaign(Opts);
  EXPECT_GE(Sum.violations(), 1u);
  ASSERT_FALSE(Sum.Findings.empty());
  for (const Finding &F : Sum.Findings) {
    EXPECT_TRUE(F.BreakTransform);
    unsigned Lines = 0;
    for (char Ch : F.Source)
      Lines += Ch == '\n';
    EXPECT_LE(Lines, 20u) << F.Source;
  }
}

} // namespace
