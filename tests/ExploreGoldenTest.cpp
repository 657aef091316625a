//===- ExploreGoldenTest.cpp - Absolute goldens for the BFS shell ---------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what the exploration shell reports, in absolute terms, for every
/// shipped example and the Bluetooth model: verdict, message, error
/// location and raw trace, state and transition counts, every
/// ExplorationStats field, the sampled series (SampleEvery = 64, WallMs
/// left out) and the resolved profile. The sequential runs go through the
/// Session pipeline and must match under both execution engines; the
/// concurrent checker runs unbounded and at K = 2. Bound exits (a state
/// budget trip and an injected governor trip) are pinned per engine.
///
/// The same goldens pin history independence: run after a heavy corpus
/// field, forward and in reverse in one process, every result is still
/// byte-identical, and checks running at the same time give what they
/// give one after another. A last case pins what the workspace pool
/// behind that reuse keeps: a corpus-sized workspace, but none over its
/// 64 MiB cap.
///
/// ExecEngineTest only compares the engines with each other, so a mistake
/// shared by both would pass it; these goldens catch that. They live in
/// tests/golden/explore_shell.txt. On a mismatch the full rendering of
/// every run is written to explore_shell.<group>.actual.txt in the working
/// directory, which is what the golden file is re-recorded from.
///
//===----------------------------------------------------------------------===//

#include "conc/ConcChecker.h"
#include "drivers/Bluetooth.h"
#include "drivers/Corpus.h"
#include "drivers/ModelGen.h"
#include "kiss/Kiss.h"
#include "lower/Pipeline.h"
#include "seqcheck/Explorer.h"
#include "support/Parallel.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

using namespace kiss;

namespace {

constexpr uint64_t SampleEvery = 64;

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// (name, source) for every examples/programs/*.kiss, sorted, then the
/// Figure-2 Bluetooth model.
std::vector<std::pair<std::string, std::string>> programs() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const auto &E : std::filesystem::directory_iterator(KISS_SAMPLES_DIR))
    if (E.path().extension() == ".kiss")
      Out.emplace_back(E.path().filename().string(), readFile(E.path()));
  std::sort(Out.begin(), Out.end());
  Out.emplace_back("bluetooth.kiss", drivers::getBluetoothSource());
  return Out;
}

/// Renders one exploration result in the golden's text format.
std::string render(const rt::CheckResult &R,
                   const std::vector<rt::LineProfile> &Profile,
                   const SourceManager &SM) {
  std::ostringstream OS;
  OS << "outcome: " << rt::getOutcomeName(R.Outcome)
     << " bound: " << gov::getBoundReasonName(R.Bound) << "\n";
  OS << "message: " << R.Message << "\n";
  PresumedLoc L = SM.getPresumedLoc(R.ErrorLoc);
  if (L.isValid())
    OS << "loc: " << L.BufferName << ":" << L.Line << ":" << L.Column
       << "\n";
  OS << "states: " << R.StatesExplored
     << " transitions: " << R.TransitionsExplored << "\n";
  const rt::ExplorationStats &X = R.Exploration;
  OS << "stats: dedup=" << X.DedupHits << " probes=" << X.HashProbes
     << " verifies=" << X.KeyVerifies << " collisions=" << X.HashCollisions
     << " arena=" << X.ArenaBytes << " index=" << X.IndexBytes
     << " frontier=" << X.FrontierPeak << " depth=" << X.DepthMax << "\n";
  if (!R.Trace.empty()) {
    OS << "trace:";
    for (const rt::TraceStep &S : R.Trace)
      OS << " " << S.Thread << "/" << S.Func << "/" << S.Node;
    OS << "\n";
  }
  OS << "series (states transitions dedup frontier arena index depth):\n";
  for (const rt::ExplorationSample &S : R.Series)
    OS << "  " << S.States << " " << S.Transitions << " " << S.DedupHits
       << " " << S.Frontier << " " << S.ArenaBytes << " " << S.IndexBytes
       << " " << S.DepthMax << "\n";
  OS << "profile (line states transitions dedup):\n";
  for (const rt::LineProfile &P : Profile)
    OS << "  " << P.File << ":" << P.Line << " " << P.States << " "
       << P.Transitions << " " << P.DedupHits << "\n";
  return OS.str();
}

/// Compiles and checks one program in \p S (in race mode when \p RaceSpec
/// names a target). \returns false, with \p Error set, if the program
/// does not compile or the target does not resolve.
bool checkSeq(Session &S, const std::string &Name, const std::string &Source,
              const std::string &RaceSpec, core::KissReport &R,
              std::string &Error) {
  auto P = S.compile(Name, Source);
  if (!P) {
    Error = "compile error: " + S.diagnostics();
    return false;
  }
  if (!RaceSpec.empty()) {
    S.config().M = CheckConfig::Mode::Race;
    if (!S.resolveRaceTarget(RaceSpec, *P, S.config().Race, Error)) {
      Error = "bad race target: " + Error;
      return false;
    }
  }
  R = S.check(*P);
  return true;
}

/// One sequential run through the Session pipeline.
std::string runSeq(const std::string &Name, const std::string &Source,
                   CheckConfig Cfg, const std::string &RaceSpec = "") {
  Cfg.SampleEvery = SampleEvery;
  Cfg.Profile = true;
  Session S(Cfg);
  core::KissReport R;
  std::string Error;
  if (!checkSeq(S, Name, Source, RaceSpec, R, Error))
    return Error;
  return std::string("verdict: ") + core::getVerdictName(R.Verdict) + "\n" +
         render(R.Sequential, R.Profile, S.context().SM);
}

/// One run of the concurrent checker on the untransformed program.
std::string runConc(const std::string &Name, const std::string &Source,
                    conc::ConcOptions CO) {
  lower::CompilerContext Ctx;
  auto P = lower::compileToCore(Ctx, Name, Source);
  if (!P)
    return "compile error: " + Ctx.renderDiagnostics();
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*P);
  CO.SampleEvery = SampleEvery;
  CO.Profile = true;
  rt::CheckResult R = conc::checkProgram(*P, CFG, CO);
  return render(R, rt::resolveProfile(R.Profile, CFG, &Ctx.SM), Ctx.SM);
}

/// The golden file, split into its "== name" blocks.
class Goldens {
public:
  Goldens() {
    std::istringstream In(readFile(KISS_EXPLORE_GOLDEN));
    std::string Line, Name;
    while (std::getline(In, Line)) {
      if (Line.rfind("== ", 0) == 0) {
        Name = Line.substr(3);
        Blocks[Name];
        continue;
      }
      Blocks[Name] += Line + "\n";
    }
  }

  /// Compares \p Got with the block \p Name and records it for the
  /// re-recording dump.
  void expect(const std::string &Name, const std::string &Got) {
    SCOPED_TRACE(Name);
    auto It = Blocks.find(Name);
    if (It == Blocks.end())
      ADD_FAILURE() << "no golden block '" << Name << "'";
    else
      EXPECT_EQ(Got, It->second);
    if (Actual.emplace(Name, Got).second)
      Order.push_back(Name);
  }

  /// Writes every rendering seen so far, in golden-file format, if any
  /// comparison failed.
  void dumpOnFailure(const std::string &File) const {
    if (!::testing::Test::HasFailure())
      return;
    std::ofstream Out(File);
    for (const std::string &Name : Order)
      Out << "== " << Name << "\n" << Actual.at(Name);
  }

private:
  std::map<std::string, std::string> Blocks;
  std::map<std::string, std::string> Actual;
  std::vector<std::string> Order;
};

const rt::ExecEngine SeqEngines[] = {rt::ExecEngine::Interp,
                                     rt::ExecEngine::Threaded};

/// One golden run: the block it must match, the engine it ran under (for
/// failure messages) and the run itself.
struct GoldenCase {
  std::string Name;
  std::string Engine;
  std::function<std::string()> Run;
};

std::vector<GoldenCase> seqCases() {
  std::vector<GoldenCase> Out;
  for (const auto &[Name, Source] : programs()) {
    for (rt::ExecEngine E : SeqEngines) {
      CheckConfig Cfg;
      Cfg.MaxTs = 2;
      Cfg.Exec = E;
      Out.push_back({Name + " seq MAX=2", rt::getExecEngineName(E),
                     [Name, Source, Cfg] { return runSeq(Name, Source, Cfg); }});
    }
  }
  // The paper's race workflow on the Figure-2 model (§2.2).
  for (rt::ExecEngine E : SeqEngines) {
    CheckConfig Cfg;
    Cfg.Exec = E;
    Out.push_back({"bluetooth.kiss seq race stoppingFlag MAX=0",
                   rt::getExecEngineName(E), [Cfg] {
                     return runSeq("bluetooth.kiss",
                                   drivers::getBluetoothSource(), Cfg,
                                   "DEVICE_EXTENSION.stoppingFlag");
                   }});
  }
  return Out;
}

std::vector<GoldenCase> concCases() {
  std::vector<GoldenCase> Out;
  for (const auto &[Name, Source] : programs()) {
    conc::ConcOptions CO;
    Out.push_back({Name + " conc", "conc",
                   [Name, Source, CO] { return runConc(Name, Source, CO); }});
    CO.ContextSwitchBound = 2;
    Out.push_back({Name + " conc K=2", "conc",
                   [Name, Source, CO] { return runConc(Name, Source, CO); }});
  }
  return Out;
}

std::vector<GoldenCase> boundCases() {
  const std::string Name = "bank_fixed.kiss";
  const std::string Source =
      readFile(std::filesystem::path(KISS_SAMPLES_DIR) / Name);

  gov::RunBudget Trip;
  Trip.TripAtTick = 5;
  Trip.TripReason = gov::BoundReason::Memory;

  std::vector<GoldenCase> Out;
  for (rt::ExecEngine E : SeqEngines) {
    CheckConfig Cfg;
    Cfg.MaxTs = 2;
    Cfg.Exec = E;
    Cfg.MaxStates = 100;
    Out.push_back({"bound seq max_states=100", rt::getExecEngineName(E),
                   [Name, Source, Cfg] { return runSeq(Name, Source, Cfg); }});
    Cfg.MaxStates = 1'000'000;
    Cfg.Common.Budget = Trip;
    Out.push_back({"bound seq trip=5:memory", rt::getExecEngineName(E),
                   [Name, Source, Cfg] { return runSeq(Name, Source, Cfg); }});
  }

  conc::ConcOptions CO;
  CO.MaxStates = 100;
  Out.push_back({"bound conc max_states=100", "conc",
                 [Name, Source, CO] { return runConc(Name, Source, CO); }});
  CO.MaxStates = 1'000'000;
  CO.Budget = Trip;
  Out.push_back({"bound conc trip=5:memory", "conc",
                 [Name, Source, CO] { return runConc(Name, Source, CO); }});
  return Out;
}

/// Runs every case and compares it with its golden block.
void expectCases(Goldens &G, const std::vector<GoldenCase> &Cases) {
  for (const GoldenCase &C : Cases) {
    SCOPED_TRACE(C.Engine);
    G.expect(C.Name, C.Run());
  }
}

/// The first heavy Table-1 field (fakemodem), raced at MAX = 0. Its
/// states encode to ~0.7 KB each and there are more of them than any
/// budget used here, so every run ends on the state budget.
struct HeavyField {
  std::string Name = "fakemodem.kiss";
  std::string Source;
  std::string RaceSpec;
};

HeavyField heavyField() {
  auto Corpus = drivers::getTable1Corpus();
  const drivers::DriverSpec *D = drivers::findDriver(Corpus, "fakemodem");
  unsigned Idx = 0;
  while (D->Fields[Idx].Behavior != drivers::FieldBehavior::Heavy)
    ++Idx;
  HeavyField H;
  H.Source = drivers::buildFieldProgram(
      *D, Idx, drivers::HarnessVersion::V1Unconstrained);
  H.RaceSpec = std::string(drivers::getDeviceExtensionName()) + "." +
               D->Fields[Idx].Name;
  return H;
}

/// The heavy field at the corpus's 25,000-state budget under \p E.
std::string runHeavyField(rt::ExecEngine E) {
  CheckConfig Cfg;
  Cfg.MaxTs = 0;
  Cfg.MaxStates = 25'000;
  Cfg.Exec = E;
  const HeavyField H = heavyField();
  return runSeq(H.Name, H.Source, Cfg, H.RaceSpec);
}

TEST(ExploreGoldenTest, SeqMatchesGoldenUnderBothEngines) {
  Goldens G;
  expectCases(G, seqCases());
  G.dumpOnFailure("explore_shell.seq.actual.txt");
}

TEST(ExploreGoldenTest, ConcMatchesGoldenUnboundedAndAtKTwo) {
  Goldens G;
  expectCases(G, concCases());
  G.dumpOnFailure("explore_shell.conc.actual.txt");
}

TEST(ExploreGoldenTest, BoundExitsMatchGolden) {
  Goldens G;
  expectCases(G, boundCases());
  G.dumpOnFailure("explore_shell.bound.actual.txt");
}

/// A check's result must not depend on what ran before it in the same
/// process: after a heavy field has grown the largest visited set, the
/// whole golden set run forward and then in reverse still matches byte
/// for byte, and so does the heavy field itself when run again last.
TEST(ExploreGoldenTest, ResultsDoNotDependOnEarlierChecks) {
  Goldens G;
  const std::string Heavy = runHeavyField(rt::ExecEngine::Threaded);
  ASSERT_NE(Heavy.find("outcome: bound exceeded bound: states"),
            std::string::npos)
      << Heavy.substr(0, 300);

  std::vector<GoldenCase> All = seqCases();
  for (std::vector<GoldenCase> More : {concCases(), boundCases()})
    All.insert(All.end(), More.begin(), More.end());
  expectCases(G, All);
  std::reverse(All.begin(), All.end());
  expectCases(G, All);

  EXPECT_EQ(runHeavyField(rt::ExecEngine::Threaded), Heavy);
  G.dumpOnFailure("explore_shell.history.actual.txt");
}

/// Checks that run at the same time in one process give the results they
/// give one after another.
TEST(ExploreGoldenTest, ConcurrentChecksMatchSerialRun) {
  const std::vector<std::function<std::string()>> Checks = {
      [] { return runHeavyField(rt::ExecEngine::Threaded); },
      [] { return runHeavyField(rt::ExecEngine::Interp); },
      seqCases().front().Run,
      concCases().back().Run,
  };
  std::vector<std::string> Serial, Parallel(Checks.size());
  for (const auto &Run : Checks)
    Serial.push_back(Run());
  parallelFor(Checks.size(), /*Jobs=*/4,
              [&](size_t I) { Parallel[I] = Checks[I](); });
  for (size_t I = 0; I != Checks.size(); ++I)
    EXPECT_EQ(Parallel[I], Serial[I]) << "check " << I;
}

/// The sequential exploration of the heavy field under a \p MaxStates
/// budget.
rt::CheckResult checkHeavyField(uint64_t MaxStates) {
  CheckConfig Cfg;
  Cfg.MaxTs = 0;
  Cfg.MaxStates = MaxStates;
  Session S(Cfg);
  const HeavyField H = heavyField();
  core::KissReport R;
  std::string Error;
  EXPECT_TRUE(checkSeq(S, H.Name, H.Source, H.RaceSpec, R, Error)) << Error;
  return R.Sequential;
}

TEST(ExploreWorkspaceTest, PoolKeepsWorkspacesUpToTheCap) {
  // Take every idle workspace out of the pool (earlier tests in this
  // process may have left some), so the next check builds a new one.
  lower::CompilerContext Ctx;
  auto P = lower::compileToCore(Ctx, "trivial.kiss",
                                "void main() { assert(true); }");
  ASSERT_TRUE(P);
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*P);
  rt::ExploreOptions Opts;
  std::vector<std::unique_ptr<rt::Explorer>> Held;
  while (rt::Explorer::pooledBytes() != 0)
    Held.push_back(std::make_unique<rt::Explorer>(*P, CFG, Opts));

  // Past 32 MiB of arena the arena's own capacity is 64 MiB, so the
  // workspace is over the cap: it is freed, not pooled. The heavy field's
  // keys are ~317 B, so that takes about 106,000 states.
  rt::CheckResult Big = checkHeavyField(120'000);
  ASSERT_EQ(Big.Outcome, rt::CheckOutcome::BoundExceeded);
  ASSERT_GT(Big.Exploration.ArenaBytes, size_t(32) << 20);
  EXPECT_EQ(rt::Explorer::pooledBytes(), 0u);

  // A corpus-sized check (25,000 states) is kept for the next one.
  rt::CheckResult Corpus = checkHeavyField(25'000);
  ASSERT_EQ(Corpus.Outcome, rt::CheckOutcome::BoundExceeded);
  EXPECT_GT(rt::Explorer::pooledBytes(), Corpus.Exploration.ArenaBytes);
  EXPECT_LE(rt::Explorer::pooledBytes(), rt::Explorer::MaxPooledBytes);
}

} // namespace
