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
/// ExecEngineTest only compares the engines with each other, so a mistake
/// shared by both would pass it; these goldens catch that. They live in
/// tests/golden/explore_shell.txt. On a mismatch the full rendering of
/// every run is written to explore_shell.actual.txt in the working
/// directory, which is what the golden file is re-recorded from.
///
//===----------------------------------------------------------------------===//

#include "conc/ConcChecker.h"
#include "drivers/Bluetooth.h"
#include "kiss/Kiss.h"
#include "lower/Pipeline.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
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

/// One sequential run through the Session pipeline.
std::string runSeq(const std::string &Name, const std::string &Source,
                   CheckConfig Cfg, const std::string &RaceSpec = "") {
  Cfg.SampleEvery = SampleEvery;
  Cfg.Profile = true;
  Session S(Cfg);
  auto P = S.compile(Name, Source);
  if (!P)
    return "compile error: " + S.diagnostics();
  if (!RaceSpec.empty()) {
    S.config().M = CheckConfig::Mode::Race;
    std::string Error;
    if (!S.resolveRaceTarget(RaceSpec, *P, S.config().Race, Error))
      return "bad race target: " + Error;
  }
  core::KissReport R = S.check(*P);
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

TEST(ExploreGoldenTest, SeqMatchesGoldenUnderBothEngines) {
  Goldens G;
  for (const auto &[Name, Source] : programs()) {
    for (rt::ExecEngine E : SeqEngines) {
      SCOPED_TRACE(rt::getExecEngineName(E));
      CheckConfig Cfg;
      Cfg.MaxTs = 2;
      Cfg.Exec = E;
      G.expect(Name + " seq MAX=2", runSeq(Name, Source, Cfg));
    }
  }
  // The paper's race workflow on the Figure-2 model (§2.2).
  for (rt::ExecEngine E : SeqEngines) {
    SCOPED_TRACE(rt::getExecEngineName(E));
    CheckConfig Cfg;
    Cfg.Exec = E;
    G.expect("bluetooth.kiss seq race stoppingFlag MAX=0",
             runSeq("bluetooth.kiss", drivers::getBluetoothSource(), Cfg,
                    "DEVICE_EXTENSION.stoppingFlag"));
  }
  G.dumpOnFailure("explore_shell.seq.actual.txt");
}

TEST(ExploreGoldenTest, ConcMatchesGoldenUnboundedAndAtKTwo) {
  Goldens G;
  for (const auto &[Name, Source] : programs()) {
    conc::ConcOptions CO;
    G.expect(Name + " conc", runConc(Name, Source, CO));
    CO.ContextSwitchBound = 2;
    G.expect(Name + " conc K=2", runConc(Name, Source, CO));
  }
  G.dumpOnFailure("explore_shell.conc.actual.txt");
}

TEST(ExploreGoldenTest, BoundExitsMatchGolden) {
  Goldens G;
  const std::string Name = "bank_fixed.kiss";
  const std::string Source =
      readFile(std::filesystem::path(KISS_SAMPLES_DIR) / Name);

  gov::RunBudget Trip;
  Trip.TripAtTick = 5;
  Trip.TripReason = gov::BoundReason::Memory;

  for (rt::ExecEngine E : SeqEngines) {
    SCOPED_TRACE(rt::getExecEngineName(E));
    CheckConfig Cfg;
    Cfg.MaxTs = 2;
    Cfg.Exec = E;
    Cfg.MaxStates = 100;
    G.expect("bound seq max_states=100", runSeq(Name, Source, Cfg));
    Cfg.MaxStates = 1'000'000;
    Cfg.Common.Budget = Trip;
    G.expect("bound seq trip=5:memory", runSeq(Name, Source, Cfg));
  }

  conc::ConcOptions CO;
  CO.MaxStates = 100;
  G.expect("bound conc max_states=100", runConc(Name, Source, CO));
  CO.MaxStates = 1'000'000;
  CO.Budget = Trip;
  G.expect("bound conc trip=5:memory", runConc(Name, Source, CO));
  G.dumpOnFailure("explore_shell.bound.actual.txt");
}

} // namespace
