//===- ExecEngineTest.cpp - interp/threaded golden equality ---------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-engine golden suite: the threaded engine (and the delta
/// store) must be observationally identical to the reference interpreter
/// on every program we ship — same verdict, same message, same distinct
/// state and transition counts — across examples/, the regression repro
/// corpus, and Table-1 driver field checks at K=2 and K=4. The delta
/// store must additionally never use more arena than the flat store.
///
//===----------------------------------------------------------------------===//

#include "drivers/Corpus.h"
#include "drivers/ModelGen.h"
#include "kiss/Kiss.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace kiss;

namespace {

/// Everything observable from one pipeline run, for equality comparison.
struct RunOut {
  bool Compiled = false;
  core::KissVerdict Verdict = core::KissVerdict::NoErrorFound;
  std::string Message;
  uint64_t States = 0;
  uint64_t Transitions = 0;
  uint64_t DedupHits = 0;
  uint64_t FrontierPeak = 0;
  uint64_t DepthMax = 0;
  uint64_t ArenaBytes = 0;
  size_t TraceLen = 0;
  std::vector<rt::ExplorationSample> Series;
  std::vector<rt::LineProfile> Profile;
};

struct RunSpec {
  unsigned MaxTs = 2;
  unsigned MaxSwitches = 2;
  uint64_t MaxStates = 200'000;
  /// Empty = assertion mode; "Struct.field" or "global" = race mode.
  std::string RaceSpec;
};

RunOut runOnce(const std::string &Name, const std::string &Source,
               rt::ExecEngine Exec, rt::StoreMode Store,
               const RunSpec &Spec) {
  CheckConfig Cfg;
  Cfg.MaxTs = Spec.MaxTs;
  Cfg.MaxSwitches = Spec.MaxSwitches;
  Cfg.MaxStates = Spec.MaxStates;
  Cfg.Exec = Exec;
  Cfg.Store = Store;
  // Exercise the full determinism contract: the sampled series and the
  // resolved profile must agree across engines and stores too.
  Cfg.SampleEvery = 64;
  Cfg.Profile = true;
  Session S(Cfg);
  auto P = S.compile(Name, Source);
  RunOut O;
  if (!P)
    return O;
  if (!Spec.RaceSpec.empty()) {
    S.config().M = CheckConfig::Mode::Race;
    std::string Error;
    if (!S.resolveRaceTarget(Spec.RaceSpec, *P, S.config().Race, Error))
      return O;
  }
  core::KissReport R = S.check(*P);
  O.Compiled = true;
  O.Verdict = R.Verdict;
  O.Message = R.Message;
  O.States = R.Sequential.StatesExplored;
  O.Transitions = R.Sequential.TransitionsExplored;
  O.DedupHits = R.Sequential.Exploration.DedupHits;
  O.FrontierPeak = R.Sequential.Exploration.FrontierPeak;
  O.DepthMax = R.Sequential.Exploration.DepthMax;
  O.ArenaBytes = R.Sequential.Exploration.ArenaBytes;
  O.TraceLen = R.Trace.Steps.size();
  O.Series = std::move(R.Sequential.Series);
  O.Profile = std::move(R.Profile);
  return O;
}

/// Byte sizes inside a series depend on the store mode, so equality
/// against the flat reference masks them when the run used a delta store.
void expectSeriesAgree(const std::vector<rt::ExplorationSample> &Got,
                       const std::vector<rt::ExplorationSample> &Ref,
                       bool MaskBytes) {
  ASSERT_EQ(Got.size(), Ref.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    SCOPED_TRACE("series[" + std::to_string(I) + "]");
    EXPECT_EQ(Got[I].States, Ref[I].States);
    EXPECT_EQ(Got[I].Transitions, Ref[I].Transitions);
    EXPECT_EQ(Got[I].DedupHits, Ref[I].DedupHits);
    EXPECT_EQ(Got[I].Frontier, Ref[I].Frontier);
    EXPECT_EQ(Got[I].DepthMax, Ref[I].DepthMax);
    if (!MaskBytes) {
      EXPECT_EQ(Got[I].ArenaBytes, Ref[I].ArenaBytes);
      EXPECT_EQ(Got[I].IndexBytes, Ref[I].IndexBytes);
    }
  }
}

void expectProfilesAgree(const std::vector<rt::LineProfile> &Got,
                         const std::vector<rt::LineProfile> &Ref) {
  ASSERT_EQ(Got.size(), Ref.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    SCOPED_TRACE("profile[" + std::to_string(I) + "]");
    EXPECT_EQ(Got[I].File, Ref[I].File);
    EXPECT_EQ(Got[I].Line, Ref[I].Line);
    EXPECT_EQ(Got[I].States, Ref[I].States);
    EXPECT_EQ(Got[I].Transitions, Ref[I].Transitions);
    EXPECT_EQ(Got[I].DedupHits, Ref[I].DedupHits);
  }
}

/// Runs \p Source under interp/flat (reference), threaded/flat, and
/// threaded/delta, expecting byte-for-byte agreement on everything except
/// arena size — where delta must be no larger than flat.
void expectEnginesAgree(const std::string &Name, const std::string &Source,
                        const RunSpec &Spec) {
  SCOPED_TRACE(Name + " MAX=" + std::to_string(Spec.MaxTs) +
               " K=" + std::to_string(Spec.MaxSwitches));
  RunOut Ref = runOnce(Name, Source, rt::ExecEngine::Interp,
                       rt::StoreMode::Flat, Spec);
  ASSERT_TRUE(Ref.Compiled);
  for (auto [Exec, Store] :
       {std::pair{rt::ExecEngine::Threaded, rt::StoreMode::Flat},
        std::pair{rt::ExecEngine::Threaded, rt::StoreMode::Delta},
        std::pair{rt::ExecEngine::Interp, rt::StoreMode::Delta}}) {
    SCOPED_TRACE(std::string(rt::getExecEngineName(Exec)) + "/" +
                 rt::getStoreModeName(Store));
    RunOut Got = runOnce(Name, Source, Exec, Store, Spec);
    ASSERT_TRUE(Got.Compiled);
    EXPECT_EQ(core::getVerdictName(Got.Verdict),
              std::string(core::getVerdictName(Ref.Verdict)));
    EXPECT_EQ(Got.Message, Ref.Message);
    EXPECT_EQ(Got.States, Ref.States);
    EXPECT_EQ(Got.Transitions, Ref.Transitions);
    EXPECT_EQ(Got.DedupHits, Ref.DedupHits);
    EXPECT_EQ(Got.FrontierPeak, Ref.FrontierPeak);
    EXPECT_EQ(Got.DepthMax, Ref.DepthMax);
    EXPECT_EQ(Got.TraceLen, Ref.TraceLen);
    if (Store == rt::StoreMode::Delta)
      EXPECT_LE(Got.ArenaBytes, Ref.ArenaBytes);
    else
      EXPECT_EQ(Got.ArenaBytes, Ref.ArenaBytes);
    expectSeriesAgree(Got.Series, Ref.Series,
                      /*MaskBytes=*/Store == rt::StoreMode::Delta);
    expectProfilesAgree(Got.Profile, Ref.Profile);
  }
}

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::vector<std::filesystem::path> kissFilesIn(const char *Dir) {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".kiss")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

TEST(ExecEngineTest, ExamplesAgreeAtKTwoAndKFour) {
  auto Files = kissFilesIn(KISS_SAMPLES_DIR);
  ASSERT_FALSE(Files.empty());
  for (const auto &F : Files) {
    std::string Source = readFile(F);
    for (unsigned K : {2u, 4u}) {
      for (unsigned MaxTs : {0u, 2u}) {
        RunSpec Spec;
        Spec.MaxTs = MaxTs;
        Spec.MaxSwitches = K;
        expectEnginesAgree(F.filename().string(), Source, Spec);
      }
    }
  }
}

TEST(ExecEngineTest, RegressionCorpusAgrees) {
  // The shrunk fuzz repros pin historical bugs; the engines must agree on
  // every one of them (headers are comments, so the files compile as-is).
  auto Files = kissFilesIn(KISS_REGRESS_DIR);
  ASSERT_FALSE(Files.empty());
  for (const auto &F : Files) {
    std::string Source = readFile(F);
    for (unsigned K : {2u, 4u}) {
      RunSpec Spec;
      Spec.MaxSwitches = K;
      expectEnginesAgree(F.filename().string(), Source, Spec);
    }
  }
}

TEST(ExecEngineTest, DriverCorpusFieldChecksAgree) {
  // Table-1 driver field checks in race mode (the paper's §6 workflow):
  // a slice of the corpus covering every field behavior, at K=2 and K=4.
  auto Corpus = drivers::getTable1Corpus();
  unsigned Checked = 0;
  for (const auto *Name : {"tracedrv", "toaster/toastmon", "diskperf"}) {
    const drivers::DriverSpec *D = drivers::findDriver(Corpus, Name);
    ASSERT_NE(D, nullptr) << Name;
    for (unsigned I = 0; I != D->Fields.size() && I < 4; ++I) {
      std::string Source = drivers::buildFieldProgram(
          *D, I, drivers::HarnessVersion::V1Unconstrained);
      for (unsigned K : {2u, 4u}) {
        RunSpec Spec;
        Spec.MaxTs = 0; // Race detection runs at MAX=0, as in the paper.
        Spec.MaxSwitches = K;
        Spec.MaxStates = 25'000; // The corpus's per-field budget.
        Spec.RaceSpec = std::string(drivers::getDeviceExtensionName()) +
                        "." + D->Fields[I].Name;
        expectEnginesAgree(std::string(Name) + "." + D->Fields[I].Name,
                           Source, Spec);
        ++Checked;
      }
    }
  }
  EXPECT_GE(Checked, 16u);
}

} // namespace
