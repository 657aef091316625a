//===- DriversTest.cpp ----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "conc/ConcChecker.h"
#include "drivers/Bluetooth.h"
#include "drivers/Corpus.h"
#include "drivers/ModelGen.h"
#include "kiss/Kiss.h"

using namespace kiss;
using namespace kiss::core;
using namespace kiss::drivers;
using namespace kiss::test;

namespace {

/// Budget used for per-field checks (the paper's 20-minute/800MB bound).
constexpr uint64_t FieldStateBudget = 25000;

KissVerdict checkField(const DriverSpec &D, unsigned FieldIdx,
                       HarnessVersion V, unsigned MaxSwitches = 0) {
  auto C = compile(buildFieldProgram(D, FieldIdx, V));
  EXPECT_TRUE(C) << D.Name << " field " << FieldIdx;
  if (!C)
    return KissVerdict::BoundExceeded;
  CheckConfig Opts;
  Opts.MaxTs = 0;
  Opts.MaxStates = FieldStateBudget;
  if (MaxSwitches)
    Opts.MaxSwitches = MaxSwitches;
  RaceTarget T =
      RaceTarget::field(C.Ctx->Syms.intern(getDeviceExtensionName()),
                        C.Ctx->Syms.intern(D.Fields[FieldIdx].Name));
  Opts.M = CheckConfig::Mode::Race;
  Opts.Race = T;
  KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
  return R.Verdict;
}

//===----------------------------------------------------------------------===//
// Corpus structure
//===----------------------------------------------------------------------===//

TEST(CorpusTest, EighteenDriversMatchingTable1Totals) {
  auto Corpus = getTable1Corpus();
  ASSERT_EQ(Corpus.size(), 18u);
  unsigned Fields = 0, RacesV1 = 0, NoRaces = 0, RacesV2 = 0;
  double Kloc = 0;
  for (const DriverSpec &D : Corpus) {
    Fields += D.NumFields;
    RacesV1 += D.RacesV1;
    NoRaces += D.NoRacesV1;
    RacesV2 += D.RacesV2;
    Kloc += D.PaperKloc;
    EXPECT_EQ(D.Fields.size(), D.NumFields) << D.Name;
  }
  EXPECT_EQ(Fields, 481u);
  EXPECT_EQ(RacesV1, 71u);
  EXPECT_EQ(NoRaces, 346u);
  EXPECT_EQ(RacesV2, 30u);
  EXPECT_NEAR(Kloc, 69.6, 0.01);
}

TEST(CorpusTest, FieldBehaviorCountsMatchTableRows) {
  for (const DriverSpec &D : getTable1Corpus()) {
    unsigned Real = 0, Spurious = 0, Prot = 0, Heavy = 0, Lock = 0;
    for (const FieldSpec &F : D.Fields) {
      switch (F.Behavior) {
      case FieldBehavior::RealRace:
        ++Real;
        break;
      case FieldBehavior::SpuriousRace:
        ++Spurious;
        break;
      case FieldBehavior::Protected:
        ++Prot;
        break;
      case FieldBehavior::Heavy:
        ++Heavy;
        break;
      case FieldBehavior::LockField:
        ++Lock;
        break;
      }
    }
    EXPECT_EQ(Real, D.RacesV2) << D.Name;
    EXPECT_EQ(Real + Spurious, D.RacesV1) << D.Name;
    EXPECT_EQ(Prot + Lock, D.NoRacesV1) << D.Name;
    EXPECT_EQ(Heavy, D.numBoundExceeded()) << D.Name;
    EXPECT_EQ(Lock, 1u) << D.Name;
  }
}

TEST(CorpusTest, FieldNamesUniquePerDriver) {
  for (const DriverSpec &D : getTable1Corpus()) {
    std::set<std::string> Names;
    for (const FieldSpec &F : D.Fields)
      EXPECT_TRUE(Names.insert(F.Name).second)
          << D.Name << " duplicates " << F.Name;
  }
}

TEST(CorpusTest, HarnessRulesImplementA1A2A3) {
  using C = IrpCategory;
  // A1: no two Pnp.
  EXPECT_FALSE(mayRunConcurrently(C::PnpOther, C::PnpOther, false));
  // A2: nothing with Pnp start/remove.
  EXPECT_FALSE(mayRunConcurrently(C::PnpStartRemove, C::Read, false));
  EXPECT_FALSE(mayRunConcurrently(C::Ioctl, C::PnpStartRemove, false));
  // A3: same-category power IRPs excluded, different-category allowed.
  EXPECT_FALSE(mayRunConcurrently(C::PowerSystem, C::PowerSystem, false));
  EXPECT_FALSE(mayRunConcurrently(C::PowerDevice, C::PowerDevice, false));
  EXPECT_TRUE(mayRunConcurrently(C::PowerSystem, C::PowerDevice, false));
  // Filter rule only when flagged.
  EXPECT_TRUE(mayRunConcurrently(C::Ioctl, C::Ioctl, false));
  EXPECT_FALSE(mayRunConcurrently(C::Ioctl, C::Ioctl, true));
  // Normal request pairs are concurrent.
  EXPECT_TRUE(mayRunConcurrently(C::Ioctl, C::Read, false));
  EXPECT_TRUE(mayRunConcurrently(C::Read, C::Write, false));
}

TEST(CorpusTest, GeneratedProgramsCompile) {
  auto Corpus = getTable1Corpus();
  // One field of each behavior across the corpus, both harnesses.
  for (const DriverSpec *D :
       {findDriver(Corpus, "tracedrv"), findDriver(Corpus, "imca"),
        findDriver(Corpus, "mou.ltr")}) {
    ASSERT_NE(D, nullptr);
    for (unsigned I = 0; I != D->Fields.size(); ++I) {
      for (HarnessVersion V :
           {HarnessVersion::V1Unconstrained, HarnessVersion::V2Refined}) {
        auto C = compile(buildFieldProgram(*D, I, V));
        EXPECT_TRUE(C) << D->Name << " field " << I;
      }
    }
  }
}

TEST(CorpusTest, FullDriverModelsCompile) {
  auto Corpus = getTable1Corpus();
  for (const char *Name : {"tracedrv", "toaster/toastmon", "fdc"}) {
    const DriverSpec *D = findDriver(Corpus, Name);
    ASSERT_NE(D, nullptr);
    for (HarnessVersion V :
         {HarnessVersion::V1Unconstrained, HarnessVersion::V2Refined}) {
      auto C = compile(buildFullProgram(*D, V));
      EXPECT_TRUE(C) << Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Per-field verdicts (sampled; the full 481-field sweep runs in the bench)
//===----------------------------------------------------------------------===//

TEST(DriverFieldTest, LockFieldIsRaceFree) {
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = findDriver(Corpus, "tracedrv");
  EXPECT_EQ(checkField(*D, 0, HarnessVersion::V1Unconstrained),
            KissVerdict::NoErrorFound);
}

TEST(DriverFieldTest, RealRaceFoundUnderBothHarnesses) {
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = findDriver(Corpus, "toaster/toastmon");
  ASSERT_EQ(D->Fields[1].Behavior, FieldBehavior::RealRace);
  EXPECT_EQ(D->Fields[1].Name, "DevicePnPState");
  EXPECT_EQ(checkField(*D, 1, HarnessVersion::V1Unconstrained),
            KissVerdict::RaceDetected);
  EXPECT_EQ(checkField(*D, 1, HarnessVersion::V2Refined),
            KissVerdict::RaceDetected);
}

TEST(DriverFieldTest, TableOneVerdictsUnchangedAtExplicitKTwo) {
  // Table-1 verdicts are a K = 2 artifact of the paper; the MaxSwitches
  // generalization must reproduce them exactly when K = 2 is requested.
  auto Corpus = getTable1Corpus();
  const DriverSpec *Racy = findDriver(Corpus, "toaster/toastmon");
  EXPECT_EQ(checkField(*Racy, 1, HarnessVersion::V1Unconstrained,
                       /*MaxSwitches=*/2),
            KissVerdict::RaceDetected);
  const DriverSpec *Clean = findDriver(Corpus, "tracedrv");
  EXPECT_EQ(checkField(*Clean, 0, HarnessVersion::V1Unconstrained,
                       /*MaxSwitches=*/2),
            KissVerdict::NoErrorFound);
}

TEST(DriverFieldTest, SpuriousRaceVanishesUnderRefinedHarness) {
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = findDriver(Corpus, "diskperf");
  // diskperf: 2 v1 races, 0 confirmed — both spurious.
  unsigned SpuriousIdx = ~0u;
  for (unsigned I = 0; I != D->Fields.size(); ++I)
    if (D->Fields[I].Behavior == FieldBehavior::SpuriousRace) {
      SpuriousIdx = I;
      break;
    }
  ASSERT_NE(SpuriousIdx, ~0u);
  EXPECT_EQ(checkField(*D, SpuriousIdx, HarnessVersion::V1Unconstrained),
            KissVerdict::RaceDetected);
  EXPECT_EQ(checkField(*D, SpuriousIdx, HarnessVersion::V2Refined),
            KissVerdict::NoErrorFound);
}

TEST(DriverFieldTest, FilterDriverIoctlRacesAreSpurious) {
  auto Corpus = getTable1Corpus();
  // The paper: all kb.ltr/mou.ltr races involved two concurrent Ioctls,
  // which the driver stack rules out.
  const DriverSpec *D = findDriver(Corpus, "mou.ltr");
  unsigned Idx = ~0u;
  for (unsigned I = 0; I != D->Fields.size(); ++I)
    if (D->Fields[I].Behavior == FieldBehavior::SpuriousRace) {
      Idx = I;
      break;
    }
  ASSERT_NE(Idx, ~0u);
  EXPECT_EQ(D->Fields[Idx].CatA, IrpCategory::Ioctl);
  EXPECT_EQ(D->Fields[Idx].CatB, IrpCategory::Ioctl);
  EXPECT_EQ(checkField(*D, Idx, HarnessVersion::V1Unconstrained),
            KissVerdict::RaceDetected);
  EXPECT_EQ(checkField(*D, Idx, HarnessVersion::V2Refined),
            KissVerdict::NoErrorFound);
}

TEST(DriverFieldTest, ProtectedFieldProvedRaceFree) {
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = findDriver(Corpus, "startio");
  unsigned Idx = ~0u;
  for (unsigned I = 0; I != D->Fields.size(); ++I)
    if (D->Fields[I].Behavior == FieldBehavior::Protected) {
      Idx = I;
      break;
    }
  ASSERT_NE(Idx, ~0u);
  EXPECT_EQ(checkField(*D, Idx, HarnessVersion::V1Unconstrained),
            KissVerdict::NoErrorFound);
}

TEST(DriverFieldTest, HeavyFieldExceedsResourceBound) {
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = findDriver(Corpus, "fakemodem");
  unsigned Idx = ~0u;
  for (unsigned I = 0; I != D->Fields.size(); ++I)
    if (D->Fields[I].Behavior == FieldBehavior::Heavy) {
      Idx = I;
      break;
    }
  ASSERT_NE(Idx, ~0u);
  EXPECT_EQ(checkField(*D, Idx, HarnessVersion::V1Unconstrained),
            KissVerdict::BoundExceeded);
}

TEST(DriverFieldTest, WholeSmallDriverMatchesItsTableRow) {
  // tracedrv: 3 fields, 0 races, 3 no-races — check every field under v1.
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = findDriver(Corpus, "tracedrv");
  unsigned Races = 0, NoRaces = 0, Bound = 0;
  for (unsigned I = 0; I != D->Fields.size(); ++I) {
    switch (checkField(*D, I, HarnessVersion::V1Unconstrained)) {
    case KissVerdict::RaceDetected:
      ++Races;
      break;
    case KissVerdict::NoErrorFound:
      ++NoRaces;
      break;
    case KissVerdict::BoundExceeded:
      ++Bound;
      break;
    default:
      FAIL() << "unexpected verdict";
    }
  }
  EXPECT_EQ(Races, D->RacesV1);
  EXPECT_EQ(NoRaces, D->NoRacesV1);
  EXPECT_EQ(Bound, D->numBoundExceeded());
}

//===----------------------------------------------------------------------===//
// Bluetooth / fakemodem case studies (§2, §6)
//===----------------------------------------------------------------------===//

TEST(BluetoothTest, BuggyModelFailsFixedModelPasses) {
  // The buggy model: assertion violation at MAX=1 (validated in detail in
  // KissTest); the fixed model is clean at MAX 0..2.
  auto Buggy = compile(getBluetoothSource());
  ASSERT_TRUE(Buggy);
  CheckConfig Opts;
  Opts.MaxTs = 1;
  EXPECT_EQ(core::check(*Buggy.Program, Opts, Buggy.Ctx->Diags).Verdict,
            KissVerdict::AssertionViolation);

  auto Fixed = compile(getFixedBluetoothSource());
  ASSERT_TRUE(Fixed);
  for (unsigned MaxTs : {0u, 1u, 2u}) {
    CheckConfig O;
    O.MaxTs = MaxTs;
    EXPECT_EQ(core::check(*Fixed.Program, O, Fixed.Ctx->Diags).Verdict,
              KissVerdict::NoErrorFound)
        << "MaxTs=" << MaxTs;
  }
}

TEST(BluetoothTest, FixedModelSafeUnderFullInterleaving) {
  // Stronger than the paper could claim: the concurrent model checker
  // proves the fixed model safe over all interleavings.
  auto Fixed = compile(getFixedBluetoothSource());
  ASSERT_TRUE(Fixed);
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*Fixed.Program);
  rt::CheckResult R = conc::checkProgram(*Fixed.Program, CFG);
  EXPECT_EQ(R.Outcome, rt::CheckOutcome::Safe) << R.Message;
}

TEST(BluetoothTest, FakemodemRefcountIsClean) {
  // §6: "KISS did not report any errors in the fakemodem driver."
  auto C = compile(getFakemodemRefcountSource());
  ASSERT_TRUE(C);
  for (unsigned MaxTs : {0u, 1u}) {
    CheckConfig O;
    O.MaxTs = MaxTs;
    EXPECT_EQ(core::check(*C.Program, O, C.Ctx->Diags).Verdict,
              KissVerdict::NoErrorFound)
        << "MaxTs=" << MaxTs;
  }
}

} // namespace
