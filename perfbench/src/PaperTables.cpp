//===- PaperTables.cpp - Workload paper_tables ----------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's own evaluation as a batch: one pass is Table 1 (V1 harness,
/// all 481 device-extension fields) then Table 2 (V2 harness, the fields
/// V1 found racy), MAX = 0 and the 25,000-state field budget, through
/// drivers::runDriver with one job, one call per field so that each field
/// is timed on the benchmark's clock. Op = one field check. The known
/// answer of a field is its FieldBehavior, and every driver row (the sum
/// of its fields' calls) must equal the paper's.
///
//===----------------------------------------------------------------------===//

#include "Compose.h"
#include "Workloads.h"

#include "drivers/CorpusRunner.h"
#include "fuzz/Generator.h"

#include <algorithm>

using namespace kiss;
using namespace kiss::drivers;
using namespace kb;

namespace {

constexpr uint64_t FieldBudget = 25000;
/// Fields checked, untimed, by every set-up: non-heavy and heavy ones.
constexpr unsigned WarmupFields = 96;
constexpr unsigned WarmupHeavy = 4;

CorpusRunOptions fieldOptions(HarnessVersion V) {
  CorpusRunOptions Opts;
  Opts.Harness = V;
  Opts.FieldStateBudget = FieldBudget;
  Opts.Common.Jobs = 1;
  return Opts;
}

core::KissVerdict expectedVerdict(FieldBehavior B, HarnessVersion V) {
  switch (B) {
  case FieldBehavior::RealRace:
    return core::KissVerdict::RaceDetected;
  case FieldBehavior::SpuriousRace:
    return V == HarnessVersion::V1Unconstrained
               ? core::KissVerdict::RaceDetected
               : core::KissVerdict::NoErrorFound;
  case FieldBehavior::Heavy:
    return core::KissVerdict::BoundExceeded;
  case FieldBehavior::Protected:
  case FieldBehavior::LockField:
    break;
  }
  return core::KissVerdict::NoErrorFound;
}

/// One driver's share of a pass: which harness, which fields.
struct DriverRun {
  const DriverSpec *D = nullptr;
  HarnessVersion V = HarnessVersion::V1Unconstrained;
  std::vector<unsigned> Fields; ///< Empty = all.
};

/// Checks one runDriver result against the paper: the row and every
/// field's verdict. \returns the number of fields checked.
size_t checkDriver(const DriverRun &Run, const DriverResult &Res,
                   RunResult &R) {
  const DriverSpec &D = *Run.D;
  bool V1 = Run.V == HarnessVersion::V1Unconstrained;
  const char *Table = V1 ? "Table 1" : "Table 2";
  if (V1 ? (Res.Races != D.RacesV1 || Res.NoRaces != D.NoRacesV1 ||
            Res.BoundExceeded != D.numBoundExceeded())
         : Res.Races != D.RacesV2) {
    R.Correct = false;
    if (R.Errors.size() < 10)
      R.Errors.push_back(std::string(Table) + " row of " + D.Name +
                         " differs from the paper");
  }
  for (const FieldResult &FR : Res.Fields) {
    const FieldSpec &F = D.Fields[FR.FieldIndex];
    ++R.Attempted;
    bool Ok = FR.Verdict == expectedVerdict(F.Behavior, Run.V) &&
              (FR.Verdict != core::KissVerdict::BoundExceeded ||
               FR.Bound == gov::BoundReason::States);
    if (!Ok)
      R.wrong(std::string(Table) + " " + D.Name + "." + F.Name + ": " +
              core::getVerdictName(FR.Verdict));
  }
  return Res.Fields.size();
}

/// The Table-1 runs of a pass, drivers in a seeded order.
std::vector<DriverRun> table1Runs(const std::vector<DriverSpec> &Corpus,
                                  uint64_t Seed) {
  std::vector<DriverRun> Runs;
  for (const DriverSpec &D : Corpus)
    Runs.push_back({&D, HarnessVersion::V1Unconstrained, {}});
  fuzz::Rng Rng(Seed);
  for (size_t I = Runs.size(); I > 1; --I)
    std::swap(Runs[I - 1], Runs[Rng.next(static_cast<uint32_t>(I))]);
  return Runs;
}

/// Runs each field of \p Run through its own runDriver call, timed on the
/// benchmark's clock, and \returns the calls' results as one driver row.
DriverResult runFields(const DriverRun &Run, std::vector<double> *LatencyMs) {
  std::vector<unsigned> Fields = Run.Fields;
  if (Fields.empty())
    for (unsigned I = 0; I != Run.D->Fields.size(); ++I)
      Fields.push_back(I);
  CorpusRunOptions Opts = fieldOptions(Run.V);
  DriverResult Row;
  Row.Driver = Run.D;
  for (unsigned F : Fields) {
    Opts.OnlyFields = {F};
    auto T0 = Clock::now();
    DriverResult One = runDriver(*Run.D, Opts);
    if (LatencyMs)
      LatencyMs->push_back(msSince(T0));
    Row.Races += One.Races;
    Row.NoRaces += One.NoRaces;
    Row.BoundExceeded += One.BoundExceeded;
    Row.Fields.push_back(One.Fields.front());
  }
  return Row;
}

/// Set-up: build the corpus and check the fixed warm-up slice, the first
/// WarmupFields non-heavy V1 fields and the first WarmupHeavy heavy ones.
std::vector<DriverSpec> setUp(double &Seconds) {
  auto Start = Clock::now();
  std::vector<DriverSpec> Corpus = getTable1Corpus();
  unsigned Light = WarmupFields, Heavy = WarmupHeavy;
  for (const DriverSpec &D : Corpus) {
    DriverRun Run{&D, HarnessVersion::V1Unconstrained, {}};
    for (unsigned I = 0; I != D.Fields.size(); ++I) {
      unsigned &Left =
          D.Fields[I].Behavior == FieldBehavior::Heavy ? Heavy : Light;
      if (Left) {
        Run.Fields.push_back(I);
        --Left;
      }
    }
    if (!Run.Fields.empty())
      runFields(Run, nullptr);
  }
  Seconds = msSince(Start) / 1000.0;
  return Corpus;
}

/// One pass: Table 1 then Table 2. Appends per-field latencies and
/// \returns the driver runs made (with their results).
std::vector<std::pair<DriverRun, DriverResult>>
runPass(const std::vector<DriverSpec> &Corpus, uint64_t Seed,
        RunResult &R, std::vector<double> *LatencyMs) {
  std::vector<std::pair<DriverRun, DriverResult>> Done;
  std::vector<DriverRun> Table2;
  for (const DriverRun &Run : table1Runs(Corpus, Seed)) {
    DriverResult Res = runFields(Run, LatencyMs);
    checkDriver(Run, Res, R);
    std::vector<unsigned> Racy = racyFieldIndices(Res);
    if (!Racy.empty())
      Table2.push_back({Run.D, HarnessVersion::V2Refined, Racy});
    Done.push_back({Run, std::move(Res)});
  }
  for (const DriverRun &Run : Table2) {
    DriverResult Res = runFields(Run, LatencyMs);
    checkDriver(Run, Res, R);
    Done.push_back({Run, std::move(Res)});
  }
  return Done;
}

void describe(RunResult &R) {
  R.info("op", "one field race check (compile + transform + check): one "
               "drivers::runDriver call, Jobs=1, timed on the benchmark's "
               "clock");
  R.info("pass", "Table 1 (V1, 481 fields) then Table 2 (V2, V1-racy "
                 "fields); drivers in seeded order");
  R.info("input sizes", "18 drivers, 552 field checks per pass, MAX=0, "
                        "25000-state field budget");
  R.info("concurrency", "1 thread, in process, batch");
  R.info("warm-up", std::to_string(WarmupFields) + " non-heavy and " +
                        std::to_string(WarmupHeavy) +
                        " heavy V1 fields per set-up, not timed");
}

} // namespace

bool kb::runPaperTables(const RunOptions &O, RunResult &R) {
  describe(R);
  EndToEnd E;
  std::vector<DriverSpec> Corpus;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    double S = 0;
    Corpus = setUp(S);
    E.SetupS.push_back(S);
  }

  if (O.Trace) {
    // Rounds of one pass each: the untraced entry point, then the same
    // fields through the composed pipeline. Counts come from the first
    // round and must repeat exactly in every later one.
    Tracer T;
    Counters C, First;
    double TracedMs = 0, UntracedMs = 0;
    Usage TracedCpu;
    uint64_t Ops = 0;
    unsigned Rounds = 0;
    auto Start = Clock::now();
    for (; Rounds == 0 || msSince(Start) < O.Seconds * 1000; ++Rounds) {
      auto U0 = Clock::now();
      auto Done = runPass(Corpus, mixSeed(O.Seed), R, nullptr);
      UntracedMs += msSince(U0);

      Counters RoundC;
      Usage AliasCpu;
      Usage Cpu0 = selfUsage();
      auto T0 = Clock::now();
      for (const auto &[Run, Res] : Done) {
        for (const FieldResult &FR : Res.Fields) {
          T.setOp(Ops++);
          const DriverSpec &D = *Run.D;
          const std::string &Field = D.Fields[FR.FieldIndex].Name;
          std::string Src = T.span("drivers.modelgen", [&] {
            return buildFieldProgram(D, FR.FieldIndex, Run.V);
          });
          lower::CompilerContext Ctx;
          auto P = compileTraced(T, RoundC, Ctx, D.Name + "." + Field, Src);
          CheckSpec S;
          S.Race = true;
          S.RaceField = std::string(getDeviceExtensionName()) + "." + Field;
          S.MaxStates = FieldBudget;
          CheckOutcome Out;
          if (P)
            Out = checkTraced(T, RoundC, Ctx, *P, S);
          AliasCpu += Out.AliasCpu;
          if (!P || Out.Verdict != FR.Verdict ||
              Out.States != FR.StatesExplored ||
              Out.Transitions != FR.TransitionsExplored)
            R.wrong("traced pipeline differs from runDriver on " + D.Name +
                    "." + Field);
        }
      }
      TracedMs += msSince(T0);
      TracedCpu += selfUsage() - Cpu0 - AliasCpu;
      addRound(C, First, RoundC, Rounds, R);
    }
    R.info("traced rounds", std::to_string(Rounds) + " passes");
    saveSpans(O, T, R);
    // The separate alias call is the benchmark's own extra work: its time
    // and CPU are left out.
    addLayerMetrics(R, T, C, static_cast<double>(Ops), TracedCpu,
                    TracedMs - T.totalMs("alias.analyze"), UntracedMs);
    return true;
  }

  std::vector<double> PassRate;
  Usage Before = selfUsage();
  auto Start = Clock::now();
  for (unsigned Pass = 0; Pass < 2 || msSince(Start) < O.Seconds * 1000;
       ++Pass) {
    size_t OpsBefore = E.LatencyMs.size();
    auto P0 = Clock::now();
    runPass(Corpus, mixSeed(O.Seed + Pass), R, &E.LatencyMs);
    PassRate.push_back(static_cast<double>(E.LatencyMs.size() - OpsBefore) /
                       (msSince(P0) / 1000.0));
  }
  Usage After = selfUsage();
  E.Cpu = After - Before;
  E.PeakRssMb = After.MaxRssMb;
  E.OpsPerS = median(PassRate);
  R.info("passes", std::to_string(PassRate.size()) +
                       " (ops_per_s is the median pass rate)");
  addEndToEnd(R, E);
  return true;
}
