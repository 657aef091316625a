//===- CorpusRunner.cpp ---------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "drivers/CorpusRunner.h"

#include "kiss/Kiss.h"
#include "lower/Pipeline.h"
#include "support/Parallel.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <exception>
#include <new>

using namespace kiss;
using namespace kiss::core;
using namespace kiss::drivers;

static unsigned countLines(const std::string &Text) {
  unsigned N = 0;
  for (char C : Text)
    if (C == '\n')
      ++N;
  return N;
}

unsigned kiss::drivers::countModelLines(const DriverSpec &D,
                                        HarnessVersion V) {
  return countLines(buildFullProgram(D, V));
}

/// Field \p FieldIdx's result and record; its wall time runs from \p Start.
static FieldResult fieldResult(const DriverSpec &D, unsigned FieldIdx,
                               const KissReport &Report,
                               std::chrono::steady_clock::time_point Start) {
  FieldResult FR;
  FR.FieldIndex = FieldIdx;
  FR.Verdict = Report.Verdict;
  FR.Bound = Report.boundReason();
  FR.StatesExplored = Report.Sequential.StatesExplored;
  FR.TransitionsExplored = Report.Sequential.TransitionsExplored;
  FR.Record = makeCheckRecord(
      Report, D.Name + "." + D.Fields[FieldIdx].Name,
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - Start)
          .count());
  return FR;
}

/// The body of one per-field check: compile the sliced model and run the
/// KISS race check. Self-contained (one Session per field), so fields
/// fan out across threads without sharing. May throw (OOM, injected
/// fault); checkOneField is the isolation boundary that catches.
static FieldResult checkFieldBody(const DriverSpec &D, unsigned FieldIdx,
                                  const CorpusRunOptions &Opts,
                                  std::chrono::steady_clock::time_point Start) {
  CheckConfig Cfg;
  Cfg.M = CheckConfig::Mode::Race;
  Cfg.MaxTs = 0; // §6: "we set the size of ts to 0" for race detection.
  Cfg.MaxStates = Opts.FieldStateBudget;
  Cfg.SampleEvery = Opts.SampleEvery;
  Cfg.Profile = Opts.Profile;
  Cfg.Common.Budget = Opts.Common.Budget;
  // Injected budget trips target exactly one field; every other field
  // runs under the plain budget.
  if (static_cast<int>(FieldIdx) == Opts.InjectTripField) {
    if (Cfg.Common.Budget.TripAtTick == 0)
      Cfg.Common.Budget.TripAtTick = 1;
  } else {
    Cfg.Common.Budget.TripAtTick = 0;
  }
  Session S(Cfg);
  auto Program = S.compile(D.Name + "." + D.Fields[FieldIdx].Name,
                           buildFieldProgram(D, FieldIdx, Opts.Harness));
  if (!Program) // Generated models always compile; inconclusive if not.
    return fieldResult(D, FieldIdx, stoppedReport(gov::BoundReason::Fault),
                       Start);

  if (static_cast<int>(FieldIdx) == Opts.InjectFailField)
    throw std::bad_alloc(); // Deterministic stand-in for a real OOM.

  S.config().Race =
      RaceTarget::field(S.context().Syms.intern(getDeviceExtensionName()),
                        S.context().Syms.intern(D.Fields[FieldIdx].Name));
  return fieldResult(D, FieldIdx, S.check(*Program), Start);
}

/// One per-field check under the fault-isolation boundary: a task that
/// throws (std::bad_alloc included) or is cancelled before it starts
/// degrades to a per-field BoundExceeded result saying why — the rest of
/// the corpus run is unaffected.
static FieldResult checkOneField(const DriverSpec &D, unsigned FieldIdx,
                                 const CorpusRunOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  // Cancel-and-drain: once the run is cancelled, fields that have not
  // started yet report Cancelled without doing any work (fields already
  // running trip through their own governor).
  gov::BoundReason Why = gov::BoundReason::Cancelled;
  if (!Opts.Common.Budget.Cancel || !Opts.Common.Budget.Cancel->isCancelled()) {
    try {
      return checkFieldBody(D, FieldIdx, Opts, Start);
    } catch (const std::bad_alloc &) {
      Why = gov::BoundReason::Memory;
    } catch (const std::exception &) {
      Why = gov::BoundReason::Fault;
    }
  }
  return fieldResult(D, FieldIdx, stoppedReport(Why), Start);
}

DriverResult kiss::drivers::runDriver(const DriverSpec &D,
                                      const CorpusRunOptions &Opts) {
  DriverResult R;
  R.Driver = &D;

  std::vector<unsigned> FieldIndices = Opts.OnlyFields;
  if (FieldIndices.empty())
    for (unsigned I = 0; I != D.Fields.size(); ++I)
      FieldIndices.push_back(I);

  auto Start = std::chrono::steady_clock::now();

  // Fan the independent field checks out over the thread pool; each worker
  // writes its slot, so R.Fields keeps the requested field order and the
  // tallies below are identical at every job count.
  R.Fields.resize(FieldIndices.size());
  parallelFor(FieldIndices.size(), Opts.Common.Jobs, [&](size_t I) {
    R.Fields[I] = checkOneField(D, FieldIndices[I], Opts);
  });

  for (const FieldResult &FR : R.Fields) {
    switch (FR.Verdict) {
    case KissVerdict::RaceDetected:
      ++R.Races;
      break;
    case KissVerdict::NoErrorFound:
      ++R.NoRaces;
      break;
    default:
      ++R.BoundExceeded;
      break;
    }
  }

  R.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();

  // The workers built the field records; they are recorded here, after
  // the join, walking R.Fields in the requested field order, so the report
  // is deterministic at every job count (timings aside).
  if (telemetry::RunRecorder *Rec = Opts.Common.Recorder) {
    if (Opts.Common.Budget.Cancel && Opts.Common.Budget.Cancel->isCancelled())
      Rec->setInterrupted(true);
    const char *HarnessName =
        Opts.Harness == HarnessVersion::V2Refined ? "refined"
                                                  : "unconstrained";
    telemetry::PhaseRecord &Span =
        Rec->addPhase("driver/" + D.Name + "/" + HarnessName,
                      R.Seconds * 1000.0);
    auto counter = [&](std::string_view Name, uint64_t V) {
      Span.Counters.emplace_back(std::string(Name), V);
    };
    counter("fields_checked", R.Fields.size());
    counter("races", R.Races);
    counter("no_races", R.NoRaces);
    counter("bound_exceeded", R.BoundExceeded);

    for (const FieldResult &FR : R.Fields)
      Rec->addCheck(FR.Record);
  }
  return R;
}

std::vector<unsigned> kiss::drivers::racyFieldIndices(const DriverResult &R) {
  std::vector<unsigned> Out;
  for (const FieldResult &F : R.Fields)
    if (F.Verdict == KissVerdict::RaceDetected)
      Out.push_back(F.FieldIndex);
  return Out;
}
