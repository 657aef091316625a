//===- CorpusRunner.h - End-to-end per-field corpus checking ----*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the full evaluation loop of §6: for each driver and each device-
/// extension field, generate the model program, run the KISS race check
/// (MAX = 0, as the paper does for race detection), and tally the verdict.
/// Used by the Table 1/2 benches, the driver_audit example, and the
/// integration tests.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_DRIVERS_CORPUSRUNNER_H
#define KISS_DRIVERS_CORPUSRUNNER_H

#include "drivers/ModelGen.h"
#include "kiss/KissChecker.h"
#include "seqcheck/CommonOptions.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <vector>

namespace kiss::drivers {

/// Per-field outcome of one corpus run.
struct FieldResult {
  unsigned FieldIndex = 0;
  core::KissVerdict Verdict = core::KissVerdict::NoErrorFound;
  /// Why a BoundExceeded verdict stopped short (None otherwise). A field
  /// task that threw is isolated here as BoundReason::Fault (Memory for
  /// std::bad_alloc) instead of aborting the run.
  gov::BoundReason Bound = gov::BoundReason::None;
  uint64_t StatesExplored = 0;
  uint64_t TransitionsExplored = 0;
  /// The field's check record ("<driver>.<field>"), built as soon as its
  /// check returns. WallMs covers compile + transform + check; the series
  /// and profile are deterministic at every job count.
  telemetry::CheckRecord Record;
};

/// Per-driver tallies of one corpus run.
struct DriverResult {
  const DriverSpec *Driver = nullptr;
  unsigned Races = 0;
  unsigned NoRaces = 0;
  unsigned BoundExceeded = 0;
  std::vector<FieldResult> Fields;
  double Seconds = 0;
};

/// Options for a corpus run.
struct CorpusRunOptions {
  HarnessVersion Harness = HarnessVersion::V1Unconstrained;
  /// Per-field state budget (the paper's 20-minute/800MB resource bound).
  uint64_t FieldStateBudget = 25000;
  /// Shared budget / recorder / jobs configuration.
  ///  * Common.Budget: the per-field deadline / memory / cancellation
  ///    budget; each field's exploration runs under its own governor. If
  ///    Budget.Cancel is set and cancelled, fields not yet started degrade
  ///    to a Cancelled BoundExceeded result without running
  ///    (cancel-and-drain).
  ///  * Common.Jobs: worker threads for the per-field fan-out (0 = all
  ///    hardware threads; the historical corpus default). Verdicts,
  ///    counts, and field order are identical at every job count.
  ///  * Common.Recorder: if set, runDriver appends one phase span per
  ///    driver and each field's FieldResult::Record, *after* the worker
  ///    join and in field order — every report field except wall times is
  ///    identical at every job count.
  rt::CommonOptions Common{gov::RunBudget(), nullptr, /*Jobs=*/0};
  /// Fault injection (deterministic per field index, so results and
  /// reports stay identical at every job count):
  ///  * InjectTripField: this field's governor trips on its first tick
  ///    with Common.Budget.TripReason (deadline by default) — the test
  ///    stand-in for "this field exceeded its 20-minute bound".
  ///  * InjectFailField: the check of this field throws std::bad_alloc
  ///    mid-run, exercising the fault-isolation boundary.
  /// -1 = off.
  int InjectTripField = -1;
  int InjectFailField = -1;
  /// If non-empty, only these field indices are checked (Table 2 re-runs
  /// the fields reported racy under the unconstrained harness).
  std::vector<unsigned> OnlyFields;
  /// Exploration time-series sampling stride for every field check
  /// (0 = off; see seqcheck::SeqOptions::SampleEvery).
  uint64_t SampleEvery = 0;
  /// Collect the per-line hot-path profile of every field check.
  bool Profile = false;
};

/// Checks (a subset of) the fields of one driver. Fields are independent
/// checks (each builds its own CompilerContext) and run on Opts.Jobs
/// threads; results are aggregated in field order.
DriverResult runDriver(const DriverSpec &D, const CorpusRunOptions &Opts);

/// Lines of the full driver model (the reproduction's analogue of the
/// paper's KLOC column). Split out of runDriver so corpus runs don't
/// regenerate the full-model text on every call.
unsigned countModelLines(const DriverSpec &D, HarnessVersion V);

/// Convenience: the indices of fields reported racy by \p R.
std::vector<unsigned> racyFieldIndices(const DriverResult &R);

} // namespace kiss::drivers

#endif // KISS_DRIVERS_CORPUSRUNNER_H
