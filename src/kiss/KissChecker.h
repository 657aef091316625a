//===- KissChecker.h - The top-level KISS checker ---------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end checker of Figure 1: concurrent program -> KISS
/// instrumentation -> sequential model checker -> (mapped) error trace or
/// "no bug found". This is the library's primary public entry point.
///
/// Guarantee (paper, §1): the checker never reports false errors but may
/// miss errors. Every reported error corresponds to a real execution of the
/// concurrent input program.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_KISS_KISSCHECKER_H
#define KISS_KISS_KISSCHECKER_H

#include "kiss/TraceMap.h"
#include "kiss/Transform.h"
#include "seqcheck/CommonOptions.h"
#include "seqcheck/SeqChecker.h"

#include <memory>

namespace kiss {
struct CheckConfig;
} // namespace kiss

namespace kiss::telemetry {
struct CheckRecord;
} // namespace kiss::telemetry

namespace kiss::core {

/// What the checker concluded.
enum class KissVerdict : uint8_t {
  NoErrorFound,       ///< Exhaustive over the simulated subset; no error.
  AssertionViolation, ///< A program assertion fails in a real execution.
  RaceDetected,       ///< Conflicting accesses to the monitored location.
  RuntimeError,       ///< A real execution faults (null deref, ...).
  BoundExceeded,      ///< Resource bound hit; inconclusive.
};

const char *getVerdictName(KissVerdict V);

/// The result of one end-to-end check.
struct KissReport {
  KissVerdict Verdict = KissVerdict::NoErrorFound;
  std::string Message;
  /// Thread-attributed trace over the *original* program (errors only).
  ConcurrentTrace Trace;
  /// Raw result of the sequential model checker on the translated program.
  rt::CheckResult Sequential;
  /// Instrumentation statistics (probe counts, ...).
  TransformStats Stats;
  /// Source-resolved hot-path profile of the sequential exploration
  /// (empty unless CheckConfig::Profile was set and check() was given a
  /// source manager). Lines refer to the *translated* program's
  /// statements, which carry the original program's source locations.
  std::vector<rt::LineProfile> Profile;
  /// The translated sequential program (for inspection/printing).
  std::unique_ptr<lang::Program> Transformed;
  /// Which backend actually ran (Auto resolves to Seq or Bebop).
  rt::Engine EngineUsed = rt::Engine::Seq;
  /// Auto mode only: why bebop was not applicable (empty when it was, or
  /// when the engine was selected explicitly).
  std::string EngineFallbackReason;
  /// Summary-engine counters (zero under seq): path edges saturated and
  /// procedure summaries tabulated.
  uint64_t PathEdges = 0;
  uint64_t SummaryEdges = 0;

  bool foundError() const {
    return Verdict == KissVerdict::AssertionViolation ||
           Verdict == KissVerdict::RaceDetected ||
           Verdict == KissVerdict::RuntimeError;
  }

  /// Why a BoundExceeded verdict stopped short (None otherwise): state
  /// budget, deadline, memory budget, or cooperative cancellation.
  gov::BoundReason boundReason() const { return Sequential.Bound; }
};

/// The report of a check that stopped without a result (cancelled before
/// it started, faulted): BoundExceeded for reason \p Why, no exploration.
KissReport stoppedReport(gov::BoundReason Why);

/// Builds the check record every entry point reports for \p R: the
/// caller names it and times it, the rest comes from R (on top of
/// rt::makeCheckRecord; a bebop run has no exec engine, "none").
telemetry::CheckRecord makeCheckRecord(const KissReport &R, std::string Name,
                                       double WallMs);

/// The exploration-shell knobs of \p Cfg: state budget, run budget,
/// heartbeat, store, series stride and profile. The one mapping from a
/// check configuration to the options every explicit-state engine runs
/// under: the sequential checker behind check(), and the conc ground truth
/// of kisscheck --engine=conc and the fuzzing oracle.
rt::ExploreOptions exploreOptions(const CheckConfig &Cfg);

/// Runs the check \p Cfg describes on concurrent core program \p P: the
/// Figure-4 assertion translation or, in Mode::Race, the Figure-5 race
/// translation for Cfg.Race (program assertions are checked along the
/// way), then the check engine Cfg.Engine selects. \p SM, if set,
/// resolves the hot-path profile (Cfg.Profile) to file:line rows; null
/// leaves KissReport::Profile empty. Not owned.
KissReport check(const lang::Program &P, const CheckConfig &Cfg,
                 DiagnosticEngine &Diags,
                 const SourceManager *SM = nullptr);

} // namespace kiss::core

#endif // KISS_KISS_KISSCHECKER_H
