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

namespace kiss::telemetry {
struct CheckRecord;
} // namespace kiss::telemetry

namespace kiss::core {

/// Options for one end-to-end check.
struct KissOptions {
  /// The paper's MAX — the ts multiset capacity (the coverage/cost knob).
  unsigned MaxTs = 0;
  /// The context-switch bound K (default 2 = the paper's Theorem 1).
  /// K > 2 adds (K-1)/2 suspend/resume rounds to the translation; see
  /// TransformOptions::MaxSwitches.
  unsigned MaxSwitches = 2;
  /// Prune race probes with the points-to analysis.
  bool UseAliasAnalysis = true;
  /// Which check backend runs the translated sequential program: the
  /// explicit-state engine (Seq, the default), the summary-based
  /// boolean-program engine (Bebop, boolean-fragment inputs only), or
  /// Auto — bebop when the *transformed* program is in the fragment,
  /// seq otherwise (with the reason recorded in the report).
  rt::Engine Engine = rt::Engine::Seq;
  /// Budgets of the underlying sequential model checker. Seq.Budget is
  /// overwritten from Common.Budget — set the budget there.
  seqcheck::SeqOptions Seq;
  /// Shared budget / recorder / jobs configuration. The recorder (if any)
  /// receives transform / alias / cfg / check phase spans and their
  /// counters (see docs/observability.md).
  rt::CommonOptions Common;
  /// Test-only: run the deliberately broken transform (negated assertion
  /// clones) so the fuzzing oracle's unsoundness detection can be
  /// validated end to end (kissfuzz --break-transform).
  bool InjectBreakAsserts = false;
  /// Source manager of the input program, used to resolve the hot-path
  /// profile (Seq.Profile) to file:line rows. Not owned; null leaves the
  /// profile unresolved (KissReport::Profile stays empty).
  const SourceManager *SM = nullptr;
};

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
  /// (empty unless KissOptions::Seq.Profile and KissOptions::SM were
  /// set). Lines refer to the *translated* program's statements, which
  /// carry the original program's source locations.
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

/// Checks the assertions of concurrent core program \p P (Figure 4 mode).
KissReport checkAssertions(const lang::Program &P, const KissOptions &Opts,
                           DiagnosticEngine &Diags);

/// Checks for races on \p Target in concurrent core program \p P (Figure 5
/// mode). Program assertions are checked along the way.
KissReport checkRace(const lang::Program &P, const RaceTarget &Target,
                     const KissOptions &Opts, DiagnosticEngine &Diags);

} // namespace kiss::core

#endif // KISS_KISS_KISSCHECKER_H
