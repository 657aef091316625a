//===- Oracle.h - The Theorem-1 differential oracle -------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable form of the paper's correctness contract (Theorem 1): for a
/// concurrent program P, Check(P) goes wrong iff some balanced execution
/// of P goes wrong. One oracle run compares the KISS pipeline (Transform +
/// sequential checker, the system under test) against the concurrent
/// explicit-state checker (ground truth) on one program and classifies the
/// pair of outcomes:
///
///  * soundness — every KISS-reported error must be a real concurrent
///    error. Cross-checked twice: the ground-truth engine must find an
///    error, and replaying the TraceMap-recovered concurrent trace — a
///    bounded ground-truth run restricted to the mapped trace's context-
///    switch count — must still find one.
///  * bounded completeness — on 2-thread programs (one static fork), any
///    assertion failure reachable within two context switches must be
///    caught by KISS at MAX >= 2 (the §2 statement of Theorem 1).
///
/// Programs that fail to compile are discards (the generator's contract
/// says they should not happen; discards carry their diagnostics for the
/// frontend-location audit). Runs that trip a budget are inconclusive,
/// never violations.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_FUZZ_ORACLE_H
#define KISS_FUZZ_ORACLE_H

#include "kiss/Kiss.h"

#include <string>

namespace kiss::fuzz {

/// What one differential run concluded.
enum class OracleVerdict : uint8_t {
  Agree,            ///< No disagreement (both clean, or error confirmed).
  SoundnessBug,     ///< KISS reported an error the ground truth refutes.
  TraceBug,         ///< KISS error confirmed, but the mapped trace does not
                    ///< replay within its own context-switch budget.
  CompletenessBug,  ///< A two-switch 2-thread error KISS failed to find.
  ExecDivergence,   ///< ExecDiff mode: the two execution engines (or the
                    ///< two store modes) disagreed on anything observable.
  Discard,          ///< The program did not compile (generator defect).
  Inconclusive,     ///< A state/deadline/memory budget tripped somewhere.
};

const char *getOracleVerdictName(OracleVerdict V);

/// Parses a name produced by getOracleVerdictName (the regression-corpus
/// expectation format). \returns false if \p Name is not a verdict name.
bool parseOracleVerdict(std::string_view Name, OracleVerdict &Out);

/// Budgets and knobs of one differential run.
struct OracleOptions {
  /// The KISS side's check: MAX (default 2; below 2 the completeness
  /// check is skipped), the context-switch bound K, the test-only
  /// InjectBreakAsserts sabotage (kissfuzz --break-transform), and the
  /// per-engine state budget (default 150,000) and run budget, which every
  /// ground-truth exploration of the run shares through
  /// core::exploreOptions. K > 2 raises the completeness bound to
  /// 2*((K-1)/2)+2 switches on 2-thread programs, provided every async
  /// site was made resumable (TransformStats reports ineligible/indirect
  /// sites; any of those falls back to the two-switch bound).
  CheckConfig Kiss = [] {
    CheckConfig Cfg;
    Cfg.MaxTs = 2;
    Cfg.MaxStates = 150'000;
    return Cfg;
  }();
  /// Check the bounded-completeness direction on 2-thread programs.
  bool CheckCompleteness = true;
  /// Differential engine mode (kissfuzz --exec-diff): additionally run
  /// the KISS side under the other execution engine and the other store
  /// mode, and the ground truth under the other store mode, comparing
  /// verdict, message, error location, and state/transition counts
  /// against the configured runs. Any mismatch is an ExecDivergence
  /// violation.
  bool ExecDiff = false;
  /// Differential check-backend mode (kissfuzz --engine-diff=bebop):
  /// additionally run the KISS side under the bebop summary engine and
  /// compare verdicts against the explicit-state run; when both report an
  /// error, the bebop-mapped concurrent trace must replay within its own
  /// context-switch count under the ground truth. Verdict disagreement or
  /// a non-replaying trace is an ExecDivergence violation. Exploration
  /// counts are NOT compared — path edges and states measure different
  /// things — so a budget trip on either side skips the comparison.
  /// Meaningful only on boolean-fragment programs (GenOptions
  /// BoolFragment); a fragment rejection is a Discard (generator defect).
  bool EngineDiff = false;
};

/// One differential run's outcome.
struct OracleResult {
  OracleVerdict V = OracleVerdict::Agree;
  /// What each side concluded (engine names in the fuzz report).
  core::KissVerdict Kiss = core::KissVerdict::NoErrorFound;
  rt::CheckOutcome Conc = rt::CheckOutcome::Safe;
  /// Human-readable explanation of a disagreement (repro file header).
  std::string Detail;
  /// Rendered diagnostics of a Discard (the line:col audit input).
  std::string DiscardDiagnostics;
  /// Mapped-trace shape when KISS found an error.
  uint32_t TraceThreads = 0;
  uint32_t TraceSwitches = 0;
  /// Whether the completeness precondition held (2-thread program).
  bool TwoThread = false;
};

/// Runs the differential oracle on \p Source (surface syntax).
OracleResult runOracle(const std::string &Source, const OracleOptions &Opts);

/// \returns the number of context switches in \p Trace: adjacent step
/// pairs attributed to different threads.
uint32_t countContextSwitches(const core::ConcurrentTrace &Trace);

} // namespace kiss::fuzz

#endif // KISS_FUZZ_ORACLE_H
