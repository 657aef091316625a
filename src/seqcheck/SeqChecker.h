//===- SeqChecker.h - Sequential explicit-state model checker ---*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential model checker that plays the role SLAM plays in the
/// paper: given a *sequential* core program (no async), it exhaustively
/// explores all nondeterminism (choice, iter, nondet values) by
/// breadth-first search over canonically-encoded machine states and reports
/// the first reachable assertion failure with a shortest counterexample
/// trace. Exploration is sound and complete for programs whose reachable
/// state space is finite (the class the paper targets: finite data).
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SEQCHECK_SEQCHECKER_H
#define KISS_SEQCHECK_SEQCHECKER_H

#include "seqcheck/CommonOptions.h"
#include "seqcheck/Result.h"
#include "seqcheck/Step.h"

namespace kiss::seqcheck {

/// Options for one sequential run: the shell's knobs (state budget,
/// governor, heartbeat, store, series, profile) plus the engine's own. The
/// state budget approximates the paper's 20-minute/800MB resource bound
/// structurally; Budget enforces it literally.
struct SeqOptions : rt::ExploreOptions {
  uint32_t MaxFrames = 256;
  /// Which execution engine runs the exploration. Both produce
  /// bit-identical results (see rt::ExecEngine); Threaded is the fast
  /// default, Interp the reference oracle.
  rt::ExecEngine Exec = rt::ExecEngine::Threaded;
};

/// Model checks sequential core program \p P (entry: Program entry
/// function). \p CFG must be built from \p P.
rt::CheckResult checkProgram(const lang::Program &P,
                             const cfg::ProgramCFG &CFG,
                             const SeqOptions &Opts = SeqOptions());

/// The one stepThread engine (rt::ExecEngine::Interp): explores \p P by
/// stepping every thread the scheduling rules of conc/ConcChecker.h allow
/// with the shared transition relation under \p SO. With SO.AllowAsync off
/// the program keeps one thread and this is the sequential interpreter;
/// with it on, the interleaving checker. If \p ContextSwitchBound >= 0,
/// only executions with at most that many context switches are explored.
rt::CheckResult checkProgramInterp(const lang::Program &P,
                                   const cfg::ProgramCFG &CFG,
                                   const rt::ExploreOptions &Opts,
                                   const rt::StepOptions &SO,
                                   int32_t ContextSwitchBound = -1);

} // namespace kiss::seqcheck

#endif // KISS_SEQCHECK_SEQCHECKER_H
