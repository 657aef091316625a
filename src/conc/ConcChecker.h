//===- ConcChecker.h - Concurrent explicit-state model checker --*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "traditional" concurrent model checker the paper's introduction
/// contrasts KISS with: it explores *all* thread interleavings of a core
/// concurrent program by breadth-first search and therefore pays the
/// exponential price in the number of threads. It serves three roles here:
///
///  * ground truth for the property suite (KISS never reports false
///    errors: every KISS counterexample corresponds to a real interleaving
///    this checker also finds);
///  * the baseline of the scalability benchmark;
///  * with a context-switch bound, the verifier for Theorem 1's coverage
///    characterization (2 threads => all executions with at most two
///    context switches are simulated by the KISS translation).
///
/// Scheduling semantics: at each state any *enabled* thread may run one CFG
/// node. A thread blocked at a false assume() is not enabled (and becomes
/// enabled again only when another thread changes the state). Threads
/// inside an atomic section run exclusively while they are enabled; if a
/// thread blocks inside an atomic section, the other threads may run (this
/// is what makes `atomic { assume(*l == 0); *l = 1; }` a correct lock
/// acquire). A state where no thread is enabled is a terminal state, not an
/// error (the paper treats a blocked assume as blocking forever).
///
/// The search is seqcheck::checkProgramInterp with async allowed: the
/// same stepThread engine the sequential checker runs under
/// --exec=interp, where the program has only one thread.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_CONC_CONCCHECKER_H
#define KISS_CONC_CONCCHECKER_H

#include "seqcheck/CommonOptions.h"
#include "seqcheck/Result.h"
#include "seqcheck/Step.h"

namespace kiss::conc {

/// Options for one concurrent run: the shell's knobs (see
/// rt::ExploreOptions) plus the interleaving checker's own.
struct ConcOptions : rt::ExploreOptions {
  uint32_t MaxThreads = 16;
  uint32_t MaxFrames = 256;
  /// If >= 0, only executions with at most this many context switches are
  /// explored (used to validate Theorem 1; -1 = unbounded).
  int32_t ContextSwitchBound = -1;
};

/// Model checks concurrent core program \p P from its entry function.
rt::CheckResult checkProgram(const lang::Program &P,
                             const cfg::ProgramCFG &CFG,
                             const ConcOptions &Opts = ConcOptions());

} // namespace kiss::conc

#endif // KISS_CONC_CONCCHECKER_H
