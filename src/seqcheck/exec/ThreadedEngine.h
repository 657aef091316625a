//===- ThreadedEngine.h - Threaded-code sequential engine -------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast sequential execution engine (rt::ExecEngine::Threaded): the
/// program CFG is lowered once per check into a flat instruction stream of
/// pre-resolved opcodes, and the shared BFS shell (rt::Explorer) hands it
/// the StateStore's dense state ids directly — the popped state is decoded
/// from its canonical key into one reused working state, and each
/// successor key is either patched into a copy of the parent's key or
/// encoded from the mutated working state. No MachineState is ever copied
/// and no explicit work queue exists.
///
/// The engine is contract-bound to the interpreter (SeqChecker.cpp): same
/// verdict, same message, same error location, same counterexample trace,
/// and the same value for every ExplorationStats counter, on every input.
/// The golden-equality test suite and the fuzzer's --exec-diff mode hold it
/// to that.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SEQCHECK_EXEC_THREADEDENGINE_H
#define KISS_SEQCHECK_EXEC_THREADEDENGINE_H

#include "seqcheck/SeqChecker.h"

namespace kiss::seqcheck::exec {

/// Runs the threaded-code engine on core program \p P. Semantics and
/// options are exactly those of seqcheck::checkProgram (which dispatches
/// here when Opts.Exec == rt::ExecEngine::Threaded).
rt::CheckResult checkProgramThreaded(const lang::Program &P,
                                     const cfg::ProgramCFG &CFG,
                                     const SeqOptions &Opts);

} // namespace kiss::seqcheck::exec

#endif // KISS_SEQCHECK_EXEC_THREADEDENGINE_H
