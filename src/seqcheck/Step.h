//===- Step.h - One-step transition semantics -------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one CFG node of one thread, producing all successor machine
/// states. This is the transition relation of the stepThread engine
/// (seqcheck::checkProgramInterp), which layers thread scheduling on top:
/// a sequential program has only thread 0, and conc steps every thread
/// the scheduling rules allow. The threaded engine implements the same
/// relation on its lowered instruction stream.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SEQCHECK_STEP_H
#define KISS_SEQCHECK_STEP_H

#include "seqcheck/Runtime.h"

namespace kiss::rt {

/// Tuning and semantic switches for the transition relation.
struct StepOptions {
  /// Whether `async` spawns a thread (concurrent semantics) or is an error
  /// (sequential programs must not contain it).
  bool AllowAsync = false;
  /// Analysis bound on simultaneously live threads.
  uint32_t MaxThreads = 16;
  /// Analysis bound on stack depth per thread (recursion cut-off).
  uint32_t MaxFrames = 256;
};

/// Result of executing the node at the PC of one thread.
struct StepResult {
  enum class Kind : uint8_t {
    Ok,            ///< One or more successor states.
    Blocked,       ///< assume() is false; the thread is not enabled here.
    AssertFailure, ///< assert() failed: the property violation KISS hunts.
    RuntimeError,  ///< Null/dangling dereference, undef use, call through
                   ///< null, async in a sequential program, ...
    BoundExceeded, ///< MaxThreads/MaxFrames analysis bound hit.
  };

  Kind K = Kind::Ok;
  std::vector<MachineState> Successors;
  std::string Message;
  /// Source location of the statement that failed (errors only).
  SourceLoc ErrorLoc;
};

/// Executes the node at the PC of thread \p Tid in \p S.
/// \p S itself is not modified; successors are copies.
StepResult stepThread(const lang::Program &P, const cfg::ProgramCFG &CFG,
                      const MachineState &S, uint32_t Tid,
                      const StepOptions &Opts);

/// \returns true if thread \p Tid has terminated (no frames left).
inline bool isThreadDone(const MachineState &S, uint32_t Tid) {
  return S.Threads[Tid].isTerminated();
}

} // namespace kiss::rt

#endif // KISS_SEQCHECK_STEP_H
