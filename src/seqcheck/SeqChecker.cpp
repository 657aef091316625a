//===- SeqChecker.cpp -----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "seqcheck/SeqChecker.h"

#include "seqcheck/Explorer.h"
#include "seqcheck/exec/ThreadedEngine.h"

#include <deque>

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::seqcheck;

namespace {

/// The reference engine: expands each state with the CFG-walking
/// interpreter (stepThread) on its own decoded copy, independently of the
/// threaded engine's decode-and-patch path.
class InterpEngine {
public:
  InterpEngine(const lang::Program &P, const cfg::ProgramCFG &CFG,
               const SeqOptions &Opts)
      : P(P), CFG(CFG), X(P, CFG, Opts) {
    SO.AllowAsync = false;
    SO.MaxFrames = Opts.MaxFrames;
  }

  CheckResult run() { return X.run(*this); }

  void root(MachineState Init, std::string &Key) {
    encodeStateInto(Init, Key);
    Queue.push_back(std::move(Init));
  }

  StepResult::Kind expand(uint32_t Id, Explorer::Fault &F) {
    MachineState S = std::move(Queue.front());
    Queue.pop_front();
    if (isThreadDone(S, 0))
      return StepResult::Kind::Ok; // Accepting leaf: the program completed.

    const Frame &Top = S.Threads[0].Frames.back();
    F.Step = TraceStep{0, Top.Func, Top.PC};
    const Explorer::Mark M = X.mark();
    StepResult SR = stepThread(P, CFG, S, 0, SO);
    switch (SR.K) {
    case StepResult::Kind::Ok:
      for (MachineState &NS : SR.Successors) {
        encodeStateInto(NS, Scratch);
        if (X.emit(Scratch, Id, F.Step))
          Queue.push_back(std::move(NS));
      }
      [[fallthrough]];
    case StepResult::Kind::Blocked:
      // A false assume() on a sequential path silently prunes it (§3: the
      // program blocks forever; no error).
      X.attribute(F.Step, M);
      break;
    default:
      F.Message = std::move(SR.Message);
      F.Loc = SR.ErrorLoc;
      break;
    }
    return SR.K;
  }

private:
  const lang::Program &P;
  const cfg::ProgramCFG &CFG;
  StepOptions SO;
  Explorer X;
  /// Decoded states of the ids not yet expanded, in id order.
  std::deque<MachineState> Queue;
  std::string Scratch; ///< Encoding buffer, reused per successor.
};

} // namespace

CheckResult seqcheck::checkProgram(const lang::Program &P,
                                   const cfg::ProgramCFG &CFG,
                                   const SeqOptions &Opts) {
  CheckResult R = Opts.Exec == rt::ExecEngine::Threaded
                      ? exec::checkProgramThreaded(P, CFG, Opts)
                      : InterpEngine(P, CFG, Opts).run();
  R.Exec = Opts.Exec;
  return R;
}
