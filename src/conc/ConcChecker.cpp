//===- ConcChecker.cpp ----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "conc/ConcChecker.h"

#include "seqcheck/Explorer.h"

#include <deque>

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::conc;

namespace {

/// Scheduling context carried alongside each state when a context-switch
/// bound is active.
struct SchedCtx {
  int32_t LastThread = -1;
  uint32_t Switches = 0;
};

void makeKeyInto(const MachineState &S, const SchedCtx &Ctx, bool Bounded,
                 std::string &Out) {
  encodeStateInto(S, Out);
  if (Bounded) {
    Out.push_back(static_cast<char>(Ctx.LastThread & 0xff));
    Out.push_back(static_cast<char>(Ctx.Switches & 0xff));
    Out.push_back(static_cast<char>((Ctx.Switches >> 8) & 0xff));
  }
}

/// The interleaving engine: at each state, steps every thread the
/// scheduling rules allow (see ConcChecker.h) with the shared transition
/// relation, on its own decoded copy of the state.
class ConcEngine {
public:
  ConcEngine(const lang::Program &P, const cfg::ProgramCFG &CFG,
             const ConcOptions &Opts)
      : P(P), CFG(CFG), Opts(Opts), Bounded(Opts.ContextSwitchBound >= 0),
        X(P, CFG, Opts) {
    SO.AllowAsync = true;
    SO.MaxThreads = Opts.MaxThreads;
    SO.MaxFrames = Opts.MaxFrames;
  }

  CheckResult run() { return X.run(*this); }

  void root(MachineState Init, std::string &Key) {
    makeKeyInto(Init, SchedCtx(), Bounded, Key);
    Queue.push_back(Item{std::move(Init), SchedCtx()});
  }

  StepResult::Kind expand(uint32_t Id, Explorer::Fault &F) {
    Item It = std::move(Queue.front());
    Queue.pop_front();
    const MachineState &S = It.S;

    // Which threads may run? Threads holding atomicity get exclusivity
    // while enabled.
    std::vector<uint32_t> Live;
    std::vector<uint32_t> AtomicLive;
    for (uint32_t T = 0, E = S.Threads.size(); T != E; ++T) {
      if (S.Threads[T].isTerminated())
        continue;
      Live.push_back(T);
      if (S.Threads[T].AtomicDepth > 0)
        AtomicLive.push_back(T);
    }

    bool AnyEnabled = false;
    if (!AtomicLive.empty()) {
      StepResult::Kind K = stepThreads(It, Id, AtomicLive, AnyEnabled, F);
      if (K != StepResult::Kind::Ok || AnyEnabled)
        return K; // Exclusivity: only atomic holders ran from this state.
      // All atomic holders are blocked: the other threads may run.
      std::vector<uint32_t> Others;
      for (uint32_t T : Live)
        if (S.Threads[T].AtomicDepth == 0)
          Others.push_back(T);
      return stepThreads(It, Id, Others, AnyEnabled, F);
    }
    // With no enabled thread the state is terminal (completion or a
    // permanently blocked assume), not an error.
    return stepThreads(It, Id, Live, AnyEnabled, F);
  }

private:
  struct Item {
    MachineState S;
    SchedCtx Ctx;
  };

  /// Steps each thread of \p Tids from \p It (state \p Id) and emits the
  /// successors. \returns Ok, or the first error/bound kind with \p F set;
  /// \p AnyEnabled tells whether some thread produced successors.
  StepResult::Kind stepThreads(const Item &It, uint32_t Id,
                               const std::vector<uint32_t> &Tids,
                               bool &AnyEnabled, Explorer::Fault &F) {
    AnyEnabled = false;
    for (uint32_t T : Tids) {
      if (Bounded && It.Ctx.LastThread >= 0 &&
          static_cast<int32_t>(T) != It.Ctx.LastThread &&
          It.Ctx.Switches >= static_cast<uint32_t>(Opts.ContextSwitchBound))
        continue; // Switching to T would exceed the bound.

      const Frame &Top = It.S.Threads[T].Frames.back();
      F.Step = TraceStep{T, Top.Func, Top.PC};
      const Explorer::Mark M = X.mark();
      StepResult SR = stepThread(P, CFG, It.S, T, SO);
      switch (SR.K) {
      case StepResult::Kind::Ok: {
        AnyEnabled = true;
        SchedCtx NCtx = It.Ctx;
        if (Bounded) {
          if (NCtx.LastThread >= 0 &&
              NCtx.LastThread != static_cast<int32_t>(T))
            ++NCtx.Switches;
          NCtx.LastThread = static_cast<int32_t>(T);
        }
        for (MachineState &NS : SR.Successors) {
          makeKeyInto(NS, NCtx, Bounded, Scratch);
          if (X.emit(Scratch, Id, F.Step))
            Queue.push_back(Item{std::move(NS), NCtx});
        }
        X.attribute(F.Step, M);
        break;
      }
      case StepResult::Kind::Blocked:
        X.attribute(F.Step, M);
        break;
      default:
        F.Message = std::move(SR.Message);
        F.Loc = SR.ErrorLoc;
        return SR.K;
      }
    }
    return StepResult::Kind::Ok;
  }

  const lang::Program &P;
  const cfg::ProgramCFG &CFG;
  const ConcOptions &Opts;
  const bool Bounded;
  StepOptions SO;
  Explorer X;
  /// Decoded states (with their scheduling context) of the ids not yet
  /// expanded, in id order.
  std::deque<Item> Queue;
  std::string Scratch; ///< Key buffer, reused per successor.
};

} // namespace

CheckResult conc::checkProgram(const lang::Program &P,
                               const cfg::ProgramCFG &CFG,
                               const ConcOptions &Opts) {
  CheckResult R = ConcEngine(P, CFG, Opts).run();
  R.Exec = rt::ExecEngine::Interp; // Threads step with stepThread.
  R.Conc = true;
  return R;
}
