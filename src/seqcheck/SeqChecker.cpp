//===- SeqChecker.cpp -----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "seqcheck/SeqChecker.h"

#include "seqcheck/Explorer.h"
#include "seqcheck/exec/ThreadedEngine.h"

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::seqcheck;

namespace {

/// Scheduling context carried in each key's 3-byte suffix when a
/// context-switch bound is active.
struct SchedCtx {
  int32_t LastThread = -1;
  uint32_t Switches = 0;
};

constexpr size_t SchedCtxBytes = 3;

void makeKeyInto(const MachineState &S, const SchedCtx &Ctx, bool Bounded,
                 std::string &Out) {
  encodeStateInto(S, Out);
  if (Bounded) {
    Out.push_back(static_cast<char>(Ctx.LastThread & 0xff));
    Out.push_back(static_cast<char>(Ctx.Switches & 0xff));
    Out.push_back(static_cast<char>((Ctx.Switches >> 8) & 0xff));
  }
}

/// Reads the scheduling context back from the suffix makeKeyInto wrote
/// and strips it from \p Key.
SchedCtx takeSchedCtx(std::string_view &Key) {
  const auto Byte = [&](size_t I) {
    return static_cast<uint8_t>(Key[Key.size() - SchedCtxBytes + I]);
  };
  SchedCtx Ctx;
  Ctx.LastThread = Byte(0) == 0xff ? -1 : Byte(0);
  Ctx.Switches = Byte(1) | uint32_t(Byte(2)) << 8;
  Key.remove_suffix(SchedCtxBytes);
  return Ctx;
}

/// The stepThread engine: decodes the state at the cursor from its store
/// key and steps every thread the scheduling rules allow (see
/// ConcChecker.h) with the shared transition relation. A sequential
/// program has one thread, so this is also the sequential interpreter.
class StepEngine {
public:
  StepEngine(const lang::Program &P, const cfg::ProgramCFG &CFG,
             const ExploreOptions &Opts, const StepOptions &SO,
             int32_t ContextSwitchBound)
      : P(P), CFG(CFG), SO(SO), Bound(ContextSwitchBound),
        Bounded(ContextSwitchBound >= 0), X(P, CFG, Opts) {}

  CheckResult run() { return X.run(*this); }

  void root(const MachineState &Init, std::string &Key) {
    makeKeyInto(Init, SchedCtx(), Bounded, Key);
  }

  StepResult::Kind expand(uint32_t Id, Explorer::Fault &F) {
    // Decoding finishes before the first emit(), so the key view need
    // not be copied.
    {
      std::string_view Key = X.store().key(Id).view();
      Ctx = Bounded ? takeSchedCtx(Key) : SchedCtx();
      decodeStateInto(Key, S);
    }

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
      StepResult::Kind K = stepThreads(Id, AtomicLive, AnyEnabled, F);
      if (K != StepResult::Kind::Ok || AnyEnabled)
        return K; // Exclusivity: only atomic holders ran from this state.
      // All atomic holders are blocked: the other threads may run.
      std::vector<uint32_t> Others;
      for (uint32_t T : Live)
        if (S.Threads[T].AtomicDepth == 0)
          Others.push_back(T);
      return stepThreads(Id, Others, AnyEnabled, F);
    }
    // With no enabled thread the state is terminal (completion or a
    // permanently blocked assume), not an error.
    return stepThreads(Id, Live, AnyEnabled, F);
  }

private:
  /// Steps each thread of \p Tids from S (state \p Id) and emits the
  /// successors. \returns Ok, or the first error/bound kind with \p F set;
  /// \p AnyEnabled tells whether some thread produced successors.
  StepResult::Kind stepThreads(uint32_t Id, const std::vector<uint32_t> &Tids,
                               bool &AnyEnabled, Explorer::Fault &F) {
    AnyEnabled = false;
    for (uint32_t T : Tids) {
      if (Bounded && Ctx.LastThread >= 0 &&
          static_cast<int32_t>(T) != Ctx.LastThread &&
          Ctx.Switches >= static_cast<uint32_t>(Bound))
        continue; // Switching to T would exceed the bound.

      const Frame &Top = S.Threads[T].Frames.back();
      F.Step = TraceStep{T, Top.Func, Top.PC};
      const Explorer::Mark M = X.mark();
      StepResult SR = stepThread(P, CFG, S, T, SO);
      switch (SR.K) {
      case StepResult::Kind::Ok: {
        AnyEnabled = true;
        SchedCtx NCtx = Ctx;
        if (Bounded) {
          if (NCtx.LastThread >= 0 &&
              NCtx.LastThread != static_cast<int32_t>(T))
            ++NCtx.Switches;
          NCtx.LastThread = static_cast<int32_t>(T);
        }
        for (const MachineState &NS : SR.Successors) {
          makeKeyInto(NS, NCtx, Bounded, Scratch);
          X.emit(Scratch, Id, F.Step, keyHash(Scratch));
        }
        X.attribute(F.Step, M);
        break;
      }
      case StepResult::Kind::Blocked:
        // A false assume() blocks the thread here (§3: forever, if no
        // other thread runs); no error.
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
  const StepOptions SO;
  const int32_t Bound;
  const bool Bounded;
  Explorer X;
  MachineState S; ///< The state at the cursor, decoded from its key.
  SchedCtx Ctx;   ///< S's scheduling context (default when unbounded).
  std::string Scratch; ///< Key buffer, reused per successor.
};

} // namespace

CheckResult seqcheck::checkProgramInterp(const lang::Program &P,
                                         const cfg::ProgramCFG &CFG,
                                         const rt::ExploreOptions &Opts,
                                         const rt::StepOptions &SO,
                                         int32_t ContextSwitchBound) {
  CheckResult R = StepEngine(P, CFG, Opts, SO, ContextSwitchBound).run();
  R.Exec = rt::ExecEngine::Interp;
  return R;
}

CheckResult seqcheck::checkProgram(const lang::Program &P,
                                   const cfg::ProgramCFG &CFG,
                                   const SeqOptions &Opts) {
  if (Opts.Exec == rt::ExecEngine::Threaded)
    return exec::checkProgramThreaded(P, CFG, Opts); // Exec's default.
  StepOptions SO;
  SO.AllowAsync = false;
  SO.MaxFrames = Opts.MaxFrames;
  return checkProgramInterp(P, CFG, Opts, SO);
}
