//===- Oracle.cpp ---------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "conc/ConcChecker.h"
#include "kiss/Kiss.h"
#include "lower/Pipeline.h"

using namespace kiss;
using namespace kiss::fuzz;

const char *fuzz::getOracleVerdictName(OracleVerdict V) {
  switch (V) {
  case OracleVerdict::Agree:
    return "agree";
  case OracleVerdict::SoundnessBug:
    return "soundness-bug";
  case OracleVerdict::TraceBug:
    return "trace-bug";
  case OracleVerdict::CompletenessBug:
    return "completeness-bug";
  case OracleVerdict::ExecDivergence:
    return "exec-divergence";
  case OracleVerdict::Discard:
    return "discard";
  case OracleVerdict::Inconclusive:
    return "inconclusive";
  }
  return "unknown";
}

bool fuzz::parseOracleVerdict(std::string_view Name, OracleVerdict &Out) {
  for (auto V :
       {OracleVerdict::Agree, OracleVerdict::SoundnessBug,
        OracleVerdict::TraceBug, OracleVerdict::CompletenessBug,
        OracleVerdict::ExecDivergence, OracleVerdict::Discard,
        OracleVerdict::Inconclusive}) {
    if (Name == getOracleVerdictName(V)) {
      Out = V;
      return true;
    }
  }
  return false;
}

uint32_t fuzz::countContextSwitches(const core::ConcurrentTrace &Trace) {
  uint32_t Switches = 0;
  bool HaveLast = false;
  uint32_t Last = 0;
  for (const core::MappedStep &S : Trace.Steps) {
    if (HaveLast && S.Thread != Last)
      ++Switches;
    Last = S.Thread;
    HaveLast = true;
  }
  return Switches;
}

namespace {

/// Static fork shape of a program: how many async statements it has and
/// whether any sits outside the entry function or under a loop (either
/// makes the runtime thread count statically unknown).
struct AsyncShape {
  unsigned Count = 0;
  bool Unbounded = false;
};

void scanStmt(const lang::Stmt *S, bool InLoop, bool InEntry, AsyncShape &A) {
  if (!S)
    return;
  if (isa<lang::AsyncStmt>(S)) {
    ++A.Count;
    if (InLoop || !InEntry)
      A.Unbounded = true;
    return;
  }
  bool Loop = InLoop || isa<lang::WhileStmt>(S) || isa<lang::IterStmt>(S);
  lang::forEachSubStmt(S, [&](const lang::Stmt *Sub) {
    scanStmt(Sub, Loop, InEntry, A);
  });
}

AsyncShape analyzeAsyncShape(const lang::Program &P) {
  AsyncShape A;
  for (const auto &F : P.getFunctions())
    scanStmt(F->getBody(), /*InLoop=*/false,
             F->getName() == P.getEntryName(), A);
  return A;
}

} // namespace

OracleResult fuzz::runOracle(const std::string &Source,
                             const OracleOptions &Opts) {
  OracleResult Res;

  Session S(Opts.Kiss);
  auto P = S.compile("fuzz.kiss", Source);
  if (!P) {
    Res.V = OracleVerdict::Discard;
    Res.DiscardDiagnostics = S.diagnostics();
    return Res;
  }

  AsyncShape Shape = analyzeAsyncShape(*P);
  Res.TwoThread = Shape.Count == 1 && !Shape.Unbounded;

  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*P);

  // Ground truth: unbounded interleaving exploration, deliberately
  // outside the Session pipeline — it is the independent oracle.
  conc::ConcOptions CO{core::exploreOptions(Opts.Kiss)};
  rt::CheckResult Truth = conc::checkProgram(*P, CFG, CO);
  Res.Conc = Truth.Outcome;

  // System under test: the KISS pipeline.
  core::KissReport K = S.check(*P);
  Res.Kiss = K.Verdict;
  if (S.hasErrors()) {
    // The transform rejected a program the frontend accepted (async
    // signature/arity rules). Out of the generated family by contract.
    Res.V = OracleVerdict::Discard;
    Res.DiscardDiagnostics = S.diagnostics();
    return Res;
  }

  if (Opts.ExecDiff) {
    // Differential engine mode: re-run the KISS side under the other
    // execution engine and store mode, and the ground truth under the
    // other store mode. Both engines implement the same transition
    // relation over the same canonical encoding, so everything observable
    // must match; a deadline/memory/cancel trip on either side is timing
    // noise and skips the comparison (a States trip is deterministic and
    // compares).
    auto Noisy = [](const rt::CheckResult &R) {
      return R.Bound == gov::BoundReason::Deadline ||
             R.Bound == gov::BoundReason::Memory ||
             R.Bound == gov::BoundReason::Cancelled;
    };
    auto Compare = [&](const std::string &Side, const rt::CheckResult &A,
                       const rt::CheckResult &B) {
      if (Noisy(A) || Noisy(B))
        return;
      std::string What;
      if (A.Outcome != B.Outcome)
        What = std::string("outcome ") + rt::getOutcomeName(A.Outcome) +
               " vs " + rt::getOutcomeName(B.Outcome);
      else if (A.StatesExplored != B.StatesExplored)
        What = "distinct states " + std::to_string(A.StatesExplored) +
               " vs " + std::to_string(B.StatesExplored);
      else if (A.TransitionsExplored != B.TransitionsExplored)
        What = "transitions " + std::to_string(A.TransitionsExplored) +
               " vs " + std::to_string(B.TransitionsExplored);
      else if (A.Message != B.Message)
        What = "error message '" + A.Message + "' vs '" + B.Message + "'";
      else if (A.ErrorLoc != B.ErrorLoc)
        What = "error location offset " +
               std::to_string(A.ErrorLoc.getOffset()) + " vs " +
               std::to_string(B.ErrorLoc.getOffset());
      if (What.empty())
        return;
      Res.V = OracleVerdict::ExecDivergence;
      Res.Detail = Side + " disagree: " + What;
    };

    CheckConfig Flip = Opts.Kiss;
    Flip.Exec = Flip.Exec == rt::ExecEngine::Threaded
                    ? rt::ExecEngine::Interp
                    : rt::ExecEngine::Threaded;
    Flip.Store = Flip.Store == rt::StoreMode::Flat ? rt::StoreMode::Delta
                                                   : rt::StoreMode::Flat;
    core::KissReport K2 =
        core::check(*P, Flip, S.context().Diags, &S.context().SM);
    auto Name = [](const CheckConfig &C) {
      return std::string(rt::getExecEngineName(C.Exec)) + "/" +
             rt::getStoreModeName(C.Store);
    };
    Compare("seq engines (" + Name(Opts.Kiss) + " vs " + Name(Flip) + ")",
            K.Sequential, K2.Sequential);

    if (Res.V != OracleVerdict::ExecDivergence) {
      conc::ConcOptions CD{core::exploreOptions(Flip)};
      rt::CheckResult Truth2 = conc::checkProgram(*P, CFG, CD);
      Compare(std::string("conc stores (") +
                  rt::getStoreModeName(Opts.Kiss.Store) + " vs " +
                  rt::getStoreModeName(Flip.Store) + ")",
              Truth, Truth2);
    }
    if (Res.V == OracleVerdict::ExecDivergence)
      return Res;
  }

  if (Opts.EngineDiff) {
    // Differential check-backend mode: re-run the KISS side under the
    // bebop summary engine. Verdicts must agree — Theorem 1 holds for
    // whichever backend explores the transformed program — but the
    // exploration counts are incomparable (path edges vs states), so a
    // budget trip on either side makes the pair inconclusive rather than
    // a divergence.
    CheckConfig BebopCfg = Opts.Kiss;
    BebopCfg.Engine = rt::Engine::Bebop;
    core::KissReport KB =
        core::check(*P, BebopCfg, S.context().Diags, &S.context().SM);
    if (S.hasErrors()) {
      // Bebop rejected the program: the boolean-fragment generator's
      // contract says that should not happen.
      Res.V = OracleVerdict::Discard;
      Res.DiscardDiagnostics = S.diagnostics();
      return Res;
    }
    if (K.Verdict == core::KissVerdict::BoundExceeded ||
        KB.Verdict == core::KissVerdict::BoundExceeded) {
      Res.V = OracleVerdict::Inconclusive;
      Res.Detail = "an engine-diff side exceeded its budget";
      return Res;
    }
    if (KB.Verdict != K.Verdict) {
      Res.V = OracleVerdict::ExecDivergence;
      Res.Detail = std::string("check engines (seq vs bebop) disagree: "
                               "verdict ") +
                   core::getVerdictName(K.Verdict) + " vs " +
                   core::getVerdictName(KB.Verdict);
      return Res;
    }
    if (KB.foundError()) {
      // The bebop-reconstructed witness must be a real execution: replay
      // it under the ground truth bounded to its own switch count.
      conc::ConcOptions Replay = CO;
      Replay.ContextSwitchBound =
          static_cast<int32_t>(countContextSwitches(KB.Trace));
      rt::CheckResult Bounded = conc::checkProgram(*P, CFG, Replay);
      if (Bounded.Outcome == rt::CheckOutcome::BoundExceeded) {
        Res.V = OracleVerdict::Inconclusive;
        Res.Detail = "bebop trace replay exceeded its budget";
        return Res;
      }
      if (!Bounded.foundError()) {
        Res.V = OracleVerdict::ExecDivergence;
        Res.Detail =
            "bebop-mapped trace uses " +
            std::to_string(countContextSwitches(KB.Trace)) +
            " context switches but no erroneous execution exists within "
            "that bound";
        return Res;
      }
    }
  }

  if (K.foundError()) {
    Res.TraceThreads = K.Trace.NumThreads;
    Res.TraceSwitches = countContextSwitches(K.Trace);

    // Soundness: the ground truth must confirm some erroneous execution.
    if (Truth.Outcome == rt::CheckOutcome::BoundExceeded) {
      Res.V = OracleVerdict::Inconclusive;
      Res.Detail = "ground truth exceeded its budget; KISS error unchecked";
      return Res;
    }
    if (!Truth.foundError()) {
      Res.V = OracleVerdict::SoundnessBug;
      Res.Detail = std::string("KISS reported ") +
                   core::getVerdictName(K.Verdict) +
                   " but exhaustive interleaving exploration found the "
                   "program safe";
      return Res;
    }

    // Trace replay: the mapped concurrent trace claims the error is
    // reachable within its own context-switch count; a ground-truth run
    // bounded to that count must agree.
    conc::ConcOptions Replay = CO;
    Replay.ContextSwitchBound = static_cast<int32_t>(Res.TraceSwitches);
    rt::CheckResult Bounded = conc::checkProgram(*P, CFG, Replay);
    if (Bounded.Outcome == rt::CheckOutcome::BoundExceeded) {
      Res.V = OracleVerdict::Inconclusive;
      Res.Detail = "trace replay exceeded its budget";
      return Res;
    }
    if (!Bounded.foundError()) {
      Res.V = OracleVerdict::TraceBug;
      Res.Detail = "mapped trace uses " +
                   std::to_string(Res.TraceSwitches) +
                   " context switches but no erroneous execution exists "
                   "within that bound";
      return Res;
    }
    Res.V = OracleVerdict::Agree;
    return Res;
  }

  if (K.Verdict == core::KissVerdict::BoundExceeded ||
      Truth.Outcome == rt::CheckOutcome::BoundExceeded) {
    Res.V = OracleVerdict::Inconclusive;
    Res.Detail = K.Verdict == core::KissVerdict::BoundExceeded
                     ? "KISS side exceeded its budget"
                     : "ground truth exceeded its budget";
    return Res;
  }

  // Completeness, sequential direction: with no forks the translation
  // preserves the program's semantics exactly, so KISS must find whatever
  // the ground truth finds.
  if (Opts.CheckCompleteness && Shape.Count == 0 && Truth.foundError()) {
    Res.V = OracleVerdict::CompletenessBug;
    Res.Detail = std::string("sequential program: ground truth found ") +
                 rt::getOutcomeName(Truth.Outcome) +
                 " but KISS found nothing";
    return Res;
  }

  // Completeness, Theorem-1 direction: on a 2-thread program every
  // execution with at most two context switches is simulated at MAX >= 2.
  // At K > 2 the bound rises to 2*((K-1)/2)+2 switches — but only when
  // every async site actually became resumable; ineligible or indirect
  // sites fall back to run-to-completion, i.e. the two-switch guarantee.
  if (Opts.CheckCompleteness && Res.TwoThread && Opts.Kiss.MaxTs >= 2) {
    uint32_t EffBound = 2;
    if (Opts.Kiss.MaxSwitches > 2 && K.Stats.IneligibleCandidates == 0 &&
        K.Stats.IndirectAsyncSites == 0)
      EffBound = 2 * ((Opts.Kiss.MaxSwitches - 1) / 2) + 2;
    conc::ConcOptions Bounded = CO;
    Bounded.ContextSwitchBound = static_cast<int32_t>(EffBound);
    rt::CheckResult Within = conc::checkProgram(*P, CFG, Bounded);
    if (Within.Outcome == rt::CheckOutcome::BoundExceeded) {
      Res.V = OracleVerdict::Inconclusive;
      Res.Detail = "bounded-switch exploration exceeded its budget";
      return Res;
    }
    if (Within.foundError()) {
      Res.V = OracleVerdict::CompletenessBug;
      Res.Detail = std::string("ground truth found ") +
                   rt::getOutcomeName(Within.Outcome) + " within " +
                   std::to_string(EffBound) +
                   " context switches on a 2-thread program but KISS at "
                   "MAX=" +
                   std::to_string(Opts.Kiss.MaxTs) +
                   " K=" + std::to_string(Opts.Kiss.MaxSwitches) +
                   " found nothing";
      return Res;
    }
  }

  Res.V = OracleVerdict::Agree;
  return Res;
}
