//===- Compose.cpp --------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "Compose.h"

#include "alias/Steensgaard.h"
#include "bebop/BebopChecker.h"
#include "bebop/FromCore.h"
#include "cfg/CFG.h"
#include "kiss/TraceMap.h"
#include "kiss/Transform.h"
#include "lower/Lower.h"
#include "seqcheck/SeqChecker.h"

using namespace kiss;
using namespace kb;

std::unique_ptr<lang::Program> kb::compileTraced(Tracer &T, Counters &C,
                                                 lower::CompilerContext &Ctx,
                                                 const std::string &Name,
                                                 const std::string &Source) {
  C["source_bytes"] += static_cast<double>(Source.size());
  auto P = T.span("lang.parse",
                  [&] { return lower::parseAndCheck(Ctx, Name, Source); });
  if (!P)
    return nullptr;
  bool Lowered =
      T.span("lower.lower", [&] { return lower::lowerProgram(*P, Ctx.Diags); });
  return Lowered ? std::move(P) : nullptr;
}

/// The sequential-side outcome of the bebop backend, as runBebop shapes it.
static bool runBebop(Tracer &T, Counters &C, const lang::Program &Transformed,
                     const CheckSpec &S, DiagnosticEngine &Diags,
                     const cfg::ProgramCFG &CFG, rt::CheckResult &Seq) {
  return T.span("bebop.check", [&] {
    std::optional<bebop::BoolProgram> BP =
        bebop::convertFromCore(Transformed, Diags);
    if (!BP)
      return false;
    bebop::BebopOptions BO;
    BO.MaxPathEdges = S.MaxStates;
    bebop::BebopResult BR = bebop::check(*BP, BO);
    C["bebop_path_edges"] += static_cast<double>(BR.PathEdges);
    Seq.StatesExplored = BR.PathEdges;
    Seq.TransitionsExplored = BR.Propagations;
    switch (BR.Outcome) {
    case bebop::BebopOutcome::Safe:
      Seq.Outcome = rt::CheckOutcome::Safe;
      break;
    case bebop::BebopOutcome::BoundExceeded:
      Seq.Outcome = rt::CheckOutcome::BoundExceeded;
      Seq.Bound = BR.Bound;
      break;
    case bebop::BebopOutcome::AssertionFailure:
      Seq.Outcome = rt::CheckOutcome::AssertionFailure;
      for (const bebop::BebopTraceStep &TS : BR.Trace)
        if (TS.Node < CFG.getFunctionCFG(TS.Func).getNumNodes())
          Seq.Trace.push_back(rt::TraceStep{0, TS.Func, TS.Node});
      break;
    }
    return true;
  });
}

CheckOutcome kb::checkTraced(Tracer &T, Counters &C,
                             lower::CompilerContext &Ctx,
                             const lang::Program &P, const CheckSpec &S) {
  CheckOutcome Out;
  core::TransformOptions TO;
  TO.MaxTs = S.MaxTs;
  TO.MaxSwitches = S.MaxSwitches;
  core::TransformStats &Stats = Out.Stats;
  std::unique_ptr<lang::Program> Transformed;
  if (S.Race) {
    size_t Dot = S.RaceField.find('.');
    core::RaceTarget Target = core::RaceTarget::field(
        Ctx.Syms.intern(S.RaceField.substr(0, Dot)),
        Ctx.Syms.intern(S.RaceField.substr(Dot + 1)));
    Usage Cpu0 = selfUsage();
    T.span("alias.analyze", [&] { return alias::PointsTo::analyze(P); });
    Out.AliasCpu = selfUsage() - Cpu0;
    Transformed = T.span("kiss.transform", [&] {
      return core::transformForRace(P, Target, TO, Ctx.Diags, &Stats);
    });
  } else {
    Transformed = T.span("kiss.transform", [&] {
      return core::transformForAssertions(P, TO, Ctx.Diags, &Stats);
    });
  }
  C["probes_emitted"] += Stats.ProbesEmitted;
  C["probes_pruned"] += Stats.ProbesPruned;
  if (!Transformed) {
    Out.Verdict = core::KissVerdict::BoundExceeded;
    return Out;
  }

  Out.EngineUsed = S.Engine == rt::Engine::Bebop ? rt::Engine::Bebop
                                                 : rt::Engine::Seq;
  if (S.Engine == rt::Engine::Auto) {
    C["bebop_probed"] += 1;
    bool InFragment = T.span("bebop.fragment", [&] {
      std::string Why;
      return bebop::isBooleanFragment(*Transformed, &Why);
    });
    Out.EngineUsed = InFragment ? rt::Engine::Bebop : rt::Engine::Seq;
    C["bebop_selected"] += InFragment ? 1 : 0;
  }

  cfg::ProgramCFG CFG =
      T.span("cfg.build", [&] { return cfg::ProgramCFG::build(*Transformed); });
  C["cfg_nodes"] += CFG.getTotalNodes();

  rt::CheckResult Seq;
  if (Out.EngineUsed == rt::Engine::Bebop) {
    if (!runBebop(T, C, *Transformed, S, Ctx.Diags, CFG, Seq)) {
      Out.Verdict = core::KissVerdict::BoundExceeded;
      return Out;
    }
  } else {
    seqcheck::SeqOptions SO;
    SO.MaxStates = S.MaxStates;
    Usage Before = threadUsage();
    Seq = T.span("seqcheck.explore",
                 [&] { return seqcheck::checkProgram(*Transformed, CFG, SO); });
    Usage Spent = threadUsage() - Before;
    const rt::ExplorationStats &E = Seq.Exploration;
    C["seq_checks"] += 1;
    C["seq_states"] += static_cast<double>(Seq.StatesExplored);
    C["seq_transitions"] += static_cast<double>(Seq.TransitionsExplored);
    C["seq_dedup"] += static_cast<double>(E.DedupHits);
    C["seq_arena_bytes"] += static_cast<double>(E.ArenaBytes);
    C["seq_index_bytes"] += static_cast<double>(E.IndexBytes);
    C["seq_hash_probes"] += static_cast<double>(E.HashProbes);
    C["seq_bounded"] += Seq.Outcome == rt::CheckOutcome::BoundExceeded;
    C["seq_minor_faults"] += static_cast<double>(Spent.MinorFaults);
    C["seq_sys_ms"] += Spent.SysMs;
  }
  Out.States = Seq.StatesExplored;
  Out.Transitions = Seq.TransitionsExplored;

  // Verdict classification, as the checker's runPipeline does it: a failing
  // probe assert is a race, any other assert an assertion violation.
  switch (Seq.Outcome) {
  case rt::CheckOutcome::Safe:
    Out.Verdict = core::KissVerdict::NoErrorFound;
    break;
  case rt::CheckOutcome::BoundExceeded:
    Out.Verdict = core::KissVerdict::BoundExceeded;
    break;
  case rt::CheckOutcome::RuntimeError:
    Out.Verdict = core::KissVerdict::RuntimeError;
    break;
  case rt::CheckOutcome::AssertionFailure: {
    Out.Verdict = core::KissVerdict::AssertionViolation;
    if (!Seq.Trace.empty()) {
      const rt::TraceStep &Last = Seq.Trace.back();
      const cfg::Node &N = CFG.getFunctionCFG(Last.Func).getNode(Last.Node);
      if (N.S && N.S->getRole() == lang::InstrRole::Check)
        Out.Verdict = core::KissVerdict::RaceDetected;
    }
    break;
  }
  }
  if (Seq.foundError()) {
    C["errors"] += 1;
    Out.Trace = T.span("kiss.tracemap", [&] {
      return core::mapTrace(Seq.Trace, *Transformed, CFG);
    });
  }
  return Out;
}
