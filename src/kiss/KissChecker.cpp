//===- KissChecker.cpp ----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "kiss/KissChecker.h"

#include "kiss/Kiss.h"

#include "bebop/BebopChecker.h"
#include "bebop/FromCore.h"
#include "cfg/CFG.h"
#include "telemetry/Telemetry.h"

using namespace kiss;
using namespace kiss::core;
using namespace kiss::lang;

const char *core::getVerdictName(KissVerdict V) {
  switch (V) {
  case KissVerdict::NoErrorFound:
    return "no error found";
  case KissVerdict::AssertionViolation:
    return "assertion violation";
  case KissVerdict::RaceDetected:
    return "race detected";
  case KissVerdict::RuntimeError:
    return "runtime error";
  case KissVerdict::BoundExceeded:
    return "bound exceeded";
  }
  return "?";
}

KissReport core::stoppedReport(gov::BoundReason Why) {
  KissReport R;
  R.Verdict = KissVerdict::BoundExceeded;
  R.Sequential.Outcome = rt::CheckOutcome::BoundExceeded;
  R.Sequential.Bound = Why;
  return R;
}

telemetry::CheckRecord core::makeCheckRecord(const KissReport &R,
                                             std::string Name,
                                             double WallMs) {
  telemetry::CheckRecord C =
      rt::makeCheckRecord(R.Sequential, std::move(Name), WallMs, R.Profile);
  C.Outcome = getVerdictName(R.Verdict);
  C.Engine = rt::getEngineName(R.EngineUsed);
  if (R.EngineUsed == rt::Engine::Bebop)
    C.ExecEngine = "none";
  C.PathEdges = R.PathEdges;
  C.SummaryEdges = R.SummaryEdges;
  return C;
}

namespace {

/// Opens a phase span on the configuration's recorder, or a no-op span
/// when telemetry is off.
telemetry::RunRecorder::Span phase(const CheckConfig &Cfg,
                                   std::string_view Name) {
  if (!Cfg.Common.Recorder)
    return telemetry::RunRecorder::Span();
  return Cfg.Common.Recorder->beginPhase(Name);
}

/// Runs the boolean-program summary engine on the translated program and
/// synthesizes the rt contract from its result, so every downstream
/// consumer (trace mapping, telemetry, exit codes) sees one shape.
/// \returns false when conversion fails (diagnostics explain why).
bool runBebop(const Program &Transformed, const cfg::ProgramCFG &CFG,
              const CheckConfig &Cfg, DiagnosticEngine &Diags,
              KissReport &R) {
  auto ConvertSpan = phase(Cfg, "convert");
  std::optional<bebop::BoolProgram> BP =
      bebop::convertFromCore(Transformed, Diags);
  ConvertSpan.end();
  if (!BP)
    return false;

  auto CheckSpan = phase(Cfg, "check");
  bebop::BebopOptions BO;
  BO.MaxPathEdges = Cfg.MaxStates;
  BO.Budget = Cfg.Common.Budget;
  BO.SampleEvery = Cfg.SampleEvery;
  bebop::BebopResult BR = bebop::check(*BP, BO);
  CheckSpan.counter("path_edges", BR.PathEdges);
  CheckSpan.counter("summary_edges", BR.SummaryEdges);
  CheckSpan.counter("propagations", BR.Propagations);
  CheckSpan.counter("dedup_hits", BR.DedupHits);
  CheckSpan.counter("frontier_peak", BR.FrontierPeak);
  CheckSpan.end();

  R.PathEdges = BR.PathEdges;
  R.SummaryEdges = BR.SummaryEdges;
  R.Sequential.StatesExplored = BR.PathEdges;
  R.Sequential.TransitionsExplored = BR.Propagations;
  R.Sequential.Exploration.DedupHits = BR.DedupHits;
  R.Sequential.Exploration.FrontierPeak = BR.FrontierPeak;
  R.Sequential.Exploration.ArenaBytes = BR.MemoryBytes;
  for (const bebop::BebopSample &S : BR.Series) {
    rt::ExplorationSample P;
    P.States = S.PathEdges;
    P.Transitions = S.Propagations;
    P.DedupHits = S.DedupHits;
    P.Frontier = S.Frontier;
    P.ArenaBytes = S.MemoryBytes;
    R.Sequential.Series.push_back(P);
  }

  switch (BR.Outcome) {
  case bebop::BebopOutcome::Safe:
    R.Sequential.Outcome = rt::CheckOutcome::Safe;
    break;
  case bebop::BebopOutcome::BoundExceeded:
    R.Sequential.Outcome = rt::CheckOutcome::BoundExceeded;
    R.Sequential.Bound = BR.Bound;
    R.Sequential.Message = BR.Message;
    break;
  case bebop::BebopOutcome::AssertionFailure: {
    R.Sequential.Outcome = rt::CheckOutcome::AssertionFailure;
    R.Sequential.Message = BR.Message;
    const cfg::Node &ErrN =
        CFG.getFunctionCFG(BR.ErrorFunc).getNode(BR.ErrorNode);
    if (ErrN.S)
      R.Sequential.ErrorLoc = ErrN.S->getLoc();
    // The conversion appends synthetic nodes (dedicated exits, call-result
    // copies) past the CFG node count; drop them so the trace maps 1:1
    // onto CFG nodes, as the explicit-state trace contract requires.
    for (const bebop::BebopTraceStep &TS : BR.Trace)
      if (TS.Node < CFG.getFunctionCFG(TS.Func).getNumNodes())
        R.Sequential.Trace.push_back(rt::TraceStep{0, TS.Func, TS.Node});
    break;
  }
  }
  return true;
}

/// Runs the translated program through the selected check engine and
/// classifies the outcome.
KissReport runPipeline(std::unique_ptr<Program> Transformed,
                       const CheckConfig &Cfg, const SourceManager *SM,
                       TransformStats Stats, DiagnosticEngine &Diags) {
  KissReport R =
      Transformed ? KissReport() : stoppedReport(gov::BoundReason::Fault);
  R.Stats = Stats;
  R.EngineUsed =
      Cfg.Engine == rt::Engine::Bebop ? rt::Engine::Bebop : rt::Engine::Seq;
  if (!Transformed) {
    R.Message = "transformation failed";
    return R;
  }

  // Auto: bebop exactly when the *transformed* program is in the boolean
  // fragment — probed without diagnostics, so falling back is silent
  // except for the recorded reason.
  if (Cfg.Engine == rt::Engine::Auto) {
    std::string Why;
    if (bebop::isBooleanFragment(*Transformed, &Why)) {
      R.EngineUsed = rt::Engine::Bebop;
    } else {
      R.EngineUsed = rt::Engine::Seq;
      R.EngineFallbackReason = Why;
    }
    if (Cfg.Common.Recorder) {
      Cfg.Common.Recorder->setMeta("engine_selected",
                                   rt::getEngineName(R.EngineUsed));
      if (!R.EngineFallbackReason.empty())
        Cfg.Common.Recorder->setMeta("engine_fallback_reason",
                                     R.EngineFallbackReason);
    }
  }

  auto CfgSpan = phase(Cfg, "cfg");
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*Transformed);
  CfgSpan.counter("cfg_nodes", CFG.getTotalNodes());
  CfgSpan.end();

  if (R.EngineUsed == rt::Engine::Bebop) {
    if (!runBebop(*Transformed, CFG, Cfg, Diags, R)) {
      R.Verdict = KissVerdict::BoundExceeded;
      R.Message = "program is outside the boolean fragment";
      R.Sequential.Outcome = rt::CheckOutcome::BoundExceeded;
      R.Sequential.Bound = gov::BoundReason::Fault;
      R.Sequential.Message = R.Message;
      R.Transformed = std::move(Transformed);
      return R;
    }
  } else {
    auto CheckSpan = phase(Cfg, "check");
    seqcheck::SeqOptions SO{exploreOptions(Cfg)};
    SO.Exec = Cfg.Exec;
    R.Sequential = seqcheck::checkProgram(*Transformed, CFG, SO);
    CheckSpan.counter("states", R.Sequential.StatesExplored);
    CheckSpan.counter("transitions", R.Sequential.TransitionsExplored);
    CheckSpan.counter("dedup_hits", R.Sequential.Exploration.DedupHits);
    CheckSpan.counter("frontier_peak", R.Sequential.Exploration.FrontierPeak);
    CheckSpan.counter("depth_max", R.Sequential.Exploration.DepthMax);
    CheckSpan.end();
  }

  // Resolve the raw per-node profile against the translated program's
  // CFG while it is still in scope. Instrumented statements carry the
  // original program's source locations, so rows point at real lines.
  if (Cfg.Profile && SM)
    R.Profile = rt::resolveProfile(R.Sequential.Profile, CFG, SM);

  switch (R.Sequential.Outcome) {
  case rt::CheckOutcome::Safe:
    R.Verdict = KissVerdict::NoErrorFound;
    break;
  case rt::CheckOutcome::BoundExceeded:
    R.Verdict = KissVerdict::BoundExceeded;
    R.Message = R.Sequential.Message;
    break;
  case rt::CheckOutcome::RuntimeError:
    R.Verdict = KissVerdict::RuntimeError;
    R.Message = R.Sequential.Message;
    break;
  case rt::CheckOutcome::AssertionFailure: {
    // A failing probe assert means a race; any other assert is a program
    // assertion violation.
    R.Verdict = KissVerdict::AssertionViolation;
    if (!R.Sequential.Trace.empty()) {
      const rt::TraceStep &Last = R.Sequential.Trace.back();
      const cfg::Node &N =
          CFG.getFunctionCFG(Last.Func).getNode(Last.Node);
      if (N.S && N.S->getRole() == InstrRole::Check) {
        R.Verdict = KissVerdict::RaceDetected;
        R.Message = "conflicting accesses to the monitored location";
      }
    }
    break;
  }
  }

  if (R.Sequential.foundError())
    R.Trace = mapTrace(R.Sequential.Trace, *Transformed, CFG);

  R.Transformed = std::move(Transformed);
  return R;
}

} // namespace

rt::ExploreOptions core::exploreOptions(const CheckConfig &Cfg) {
  rt::ExploreOptions O;
  O.MaxStates = Cfg.MaxStates;
  O.Budget = Cfg.Common.Budget;
  O.Progress = Cfg.Progress;
  O.Store = Cfg.Store;
  O.SampleEvery = Cfg.SampleEvery;
  O.Profile = Cfg.Profile;
  return O;
}

KissReport core::check(const Program &P, const CheckConfig &Cfg,
                       DiagnosticEngine &Diags, const SourceManager *SM) {
  TransformOptions TO;
  TO.MaxTs = Cfg.MaxTs;
  TO.MaxSwitches = Cfg.MaxSwitches;
  TO.UseAliasAnalysis = Cfg.UseAliasAnalysis;
  TO.Recorder = Cfg.Common.Recorder;
  TO.InjectBreakAsserts = Cfg.InjectBreakAsserts;
  TransformStats Stats;
  auto TransformSpan = phase(Cfg, "transform");
  auto Transformed =
      Cfg.M == CheckConfig::Mode::Race
          ? transformForRace(P, Cfg.Race, TO, Diags, &Stats)
          : transformForAssertions(P, TO, Diags, &Stats);
  TransformSpan.counter("probes_emitted", Stats.ProbesEmitted);
  TransformSpan.counter("probes_pruned", Stats.ProbesPruned);
  TransformSpan.counter("statements_instrumented",
                        Stats.StatementsInstrumented);
  TransformSpan.end();
  return runPipeline(std::move(Transformed), Cfg, SM, Stats, Diags);
}
