//===- KissChecker.cpp ----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "kiss/KissChecker.h"

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

/// Opens a phase span on the options' recorder, or a no-op span when
/// telemetry is off.
telemetry::RunRecorder::Span phase(const KissOptions &Opts,
                                   std::string_view Name) {
  if (!Opts.Common.Recorder)
    return telemetry::RunRecorder::Span();
  return Opts.Common.Recorder->beginPhase(Name);
}

/// Runs the boolean-program summary engine on the translated program and
/// synthesizes the rt contract from its result, so every downstream
/// consumer (trace mapping, telemetry, exit codes) sees one shape.
/// \returns false when conversion fails (diagnostics explain why).
bool runBebop(const Program &Transformed, const cfg::ProgramCFG &CFG,
              const KissOptions &Opts, DiagnosticEngine &Diags,
              KissReport &R) {
  auto ConvertSpan = phase(Opts, "convert");
  std::optional<bebop::BoolProgram> BP =
      bebop::convertFromCore(Transformed, Diags);
  ConvertSpan.end();
  if (!BP)
    return false;

  auto CheckSpan = phase(Opts, "check");
  bebop::BebopOptions BO;
  BO.MaxPathEdges = Opts.Seq.MaxStates;
  BO.Budget = Opts.Common.Budget;
  BO.SampleEvery = Opts.Seq.SampleEvery;
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
KissReport runPipeline(const Program &P, std::unique_ptr<Program> Transformed,
                       const KissOptions &Opts, TransformStats Stats,
                       DiagnosticEngine &Diags) {
  (void)P;
  KissReport R =
      Transformed ? KissReport() : stoppedReport(gov::BoundReason::Fault);
  R.Stats = Stats;
  R.EngineUsed =
      Opts.Engine == rt::Engine::Bebop ? rt::Engine::Bebop : rt::Engine::Seq;
  if (!Transformed) {
    R.Message = "transformation failed";
    return R;
  }

  // Auto: bebop exactly when the *transformed* program is in the boolean
  // fragment — probed without diagnostics, so falling back is silent
  // except for the recorded reason.
  if (Opts.Engine == rt::Engine::Auto) {
    std::string Why;
    if (bebop::isBooleanFragment(*Transformed, &Why)) {
      R.EngineUsed = rt::Engine::Bebop;
    } else {
      R.EngineUsed = rt::Engine::Seq;
      R.EngineFallbackReason = Why;
    }
    if (Opts.Common.Recorder) {
      Opts.Common.Recorder->setMeta("engine_selected",
                                    rt::getEngineName(R.EngineUsed));
      if (!R.EngineFallbackReason.empty())
        Opts.Common.Recorder->setMeta("engine_fallback_reason",
                                      R.EngineFallbackReason);
    }
  }

  auto CfgSpan = phase(Opts, "cfg");
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*Transformed);
  CfgSpan.counter("cfg_nodes", CFG.getTotalNodes());
  CfgSpan.end();

  if (R.EngineUsed == rt::Engine::Bebop) {
    if (!runBebop(*Transformed, CFG, Opts, Diags, R)) {
      R.Verdict = KissVerdict::BoundExceeded;
      R.Message = "program is outside the boolean fragment";
      R.Sequential.Outcome = rt::CheckOutcome::BoundExceeded;
      R.Sequential.Bound = gov::BoundReason::Fault;
      R.Sequential.Message = R.Message;
      R.Transformed = std::move(Transformed);
      return R;
    }
  } else {
    auto CheckSpan = phase(Opts, "check");
    seqcheck::SeqOptions SO = Opts.Seq;
    SO.Budget = Opts.Common.Budget;
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
  if (Opts.Seq.Profile && Opts.SM)
    R.Profile = rt::resolveProfile(R.Sequential.Profile, CFG, Opts.SM);

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

/// Adds the instrumentation counters to an open "transform" span.
static void recordTransformStats(telemetry::RunRecorder::Span &Span,
                                 const TransformStats &Stats) {
  Span.counter("probes_emitted", Stats.ProbesEmitted);
  Span.counter("probes_pruned", Stats.ProbesPruned);
  Span.counter("statements_instrumented", Stats.StatementsInstrumented);
}

KissReport core::checkAssertions(const Program &P, const KissOptions &Opts,
                                 DiagnosticEngine &Diags) {
  TransformOptions TO;
  TO.MaxTs = Opts.MaxTs;
  TO.MaxSwitches = Opts.MaxSwitches;
  TO.UseAliasAnalysis = Opts.UseAliasAnalysis;
  TO.Recorder = Opts.Common.Recorder;
  TO.InjectBreakAsserts = Opts.InjectBreakAsserts;
  TransformStats Stats;
  auto TransformSpan = phase(Opts, "transform");
  auto Transformed = transformForAssertions(P, TO, Diags, &Stats);
  recordTransformStats(TransformSpan, Stats);
  TransformSpan.end();
  return runPipeline(P, std::move(Transformed), Opts, Stats, Diags);
}

KissReport core::checkRace(const Program &P, const RaceTarget &Target,
                           const KissOptions &Opts, DiagnosticEngine &Diags) {
  TransformOptions TO;
  TO.MaxTs = Opts.MaxTs;
  TO.MaxSwitches = Opts.MaxSwitches;
  TO.UseAliasAnalysis = Opts.UseAliasAnalysis;
  TO.Recorder = Opts.Common.Recorder;
  TO.InjectBreakAsserts = Opts.InjectBreakAsserts;
  TransformStats Stats;
  auto TransformSpan = phase(Opts, "transform");
  auto Transformed = transformForRace(P, Target, TO, Diags, &Stats);
  recordTransformStats(TransformSpan, Stats);
  TransformSpan.end();
  return runPipeline(P, std::move(Transformed), Opts, Stats, Diags);
}
