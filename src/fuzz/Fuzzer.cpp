//===- Fuzzer.cpp ---------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "support/Parallel.h"
#include "telemetry/Telemetry.h"

using namespace kiss;
using namespace kiss::fuzz;

FuzzSummary fuzz::runCampaign(const FuzzOptions &Opts) {
  struct Slot {
    OracleResult O;
    std::string Source;
    unsigned ShrinkSteps = 0;
    unsigned ShrinkEvals = 0;
    bool Ran = false;
  };
  std::vector<Slot> Slots(Opts.Cases);

  telemetry::RunRecorder *Rec = Opts.Recorder;
  const gov::CancellationToken *Cancel = Opts.Oracle.Kiss.Common.Budget.Cancel;

  parallelFor(Opts.Cases, Opts.Jobs, [&](size_t I) {
    // Cancel-and-drain: queued cases degrade to skipped slots.
    if (Cancel && Cancel->isCancelled())
      return;
    Slot &S = Slots[I];
    S.Ran = true;

    uint64_t CaseSeed = Opts.Seed + I;
    GenOptions G = Opts.VaryGrammar ? varyOptions(CaseSeed, Opts.Grammar)
                                    : Opts.Grammar;
    S.Source = generateProgram(CaseSeed, G);
    S.O = runOracle(S.Source, Opts.Oracle);

    bool Violation = S.O.V == OracleVerdict::SoundnessBug ||
                     S.O.V == OracleVerdict::TraceBug ||
                     S.O.V == OracleVerdict::CompletenessBug ||
                     S.O.V == OracleVerdict::ExecDivergence;
    if (Violation && Opts.Shrink) {
      ShrinkResult SR =
          shrink(S.Source, S.O.V, Opts.Oracle, Opts.ShrinkOpts);
      // The shrinker guarantees (Source, Final) are consistent; prefer the
      // reduced program and its fresh oracle result.
      S.Source = std::move(SR.Source);
      S.O = std::move(SR.Final);
      S.ShrinkSteps = SR.Steps;
      S.ShrinkEvals = SR.Evals;
    }
  });

  FuzzSummary Sum;
  for (size_t I = 0; I != Slots.size(); ++I) {
    Slot &S = Slots[I];
    if (!S.Ran) {
      ++Sum.CasesSkipped;
      continue;
    }
    ++Sum.CasesRun;
    ++Sum.Counts[static_cast<int>(S.O.V)];
    Sum.ShrinkSteps += S.ShrinkSteps;
    Sum.ShrinkEvals += S.ShrinkEvals;
    switch (S.O.V) {
    case OracleVerdict::SoundnessBug:
    case OracleVerdict::TraceBug:
    case OracleVerdict::CompletenessBug:
    case OracleVerdict::ExecDivergence: {
      Finding F;
      F.Seed = Opts.Seed + I;
      F.V = S.O.V;
      F.Detail = S.O.Detail;
      F.Source = std::move(S.Source);
      F.ShrinkSteps = S.ShrinkSteps;
      F.MaxTs = Opts.Oracle.Kiss.MaxTs;
      F.MaxSwitches = Opts.Oracle.Kiss.MaxSwitches;
      F.BreakTransform = Opts.Oracle.Kiss.InjectBreakAsserts;
      Sum.Findings.push_back(std::move(F));
      break;
    }
    case OracleVerdict::Discard:
      if (Sum.DiscardDiagnostics.size() < 10)
        Sum.DiscardDiagnostics.push_back(S.O.DiscardDiagnostics);
      break;
    default:
      break;
    }
  }
  Sum.Interrupted = Cancel && Cancel->isCancelled();

  if (Rec) {
    Rec->addCounter("cases_requested", Opts.Cases);
    Rec->addCounter("cases_run", Sum.CasesRun);
    Rec->addCounter("cases_skipped", Sum.CasesSkipped);
    for (auto V : {OracleVerdict::Agree, OracleVerdict::SoundnessBug,
                   OracleVerdict::TraceBug, OracleVerdict::CompletenessBug,
                   OracleVerdict::ExecDivergence, OracleVerdict::Discard,
                   OracleVerdict::Inconclusive})
      Rec->addCounter(std::string("verdict_") + getOracleVerdictName(V),
                      Sum.Counts[static_cast<int>(V)]);
    Rec->addCounter("violations", Sum.violations());
    Rec->addCounter("shrink_steps", Sum.ShrinkSteps);
    Rec->addCounter("shrink_evals", Sum.ShrinkEvals);
    for (const Finding &F : Sum.Findings) {
      telemetry::CheckRecord C;
      C.Name = "seed-" + std::to_string(F.Seed);
      C.Outcome = getOracleVerdictName(F.V);
      Rec->addCheck(std::move(C));
    }
    if (Sum.Interrupted)
      Rec->setInterrupted(true);
  }
  return Sum;
}
