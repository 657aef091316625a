//===- Result.cpp ---------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "seqcheck/Result.h"

#include "cfg/CFG.h"
#include "lang/ASTPrinter.h"
#include "support/SourceManager.h"
#include "telemetry/Telemetry.h"

#include <algorithm>

using namespace kiss;
using namespace kiss::rt;

const char *rt::getOutcomeName(CheckOutcome O) {
  switch (O) {
  case CheckOutcome::Safe:
    return "safe";
  case CheckOutcome::AssertionFailure:
    return "assertion failure";
  case CheckOutcome::RuntimeError:
    return "runtime error";
  case CheckOutcome::BoundExceeded:
    return "bound exceeded";
  }
  return "?";
}

std::string rt::formatTrace(const std::vector<TraceStep> &Trace,
                            const lang::Program &P,
                            const cfg::ProgramCFG &CFG,
                            const SourceManager *SM) {
  const SymbolTable &Syms = P.getSymbolTable();
  std::string Out;
  for (const TraceStep &Step : Trace) {
    const cfg::Node &N = CFG.getFunctionCFG(Step.Func).getNode(Step.Node);
    if (!N.S)
      continue; // Synthetic junction/exit: nothing to show.
    if (N.Kind == cfg::NodeKind::Nop || N.Kind == cfg::NodeKind::AtomicBegin ||
        N.Kind == cfg::NodeKind::AtomicEnd)
      continue;
    Out += "[t" + std::to_string(Step.Thread) + "] ";
    Out += Syms.str(P.getFunction(Step.Func)->getName());
    Out += ": ";
    std::string Text = lang::printStmt(N.S, Syms);
    // Trim the trailing newline and inner indentation for one-line steps.
    while (!Text.empty() && (Text.back() == '\n' || Text.back() == ' '))
      Text.pop_back();
    // Multi-line statements (compound) print only their head line.
    if (auto NL = Text.find('\n'); NL != std::string::npos)
      Text.resize(NL);
    Out += Text;
    if (SM && N.S->getLoc().isValid()) {
      PresumedLoc PL = SM->getPresumedLoc(N.S->getLoc());
      if (PL.isValid())
        Out += "   // " + PL.BufferName + ":" + std::to_string(PL.Line);
    }
    Out += '\n';
  }
  return Out;
}

std::vector<LineProfile>
rt::resolveProfile(const std::vector<NodeProfile> &Raw,
                   const cfg::ProgramCFG &CFG, const SourceManager *SM) {
  std::vector<LineProfile> Rows;
  auto merge = [&Rows](std::string File, uint32_t Line, const NodeProfile &NP) {
    for (LineProfile &R : Rows)
      if (R.Line == Line && R.File == File) {
        R.States += NP.States;
        R.Transitions += NP.Transitions;
        R.DedupHits += NP.DedupHits;
        return;
      }
    Rows.push_back({std::move(File), Line, NP.States, NP.Transitions,
                    NP.DedupHits});
  };
  for (const NodeProfile &NP : Raw) {
    const cfg::Node &N = CFG.getFunctionCFG(NP.Func).getNode(NP.Node);
    std::string File = "<synthetic>";
    uint32_t Line = 0;
    if (SM && N.S && N.S->getLoc().isValid()) {
      PresumedLoc PL = SM->getPresumedLoc(N.S->getLoc());
      if (PL.isValid()) {
        File = PL.BufferName;
        Line = PL.Line;
      }
    }
    merge(std::move(File), Line, NP);
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const LineProfile &A, const LineProfile &B) {
              if (A.States != B.States)
                return A.States > B.States;
              if (A.Transitions != B.Transitions)
                return A.Transitions > B.Transitions;
              if (A.File != B.File)
                return A.File < B.File;
              return A.Line < B.Line;
            });
  return Rows;
}

telemetry::CheckRecord
rt::makeCheckRecord(const CheckResult &R, std::string Name, double WallMs,
                    const std::vector<LineProfile> &Profile) {
  telemetry::CheckRecord C;
  C.Name = std::move(Name);
  C.Outcome = getOutcomeName(R.Outcome);
  C.WallMs = WallMs;
  C.States = R.StatesExplored;
  C.Transitions = R.TransitionsExplored;
  C.DedupHits = R.Exploration.DedupHits;
  C.HashProbes = R.Exploration.HashProbes;
  C.KeyVerifies = R.Exploration.KeyVerifies;
  C.HashCollisions = R.Exploration.HashCollisions;
  C.ArenaBytes = R.Exploration.ArenaBytes;
  C.IndexBytes = R.Exploration.IndexBytes;
  C.FrontierPeak = R.Exploration.FrontierPeak;
  C.DepthMax = R.Exploration.DepthMax;
  C.BoundReason = gov::getBoundReasonName(R.Bound);
  C.ExecEngine = getExecEngineName(R.Exec);
  C.Engine = R.Conc ? "conc" : "seq";
  C.Series.reserve(R.Series.size());
  for (const ExplorationSample &S : R.Series)
    C.Series.push_back({S.States, S.Transitions, S.DedupHits, S.Frontier,
                        S.ArenaBytes, S.IndexBytes, S.DepthMax, S.WallMs});
  C.Profile.reserve(Profile.size());
  for (const LineProfile &P : Profile)
    C.Profile.push_back({P.File, P.Line, P.States, P.Transitions,
                         P.DedupHits});
  return C;
}
