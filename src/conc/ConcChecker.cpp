//===- ConcChecker.cpp ----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "conc/ConcChecker.h"

#include "seqcheck/SeqChecker.h"

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::conc;

CheckResult conc::checkProgram(const lang::Program &P,
                               const cfg::ProgramCFG &CFG,
                               const ConcOptions &Opts) {
  StepOptions SO;
  SO.AllowAsync = true;
  SO.MaxThreads = Opts.MaxThreads;
  SO.MaxFrames = Opts.MaxFrames;
  CheckResult R = seqcheck::checkProgramInterp(P, CFG, Opts, SO,
                                               Opts.ContextSwitchBound);
  R.Conc = true;
  return R;
}
