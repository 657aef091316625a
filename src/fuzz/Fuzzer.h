//===- Fuzzer.h - The differential fuzzing campaign runner ------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives N generate -> oracle -> shrink cases from one campaign seed.
/// Case I uses seed Seed+I; each case derives its own grammar variation
/// (varyOptions), runs the differential oracle, and — on a violation —
/// shrinks the program in-worker. Cases fan out over the parallelFor pool;
/// every worker writes only its own result slot and the summary is
/// aggregated after the join in case order, so the campaign's outcome and
/// telemetry are identical at every --jobs setting. Cancellation follows
/// the cancel-and-drain discipline: cases not yet started are skipped and
/// counted, never half-run.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_FUZZ_FUZZER_H
#define KISS_FUZZ_FUZZER_H

#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "fuzz/Shrinker.h"

#include <vector>

namespace kiss::telemetry {
class RunRecorder;
} // namespace kiss::telemetry

namespace kiss::fuzz {

/// Knobs of one campaign.
struct FuzzOptions {
  /// Campaign seed; case I runs generator seed Seed+I.
  uint64_t Seed = 1;
  /// Number of cases.
  uint64_t Cases = 100;
  /// Worker threads fanning the cases out (parallelFor semantics; 0 = all
  /// cores).
  unsigned Jobs = 1;
  /// If set, receives the campaign's verdict histogram, discard rate,
  /// shrink totals, and one check record per violation (all appended
  /// post-join, in case order — reports are byte-identical across job
  /// counts under ZeroTimings). Not owned.
  telemetry::RunRecorder *Recorder = nullptr;
  /// Grammar caps; each case draws its variation within these via
  /// varyOptions. With VaryGrammar off every case uses Grammar verbatim.
  GenOptions Grammar;
  bool VaryGrammar = true;
  /// Per-case oracle configuration (MAX, K, budgets, injection). Its
  /// Kiss.Common.Budget bounds every engine run of every case, and its
  /// cancellation token, if set, drains the campaign.
  OracleOptions Oracle;
  /// Shrink violations before reporting them.
  bool Shrink = true;
  ShrinkOptions ShrinkOpts;
};

/// One case that ended in a violation (soundness/trace/completeness), with
/// its shrunk repro.
struct Finding {
  uint64_t Seed = 0;
  OracleVerdict V = OracleVerdict::Agree;
  std::string Detail;
  /// Shrunk (or original, with Shrink off) source.
  std::string Source;
  unsigned ShrinkSteps = 0;
  unsigned MaxTs = 0;
  unsigned MaxSwitches = 2;
  bool BreakTransform = false;
};

/// Aggregate outcome of a campaign.
struct FuzzSummary {
  uint64_t CasesRun = 0;     ///< Cases actually executed.
  uint64_t CasesSkipped = 0; ///< Cases skipped by cancellation.
  /// Verdict histogram, indexed by OracleVerdict.
  uint64_t Counts[7] = {};
  uint64_t ShrinkSteps = 0;
  uint64_t ShrinkEvals = 0;
  bool Interrupted = false;
  /// The violations, in case order.
  std::vector<Finding> Findings;
  /// First few rendered diagnostics of discarded cases (the frontend
  /// error-location audit feeds on these).
  std::vector<std::string> DiscardDiagnostics;

  uint64_t violations() const {
    return Counts[static_cast<int>(OracleVerdict::SoundnessBug)] +
           Counts[static_cast<int>(OracleVerdict::TraceBug)] +
           Counts[static_cast<int>(OracleVerdict::CompletenessBug)] +
           Counts[static_cast<int>(OracleVerdict::ExecDivergence)];
  }
  uint64_t discards() const {
    return Counts[static_cast<int>(OracleVerdict::Discard)];
  }
};

/// Runs the campaign (see FuzzOptions).
FuzzSummary runCampaign(const FuzzOptions &Opts);

} // namespace kiss::fuzz

#endif // KISS_FUZZ_FUZZER_H
