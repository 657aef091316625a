//===- Result.h - Model-checking outcomes -----------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Outcome and counterexample types shared by the sequential and concurrent
/// model checkers.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SEQCHECK_RESULT_H
#define KISS_SEQCHECK_RESULT_H

#include "lang/AST.h"
#include "seqcheck/CommonOptions.h"
#include "support/Governor.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <vector>

namespace kiss {
class SourceManager;
} // namespace kiss

namespace kiss::rt {

enum class CheckOutcome : uint8_t {
  Safe,             ///< Exhaustive exploration found no violation.
  AssertionFailure, ///< A reachable assert() is false.
  RuntimeError,     ///< A reachable execution faults (null deref, ...).
  BoundExceeded,    ///< State/stack/thread budget hit: result inconclusive
                    ///< (the paper's "resource bound" outcome).
};

/// \returns a short human-readable name for \p O.
const char *getOutcomeName(CheckOutcome O);

/// One executed transition: thread \p Thread ran CFG node \p Node of
/// function \p Func.
struct TraceStep {
  uint32_t Thread = 0;
  uint32_t Func = 0;
  uint32_t Node = 0;
};

/// Exploration-side telemetry of one model-checking run, populated from
/// the visited-set StateStore and the BFS loop on every exit path (safe,
/// error, and budget-exceeded alike). All counters are deterministic for a
/// fixed input program and options.
struct ExplorationStats {
  /// intern() calls that found the state already visited.
  uint64_t DedupHits = 0;
  /// Occupied index slots inspected across all intern() probes.
  uint64_t HashProbes = 0;
  /// Full-key confirmations run after a 64-bit hash match.
  uint64_t KeyVerifies = 0;
  /// Confirmations that failed: genuine 64-bit hash collisions between
  /// distinct states (the hash-then-verify invariant absorbing them).
  uint64_t HashCollisions = 0;
  /// Bytes held by the store's encoding arena at exit.
  uint64_t ArenaBytes = 0;
  /// Bytes held by the store's hash index and record table at exit.
  /// ArenaBytes + IndexBytes is exactly what a gov::RunBudget memory
  /// budget accounts, so telemetry and governance agree on "memory".
  uint64_t IndexBytes = 0;
  /// Largest BFS frontier (queued, unexpanded states) seen.
  uint64_t FrontierPeak = 0;
  /// Deepest BFS layer reached (root = 0).
  uint64_t DepthMax = 0;
};

/// One point of the deterministic exploration time-series: a snapshot of
/// the run's counters taken at the top of the BFS loop every time the
/// visited-state count crosses a multiple of the configured sampling
/// stride. Keyed by States (not wall clock), so for a fixed input the
/// whole series is byte-identical across engines and --jobs settings;
/// only WallMs varies and is zeroed under ReportOptions::ZeroTimings.
struct ExplorationSample {
  uint64_t States = 0;      ///< Distinct states interned so far.
  uint64_t Transitions = 0; ///< Transitions explored so far.
  uint64_t DedupHits = 0;   ///< Dedup hits so far.
  uint64_t Frontier = 0;    ///< States queued but not yet expanded.
  uint64_t ArenaBytes = 0;  ///< Store arena footprint at the sample.
  uint64_t IndexBytes = 0;  ///< Store index footprint at the sample.
  uint64_t DepthMax = 0;    ///< Deepest BFS layer reached so far.
  double WallMs = 0;        ///< Wall time since the check started.
};

/// Raw per-CFG-node profile counters from one run, in deterministic
/// (Func, Node) order. Both engines attribute work to the CFG node being
/// expanded, so the vectors are bit-identical across --exec engines.
struct NodeProfile {
  uint32_t Func = 0;
  uint32_t Node = 0;
  uint64_t States = 0;      ///< Expansions of this node (popped states).
  uint64_t Transitions = 0; ///< Successors generated from this node.
  uint64_t DedupHits = 0;   ///< Successors that were already visited.
};

/// One row of the source-resolved profile: NodeProfile counters merged by
/// presumed file:line. Synthetic nodes with no source location fold into
/// the "<synthetic>":0 row.
struct LineProfile {
  std::string File;
  uint32_t Line = 0;
  uint64_t States = 0;
  uint64_t Transitions = 0;
  uint64_t DedupHits = 0;
};

/// The result of one model-checking run.
struct CheckResult {
  CheckOutcome Outcome = CheckOutcome::Safe;
  /// Why a BoundExceeded outcome stopped short (None otherwise).
  gov::BoundReason Bound = gov::BoundReason::None;
  std::string Message;
  SourceLoc ErrorLoc;
  /// Root-to-error transition sequence (errors only).
  std::vector<TraceStep> Trace;
  uint64_t StatesExplored = 0;
  uint64_t TransitionsExplored = 0;
  ExplorationStats Exploration;
  /// Exploration time-series (empty unless SampleEvery was set).
  std::vector<ExplorationSample> Series;
  /// Raw per-node profile (empty unless Profile was set). Resolve to
  /// source lines with resolveProfile().
  std::vector<NodeProfile> Profile;
  /// Which search produced the result (its check record's identity): the
  /// execution engine, and whether it was the conc engine (which steps
  /// threads with the interpreter) rather than the sequential checker.
  ExecEngine Exec = ExecEngine::Threaded;
  bool Conc = false;

  bool foundError() const {
    return Outcome == CheckOutcome::AssertionFailure ||
           Outcome == CheckOutcome::RuntimeError;
  }
};

} // namespace kiss::rt

namespace kiss::cfg {
class ProgramCFG;
} // namespace kiss::cfg

namespace kiss::telemetry {
struct CheckRecord;
} // namespace kiss::telemetry

namespace kiss::rt {

/// Renders \p Trace as readable lines (one statement per step, with thread
/// ids and source positions where available). Steps on synthetic junction
/// nodes are omitted.
std::string formatTrace(const std::vector<TraceStep> &Trace,
                        const lang::Program &P, const cfg::ProgramCFG &CFG,
                        const SourceManager *SM = nullptr);

/// Resolves a raw per-node profile to source lines: maps each (Func, Node)
/// through the CFG node's statement location and \p SM's presumed
/// locations, merges rows that land on the same file:line, and sorts the
/// result by States desc, Transitions desc, File asc, Line asc. Nodes with
/// no usable location (synthetic junctions, or a null \p SM) merge into a
/// single "<synthetic>":0 row. Deterministic for a fixed input.
std::vector<LineProfile> resolveProfile(const std::vector<NodeProfile> &Raw,
                                        const cfg::ProgramCFG &CFG,
                                        const SourceManager *SM);

/// Builds the check record of raw result \p R, named \p Name and timed at
/// \p WallMs: everything else comes from R, plus \p Profile (R.Profile
/// resolved by resolveProfile, if wanted).
telemetry::CheckRecord
makeCheckRecord(const CheckResult &R, std::string Name, double WallMs,
                const std::vector<LineProfile> &Profile = {});

} // namespace kiss::rt

#endif // KISS_SEQCHECK_RESULT_H
