//===- CommonOptions.h - Shared run-configuration knobs ---------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The budget/recorder/jobs triple every multi-check entry point needs,
/// factored into one struct so the KISS checker and the corpus runner
/// agree on what "common run configuration" means. ExploreOptions holds
/// the knobs of the exploration shell that every explicit-state engine's
/// options extend; core::exploreOptions derives them, budget included,
/// from a CheckConfig.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SEQCHECK_COMMONOPTIONS_H
#define KISS_SEQCHECK_COMMONOPTIONS_H

#include "support/Governor.h"

#include <string_view>

namespace kiss::telemetry {
class Heartbeat;
class RunRecorder;
} // namespace kiss::telemetry

namespace kiss::rt {

/// Which execution engine drives the sequential exploration. Both engines
/// implement the same transition relation over the same canonical state
/// encoding and produce bit-identical results (verdicts, traces, and every
/// ExplorationStats counter); Threaded is the fast path, Interp the simple
/// reference kept alive as the differential oracle.
enum class ExecEngine : uint8_t {
  Interp,   ///< The stepThread engine (seqcheck::checkProgramInterp):
            ///< the CFG-walking transition relation of seqcheck/Step.cpp,
            ///< the same engine conc runs with async allowed.
  Threaded, ///< Flat pre-lowered instruction stream + in-place successor
            ///< encoding (seqcheck/exec/), the default.
};

/// How the visited-state store keeps encoded states.
enum class StoreMode : uint8_t {
  Flat,  ///< Every state stored as its full encoding (fastest).
  Delta, ///< States stored as byte diffs against their BFS parent with
         ///< periodic full keyframes (smallest arena).
};

inline const char *getExecEngineName(ExecEngine E) {
  return E == ExecEngine::Interp ? "interp" : "threaded";
}

inline bool parseExecEngine(std::string_view S, ExecEngine &Out) {
  if (S == "interp")
    Out = ExecEngine::Interp;
  else if (S == "threaded")
    Out = ExecEngine::Threaded;
  else
    return false;
  return true;
}

/// Which check backend answers a reachability query. Seq is the
/// explicit-state engine (the default); Bebop is the summary-based
/// boolean-program engine, applicable only to programs inside the boolean
/// fragment (bebop::isBooleanFragment); Auto picks Bebop when the
/// *transformed* program is in the fragment and falls back to Seq with a
/// recorded reason otherwise.
enum class Engine : uint8_t {
  Seq,
  Bebop,
  Auto,
};

inline const char *getEngineName(Engine E) {
  switch (E) {
  case Engine::Seq:
    return "seq";
  case Engine::Bebop:
    return "bebop";
  case Engine::Auto:
    return "auto";
  }
  return "seq";
}

inline bool parseEngine(std::string_view S, Engine &Out) {
  if (S == "seq")
    Out = Engine::Seq;
  else if (S == "bebop")
    Out = Engine::Bebop;
  else if (S == "auto")
    Out = Engine::Auto;
  else
    return false;
  return true;
}

inline const char *getStoreModeName(StoreMode M) {
  return M == StoreMode::Flat ? "flat" : "delta";
}

inline bool parseStoreMode(std::string_view S, StoreMode &Out) {
  if (S == "flat")
    Out = StoreMode::Flat;
  else if (S == "delta")
    Out = StoreMode::Delta;
  else
    return false;
  return true;
}

/// The knobs of the exploration shell (rt::Explorer), shared by every
/// explicit-state engine; seqcheck::SeqOptions and conc::ConcOptions
/// extend it with their engine's own.
struct ExploreOptions {
  /// State budget: the run stops with BoundReason::States once more
  /// distinct states than this are interned.
  uint64_t MaxStates = 1'000'000;
  /// Deadline / memory / cancellation budget, checked from the BFS hot
  /// loop. A default budget never trips.
  gov::RunBudget Budget;
  /// If set, ticked once per expanded state with (distinct states,
  /// frontier size) — the CLI's --progress heartbeat. Not owned.
  telemetry::Heartbeat *Progress = nullptr;
  /// Visited-set storage: full encodings (Flat) or parent diffs with
  /// keyframes (Delta). Verdicts and counts are identical; only
  /// ArenaBytes (and speed) differ.
  StoreMode Store = StoreMode::Flat;
  /// If nonzero, snapshot an rt::ExplorationSample into
  /// CheckResult::Series every time the visited-state count crosses a
  /// multiple of this stride. Samples are keyed by state count and are
  /// byte-identical across engines (see rt::ExplorationSample).
  uint64_t SampleEvery = 0;
  /// Collect the per-CFG-node hot-path profile into CheckResult::Profile.
  /// Attribution is bit-identical across --exec engines.
  bool Profile = false;
};

/// Run configuration shared by every entry point that can fan out over
/// multiple checks: CheckConfig and CorpusRunOptions embed one of these.
struct CommonOptions {
  /// Per-check deadline / memory / cancellation budget. A default budget
  /// never trips.
  gov::RunBudget Budget;
  /// Telemetry sink for phase spans, counters, and check records. Not
  /// owned; null means telemetry is off.
  telemetry::RunRecorder *Recorder = nullptr;
  /// Worker threads for entry points that fan out (race-all, per-field
  /// corpus runs); 0 = all hardware threads. Single-check entry points
  /// ignore it.
  unsigned Jobs = 1;
};

} // namespace kiss::rt

#endif // KISS_SEQCHECK_COMMONOPTIONS_H
