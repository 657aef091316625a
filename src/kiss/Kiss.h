//===- Kiss.h - The public KISS checking API --------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's front door: a `kiss::Session` owns everything one
/// analysis run needs — compiler tables, diagnostics, telemetry and
/// budget plumbing — and runs the full Figure-1 pipeline (compile ->
/// transform -> sequential model check -> trace map-back) behind two
/// calls:
///
///   kiss::CheckConfig Cfg;
///   Cfg.MaxTs = 2;
///   kiss::Session S(Cfg);
///   auto P = S.compile("file.kiss", Source);
///   if (!P) { ... S.diagnostics() ... }
///   kiss::CheckResult R = S.check(*P);
///   if (R.foundError()) { ... R.Trace ... }
///
/// Every tool, bench, and harness in the repository goes through this
/// façade; nothing else constructs the transform/check pipeline by hand.
/// Stability expectations are documented in docs/api.md: CheckConfig and
/// Session are the supported surface; the layers underneath (Transform,
/// KissChecker, seqcheck) remain public headers but may change shape
/// between versions.
///
/// Programs returned by compile() borrow the session's symbol and type
/// tables: they must not outlive the Session that produced them, and a
/// Session must not be shared across threads (create one Session per
/// worker instead — they are cheap).
///
//===----------------------------------------------------------------------===//

#ifndef KISS_KISS_KISS_H
#define KISS_KISS_KISS_H

#include "kiss/KissChecker.h"
#include "seqcheck/CommonOptions.h"

#include <memory>
#include <string>
#include <vector>

namespace kiss::telemetry {
class Heartbeat;
} // namespace kiss::telemetry

namespace kiss::lower {
struct CompilerContext;
} // namespace kiss::lower

namespace kiss {

/// What a Session checks and under which knobs. Plain data; copy and
/// tweak freely between Sessions.
struct CheckConfig {
  enum class Mode : uint8_t {
    Assertions, ///< Figure 4: check user assertions.
    Race,       ///< Figure 5: check races on `Race` (plus assertions).
  };
  Mode M = Mode::Assertions;
  /// The monitored location (Mode::Race only).
  core::RaceTarget Race;
  /// The paper's MAX — ts multiset capacity (coverage/cost knob).
  unsigned MaxTs = 0;
  /// Context-switch bound K; 2 = the paper's Theorem 1, K > 2 adds
  /// (K-1)/2 suspend/resume rounds (see docs/LANGUAGE.md).
  unsigned MaxSwitches = 2;
  /// Prune race probes with the points-to analysis (§5).
  bool UseAliasAnalysis = true;
  /// Test-only sabotage switch (kissfuzz --break-transform).
  bool InjectBreakAsserts = false;
  /// State budget of the sequential exploration. Under the bebop engine
  /// the same knob bounds the number of path edges.
  uint64_t MaxStates = 1'000'000;
  /// Check backend (kisscheck --engine): Seq explicit-state (default),
  /// Bebop summaries (boolean-fragment programs only; other inputs reject
  /// with diagnostics), or Auto — bebop when the transformed program is in
  /// the fragment, seq otherwise with the reason recorded in
  /// CheckResult::EngineFallbackReason. See docs/api.md "Engines".
  rt::Engine Engine = rt::Engine::Seq;
  /// Execution engine of the sequential exploration (kisscheck --exec).
  /// Both engines are bit-identical in results; Threaded is the fast
  /// default, Interp the reference oracle.
  rt::ExecEngine Exec = rt::ExecEngine::Threaded;
  /// Visited-set storage mode (kisscheck --store): Flat keeps full
  /// encodings, Delta stores parent diffs with keyframes (smaller arena,
  /// identical verdicts and counts).
  rt::StoreMode Store = rt::StoreMode::Flat;
  /// Shared budget / recorder / jobs configuration. The recorder also
  /// receives the compile-phase spans of this session's compile() calls.
  rt::CommonOptions Common;
  /// If set, ticked during exploration (CLI --progress). Not owned.
  telemetry::Heartbeat *Progress = nullptr;
  /// If nonzero, sample the exploration time-series every this many
  /// interned states (kisscheck --sample-every; see
  /// rt::ExploreOptions::SampleEvery).
  uint64_t SampleEvery = 0;
  /// Collect the per-line hot-path profile (kisscheck --profile). The
  /// resolved rows land in CheckResult::Profile.
  bool Profile = false;
};

/// The result of one Session::check — the full end-to-end report
/// (verdict, mapped concurrent trace, exploration stats, the translated
/// program). See core::KissReport for the fields; foundError() and
/// boundReason() are the two entry points most callers need.
using CheckResult = core::KissReport;

/// One analysis run: owns the CompilerContext (symbols, types, source
/// manager, diagnostics) and the recorder/budget wiring that every layer
/// of the pipeline shares.
class Session {
public:
  explicit Session(CheckConfig C = CheckConfig());
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// The live configuration; mutable so one Session can run a sweep
  /// (adjusting MaxTs/MaxSwitches/Race between check() calls).
  CheckConfig &config() { return Cfg; }
  const CheckConfig &config() const { return Cfg; }

  /// Parses, type checks, and lowers \p Source. \returns null on error
  /// (see diagnostics()). The program borrows this session's tables.
  std::unique_ptr<lang::Program> compile(std::string Name,
                                         std::string Source);

  /// Runs the configured check on \p P (a program compiled by this
  /// session). Transform-level rejections surface as diagnostics
  /// (hasErrors()) with a BoundExceeded verdict.
  CheckResult check(const lang::Program &P);

  /// Parses "global" or "Struct.field" into a race target, validated
  /// against \p P. \returns false with \p Error set if no such location.
  bool resolveRaceTarget(const std::string &Spec, const lang::Program &P,
                         core::RaceTarget &Out, std::string &Error);

  /// Every race-checkable location of \p P ("g", "S.f"), globals first,
  /// in declaration order — the race-all worklist.
  std::vector<std::string> raceLocations(const lang::Program &P) const;

  /// Whether any compile()/check() so far reported an error diagnostic.
  bool hasErrors() const;
  /// All diagnostics rendered against this session's sources.
  std::string diagnostics() const;

  /// The underlying context — for trace formatting (source manager) and
  /// other read-mostly consumers. The Session stays the owner.
  lower::CompilerContext &context() { return *Ctx; }

private:
  CheckConfig Cfg;
  std::unique_ptr<lower::CompilerContext> Ctx;
};

} // namespace kiss

#endif // KISS_KISS_KISS_H
