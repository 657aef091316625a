//===- kisscheck.cpp - The KISS command-line checker ----------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end mirroring Figure 1: read a concurrent program in
/// the modeling language, translate it, model check the translation, and
/// report the mapped concurrent error trace. The whole pipeline runs
/// through kiss::Session (src/kiss/Kiss.h); this file is flag parsing,
/// I/O, and report plumbing.
///
///   kisscheck file.kiss                          assertion check, MAX=0
///   kisscheck --max-ts=2 file.kiss               assertion check, MAX=2
///   kisscheck --max-switches=4 file.kiss         K=4 round-aware check
///   kisscheck --race=g file.kiss                 race check on global g
///   kisscheck --race=S.f file.kiss               race check on field S.f
///   kisscheck --engine=conc file.kiss            ground-truth interleaving
///                                                exploration instead
///   kisscheck --dump-translation file.kiss       print the sequential
///                                                program and exit
///   kisscheck --dump-cfg file.kiss               print CFGs (dot) and exit
///   kisscheck --report=out.json file.kiss        machine-readable telemetry
///   kisscheck --progress=5 file.kiss             heartbeats during long runs
///   kisscheck --max-states=N ... --no-alias ...  budgets / ablations
///   kisscheck --timeout=20 --memory-budget=800   the paper's §6 resource
///                                                bound, literally
///
/// Exit codes: 0 = no error found, 1 = error found, 2 = usage/compile/IO
/// problem, 3 = bound exceeded or interrupted (SIGINT/SIGTERM cancel the
/// run cooperatively and flush a partial --report marked
/// "interrupted": true). The full contract lives in docs/robustness.md and
/// cli::exitCode.
///
//===----------------------------------------------------------------------===//

#include "conc/ConcChecker.h"
#include "drivers/Bluetooth.h"
#include "kiss/Config.h"
#include "kiss/Kiss.h"
#include "lang/ASTPrinter.h"
#include "lower/Pipeline.h"
#include "support/Cli.h"
#include "support/Governor.h"
#include "support/Parallel.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace kiss;
using namespace kiss::core;

namespace {

/// The process-wide cancellation token: set by SIGINT/SIGTERM (and by the
/// --inject-cancel-at test hook), polled cooperatively by every checker.
gov::CancellationToken GlobalCancel;

extern "C" void handleTerminationSignal(int) { GlobalCancel.requestCancel(); }

struct CliOptions {
  /// The shared check configuration — populated by the config::addFlags
  /// table (and --config=FILE), so the knobs parse exactly like the kissd
  /// request schema.
  CheckConfig Cfg;
  std::string InputFile;
  std::string RaceTargetSpec;
  bool RaceAll = false;
  bool DumpTranslation = false;
  bool DumpCfg = false;
  bool UseConcEngine = false;
  bool ShowStats = false;
  bool Demo = false;
  std::string ReportPath;  ///< --report=<path>; empty = no report.
  std::string TracePath;   ///< --trace=<path>; empty = no trace.
  unsigned ProfileTopN = 10;   ///< --profile=N table depth.
  bool ZeroTimings = false;
  double ProgressSec = 0;  ///< --progress interval; 0 = no heartbeats.
};

/// The flag table. Shared spellings (--jobs, --timeout, --memory-budget,
/// --report, --zero-timings, --max-switches, --progress) match kissfuzz.
cli::ArgParser makeParser(CliOptions &Opts) {
  cli::ArgParser P("usage: kisscheck [options] <file.kiss>");
  P.custom("race", "<loc>",
           "check races on one location: a global name or Struct.field",
           [&Opts](const std::string &V, std::string &E) {
             if (V.empty()) {
               E = "--race needs a location";
               return false;
             }
             Opts.RaceTargetSpec = V;
             return true;
           });
  P.flag("race-all", Opts.RaceAll, "check every global and field");
  P.custom("config", "<file>",
           "load check configuration from a JSON file (the schema\n"
           "of docs/service.md; same keys as the kissd request\n"
           "API); later flags override the file's settings",
           [&Opts](const std::string &V, std::string &E) {
             return config::loadFile(V, Opts.Cfg, E);
           });
  // The shared knob surface — one table serves kisscheck, kissd, and
  // kissctl (docs/api.md "Stability expectations"). --engine and
  // --profile are excluded: kisscheck wraps them below with the
  // conc/kiss aliases and the optional table depth.
  config::addFlags(P, Opts.Cfg, {"engine", "profile"});
  P.custom("engine", "<seq|bebop|auto|conc>",
           "check backend for the Figure-4 sequentialization:\n"
           "seq (default; alias: kiss) = explicit-state exploration;\n"
           "bebop = summary-based boolean-program engine (rejects\n"
           "programs outside the boolean fragment, exit 2);\n"
           "auto = bebop when the translated program is in the\n"
           "fragment, seq otherwise (reason recorded in the report);\n"
           "conc = explore all interleavings instead (ground truth)",
           [&Opts](const std::string &V, std::string &E) {
             Opts.UseConcEngine = false;
             std::string Err;
             if (V == "conc")
               Opts.UseConcEngine = true;
             else if (!config::setField(Opts.Cfg, "engine",
                                        V == "kiss" ? "seq" : V, Err)) {
               E = "--engine needs seq, bebop, auto, or conc";
               return false;
             }
             return true;
           });
  P.flag("dump-translation", Opts.DumpTranslation,
         "print the sequential program");
  P.flag("dump-cfg", Opts.DumpCfg, "print the CFGs in dot syntax");
  P.flag("report", Opts.ReportPath, "<path>",
         "write a machine-readable JSON run report\n"
         "(schema_version 5: phase spans, counters, per-check\n"
         "exploration records, series, profile; see\n"
         "docs/observability.md)");
  P.flag("trace", Opts.TracePath, "<path>",
         "write a Chrome/Perfetto trace-event JSON file (phase\n"
         "spans, per-check slices, sampled counter tracks); open\n"
         "it in chrome://tracing or ui.perfetto.dev");
  P.custom("profile", "<n>",
           "collect the per-line hot-path profile (states,\n"
           "transitions, dedup hits by source line), print the\n"
           "top-<n> table (default 10), and embed the full profile\n"
           "in the report; identical across --exec engines",
           [&Opts](const std::string &V, std::string &E) {
             Opts.Cfg.Profile = true;
             if (V.empty())
               return true;
             char *End = nullptr;
             unsigned long N = std::strtoul(V.c_str(), &End, 10);
             if (End == V.c_str() || *End != '\0' || N == 0) {
               E = "--profile needs a positive table depth";
               return false;
             }
             Opts.ProfileTopN = static_cast<unsigned>(N);
             return true;
           },
           /*ValueOptional=*/true);
  P.flag("zero-timings", Opts.ZeroTimings,
         "zero wall_ms fields of the --report (byte-identical\n"
         "reports across runs and --jobs settings)");
  P.custom("progress", "<secs>",
           "print heartbeats (states, states/s, frontier size) to\n"
           "stderr every <secs> seconds (default 2) during\n"
           "exploration",
           [&Opts](const std::string &V, std::string &E) {
             if (V.empty()) {
               Opts.ProgressSec = 2.0;
               return true;
             }
             char *End = nullptr;
             Opts.ProgressSec = std::strtod(V.c_str(), &End);
             if (End == V.c_str() || *End != '\0' || Opts.ProgressSec <= 0) {
               E = "--progress needs a positive interval";
               return false;
             }
             return true;
           },
           /*ValueOptional=*/true);
  P.flag("stats", Opts.ShowStats,
         "print exploration statistics: states, transitions,\n"
         "dedup hits, hash probes/verifies/collisions, arena\n"
         "bytes, frontier peak, BFS depth, probe counts");
  P.flag("demo", Opts.Demo, "check the built-in Figure-2 model");
  P.custom("inject-trip", "<n>:<reason>",
           "(testing) trip the budget at governor tick <n> with\n"
           "reason deadline|memory — deterministic stand-in for a\n"
           "real budget trip",
           [&Opts](const std::string &V, std::string &E) {
             auto Colon = V.find(':');
             if (Colon == std::string::npos) {
               E = "--inject-trip needs <tick>:<reason>";
               return false;
             }
             gov::RunBudget &B = Opts.Cfg.Common.Budget;
             B.TripAtTick = std::strtoull(V.c_str(), nullptr, 10);
             if (B.TripAtTick == 0 ||
                 !gov::parseBoundReason(V.substr(Colon + 1), B.TripReason)) {
               E = "--inject-trip needs a positive tick and a reason "
                   "(deadline|memory|states|cancelled)";
               return false;
             }
             return true;
           });
  P.flagPositive("inject-cancel-at", Opts.Cfg.Common.Budget.CancelAtTick,
                 "<n>",
                 "(testing) simulate SIGINT at governor tick <n>:\n"
                 "cancel, drain, flush a partial report with\n"
                 "interrupted: true, exit 3");
  P.positional(Opts.InputFile);
  P.footer("exit codes: 0 no error found; 1 error found; 2 usage/compile/IO\n"
           "problem; 3 bound exceeded or interrupted (see docs/robustness.md)");
  return P;
}

/// The shared Session configuration for this invocation's checks: the
/// parsed knobs (the config table, the test trips, the process-wide
/// cancellation) plus the recorder and heartbeat.
CheckConfig makeConfig(const CliOptions &Opts, telemetry::RunRecorder *Rec,
                       telemetry::Heartbeat *Beat) {
  CheckConfig Cfg = Opts.Cfg;
  Cfg.Common.Recorder = Rec;
  Cfg.Progress = Beat;
  return Cfg;
}

/// Prints the --profile top-N file:line table.
void printProfile(const std::vector<rt::LineProfile> &Profile,
                  unsigned TopN) {
  std::printf("\nhot paths (top %zu of %zu lines, by states expanded):\n",
              std::min<size_t>(TopN, Profile.size()), Profile.size());
  std::printf("%-36s %10s %12s %12s\n", "file:line", "states", "transitions",
              "dedup hits");
  for (size_t I = 0; I != Profile.size() && I != TopN; ++I) {
    const rt::LineProfile &Row = Profile[I];
    std::string Loc = Row.Line == 0
                          ? Row.File
                          : Row.File + ":" + std::to_string(Row.Line);
    std::printf("%-36s %10llu %12llu %12llu\n", Loc.c_str(),
                static_cast<unsigned long long>(Row.States),
                static_cast<unsigned long long>(Row.Transitions),
                static_cast<unsigned long long>(Row.DedupHits));
  }
}

/// Prints the full per-run exploration statistics (--stats).
void printExplorationStats(const rt::CheckResult &R) {
  const rt::ExplorationStats &E = R.Exploration;
  std::printf("sequential states: %llu, transitions: %llu\n",
              static_cast<unsigned long long>(R.StatesExplored),
              static_cast<unsigned long long>(R.TransitionsExplored));
  std::printf("dedup hits: %llu, hash probes: %llu, key verifies: %llu, "
              "hash collisions: %llu\n",
              static_cast<unsigned long long>(E.DedupHits),
              static_cast<unsigned long long>(E.HashProbes),
              static_cast<unsigned long long>(E.KeyVerifies),
              static_cast<unsigned long long>(E.HashCollisions));
  std::printf("arena bytes: %llu, index bytes: %llu, frontier peak: %llu, "
              "depth max: %llu\n",
              static_cast<unsigned long long>(E.ArenaBytes),
              static_cast<unsigned long long>(E.IndexBytes),
              static_cast<unsigned long long>(E.FrontierPeak),
              static_cast<unsigned long long>(E.DepthMax));
  std::printf("bound reason: %s\n", gov::getBoundReasonName(R.Bound));
}

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Writes the report (--report) and the trace-event file (--trace), each
/// if requested. \returns false on any I/O failure.
bool maybeWriteReport(const CliOptions &Opts, telemetry::RunRecorder &Rec) {
  bool Ok = true;
  if (!Opts.ReportPath.empty()) {
    telemetry::ReportOptions RO;
    RO.ZeroTimings = Opts.ZeroTimings;
    Ok &= telemetry::writeReport(Rec, Opts.ReportPath, RO);
  }
  if (!Opts.TracePath.empty())
    Ok &= telemetry::writeTrace(Rec, Opts.TracePath);
  return Ok;
}

/// One race-all task: checks race location \p Loc of \p Source in its own
/// Session (the transform interns symbols into the program's table, so
/// tasks cannot share one), sets \p Verdict and \returns the location's
/// check record, built as soon as the check returns.
telemetry::CheckRecord checkLocation(const CliOptions &Opts,
                                     const std::string &Name,
                                     const std::string &Source,
                                     const std::string &Loc,
                                     KissVerdict &Verdict) {
  auto Start = std::chrono::steady_clock::now();
  auto Record = [&](const KissReport &R) {
    Verdict = R.Verdict;
    return makeCheckRecord(R, Name + ":" + Loc, msSince(Start));
  };
  // Cancel-and-drain: locations not yet started degrade to a cancelled
  // bound-exceeded report without running; locations already exploring
  // trip through their own governor.
  if (GlobalCancel.isCancelled()) {
    KissReport R = stoppedReport(gov::BoundReason::Cancelled);
    R.Sequential.Exec = Opts.Cfg.Exec;
    return Record(R);
  }
  // The recorder is shared at the run level, so tasks must not also
  // stream compile spans into it concurrently.
  CheckConfig Cfg = makeConfig(Opts, /*Rec=*/nullptr, /*Beat=*/nullptr);
  Cfg.M = CheckConfig::Mode::Race;
  Session Task(Cfg);
  auto TaskP = Task.compile(Name, Source);
  std::string Error;
  if (!TaskP ||
      !Task.resolveRaceTarget(Loc, *TaskP, Task.config().Race, Error))
    return Record(stoppedReport(gov::BoundReason::Fault)); // Cannot happen.
  return Record(Task.check(*TaskP));
}

/// The paper's per-field workflow: one race check per global and per
/// struct field, with a summary table (§6). Locations fan out over
/// --jobs workers; their check records are appended after the join, in
/// location order, so reports are deterministic at every job count.
int runRaceAll(Session &S, const lang::Program &P, const CliOptions &Opts,
               const std::string &Name, const std::string &Source,
               telemetry::RunRecorder &Rec) {
  std::vector<std::string> Locations = S.raceLocations(P);
  std::vector<KissVerdict> Verdicts(Locations.size());
  std::vector<telemetry::CheckRecord> Records(Locations.size());
  parallelFor(Locations.size(), Opts.Cfg.Common.Jobs, [&](size_t I) {
    Records[I] = checkLocation(Opts, Name, Source, Locations[I], Verdicts[I]);
  });

  unsigned Races = 0, Clean = 0, Other = 0;
  bool FoundError = false, Bounded = false;
  std::printf("%-40s %-20s %10s\n", "location", "verdict", "states");
  for (size_t I = 0; I != Locations.size(); ++I) {
    const telemetry::CheckRecord &C = Records[I];
    std::string VerdictText = C.Outcome;
    if (Verdicts[I] == KissVerdict::BoundExceeded && C.BoundReason != "none")
      VerdictText += " (" + C.BoundReason + ")";
    std::printf("%-40s %-20s %10llu\n", Locations[I].c_str(),
                VerdictText.c_str(), static_cast<unsigned long long>(C.States));
    if (Verdicts[I] == KissVerdict::RaceDetected)
      ++Races;
    else if (Verdicts[I] == KissVerdict::NoErrorFound)
      ++Clean;
    else
      ++Other;
    FoundError |= Verdicts[I] != KissVerdict::NoErrorFound &&
                  Verdicts[I] != KissVerdict::BoundExceeded;
    Bounded |= Verdicts[I] == KissVerdict::BoundExceeded;
    Rec.addCheck(C);
  }
  Rec.addCounter("locations_checked", Locations.size());
  Rec.addCounter("races", Races);
  Rec.addCounter("clean", Clean);
  Rec.addCounter("inconclusive", Other);
  std::printf("\nsummary: %u race(s), %u clean, %u inconclusive over %zu "
              "locations\n", Races, Clean, Other, Locations.size());
  if (GlobalCancel.isCancelled()) {
    // Interrupted run: flush what we have as a valid *partial* report
    // marked interrupted, then exit through the bound-exceeded code.
    Rec.setInterrupted(true);
    std::printf("run interrupted; partial results above\n");
    if (!maybeWriteReport(Opts, Rec))
      return cli::ExitUsage;
    return cli::ExitBoundExceeded;
  }
  if (!maybeWriteReport(Opts, Rec))
    return cli::ExitUsage;
  // An error at any location outranks locations left inconclusive: the
  // error is real whatever the other locations would have shown.
  if (FoundError)
    return cli::ExitErrorFound;
  return cli::exitCode(/*FoundError=*/false, Bounded);
}

/// --engine=conc: the ground-truth interleaving exploration. This is the
/// oracle side of Theorem 1, deliberately outside the Session pipeline.
int runConcEngine(const lang::Program &P, const CheckConfig &Cfg,
                  const CliOptions &Opts, const lower::CompilerContext &Ctx,
                  telemetry::RunRecorder &Rec, const std::string &Name) {
  auto CfgSpan = Rec.beginPhase("cfg");
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(P);
  CfgSpan.end();

  conc::ConcOptions CO{core::exploreOptions(Cfg)};
  auto Start = std::chrono::steady_clock::now();
  auto CheckSpan = Rec.beginPhase("check");
  rt::CheckResult R = conc::checkProgram(P, CFG, CO);
  CheckSpan.counter("states", R.StatesExplored);
  CheckSpan.counter("transitions", R.TransitionsExplored);
  CheckSpan.end();
  std::vector<rt::LineProfile> Prof;
  if (Cfg.Profile)
    Prof = rt::resolveProfile(R.Profile, CFG, &Ctx.SM);
  Rec.addCheck(rt::makeCheckRecord(R, Name, msSince(Start), Prof));

  if (R.Outcome == rt::CheckOutcome::BoundExceeded &&
      R.Bound != gov::BoundReason::None)
    std::printf("verdict: %s (%s)\n", rt::getOutcomeName(R.Outcome),
                gov::getBoundReasonName(R.Bound));
  else
    std::printf("verdict: %s\n", rt::getOutcomeName(R.Outcome));
  if (!R.Message.empty())
    std::printf("detail: %s\n", R.Message.c_str());
  if (R.foundError())
    std::printf("trace:\n%s",
                rt::formatTrace(R.Trace, P, CFG, &Ctx.SM).c_str());
  if (Opts.ShowStats)
    printExplorationStats(R);
  if (Cfg.Profile)
    printProfile(Prof, Opts.ProfileTopN);
  if (R.Bound == gov::BoundReason::Cancelled || GlobalCancel.isCancelled())
    Rec.setInterrupted(true);
  if (!maybeWriteReport(Opts, Rec))
    return cli::ExitUsage;
  return cli::exitCode(R.foundError(),
                       R.Outcome == rt::CheckOutcome::BoundExceeded);
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  cli::ArgParser Parser = makeParser(Opts);
  if (!Parser.parse(Argc, Argv) || (!Opts.Demo && Opts.InputFile.empty())) {
    std::fprintf(stderr, "%s", Parser.usage().c_str());
    return cli::ExitUsage;
  }

  // Cooperative shutdown: the first SIGINT/SIGTERM cancels every running
  // and queued check; the run drains, flushes a partial report marked
  // interrupted, and exits 3 (never a crash, never a lost report).
  std::signal(SIGINT, handleTerminationSignal);
  std::signal(SIGTERM, handleTerminationSignal);
  // Every check of the run shares GlobalCancel, so one SIGINT drains
  // them all.
  Opts.Cfg.Common.Budget.Cancel = &GlobalCancel;

  std::string Source;
  std::string Name;
  if (Opts.Demo) {
    Source = drivers::getBluetoothSource();
    Name = "bluetooth.kiss";
  } else {
    std::ifstream In(Opts.InputFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   Opts.InputFile.c_str());
      return cli::ExitUsage;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
    Name = Opts.InputFile;
  }

  // One recorder per invocation; phases/counters/checks are recorded
  // unconditionally (the cost is negligible) and written only with
  // --report.
  telemetry::RunRecorder Rec;
  Rec.setMeta("tool", "kisscheck");
  Rec.setMeta("input", Name);
  Rec.setMeta("engine", Opts.UseConcEngine ? "conc"
                                           : rt::getEngineName(Opts.Cfg.Engine));
  Rec.setMeta("exec", rt::getExecEngineName(Opts.Cfg.Exec));
  Rec.setMeta("store", rt::getStoreModeName(Opts.Cfg.Store));
  Rec.setMeta("max_ts", std::to_string(Opts.Cfg.MaxTs));
  Rec.setMeta("max_states", std::to_string(Opts.Cfg.MaxStates));
  if (Opts.Cfg.SampleEvery)
    Rec.setMeta("sample_every", std::to_string(Opts.Cfg.SampleEvery));
  if (Opts.Cfg.Profile)
    Rec.setMeta("profile", "on");

  telemetry::Heartbeat Beat(Opts.ProgressSec > 0 ? Opts.ProgressSec : 2.0);
  telemetry::Heartbeat *BeatPtr = Opts.ProgressSec > 0 ? &Beat : nullptr;

  Session S(makeConfig(Opts, &Rec, BeatPtr));
  auto Program = S.compile(Name, Source);
  if (!Program) {
    std::fprintf(stderr, "%s", S.diagnostics().c_str());
    return cli::ExitUsage;
  }

  if (Opts.DumpCfg) {
    cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*Program);
    for (uint32_t I = 0; I != CFG.getNumFunctions(); ++I)
      std::printf("%s\n",
                  CFG.getFunctionCFG(I).dump(S.context().Syms).c_str());
    return cli::ExitNoError;
  }

  if (Opts.UseConcEngine)
    return runConcEngine(*Program, S.config(), Opts, S.context(), Rec, Name);

  if (Opts.RaceAll) {
    Rec.setMeta("mode", "race-all");
    return runRaceAll(S, *Program, Opts, Name, Source, Rec);
  }

  if (!Opts.RaceTargetSpec.empty()) {
    Rec.setMeta("mode", "race");
    Rec.setMeta("race_target", Opts.RaceTargetSpec);
    S.config().M = CheckConfig::Mode::Race;
    std::string Error;
    if (!S.resolveRaceTarget(Opts.RaceTargetSpec, *Program, S.config().Race,
                             Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return cli::ExitUsage;
    }
  } else {
    Rec.setMeta("mode", "assert");
  }

  auto Start = std::chrono::steady_clock::now();
  CheckResult R = S.check(*Program);

  if (S.hasErrors()) {
    std::fprintf(stderr, "%s", S.diagnostics().c_str());
    return cli::ExitUsage;
  }

  if (Opts.DumpTranslation) {
    std::printf("%s", lang::printProgram(*R.Transformed).c_str());
    return cli::ExitNoError;
  }

  Rec.addCheck(makeCheckRecord(R, Name, msSince(Start)));
  Rec.addCounter("probes_emitted", R.Stats.ProbesEmitted);
  Rec.addCounter("probes_pruned", R.Stats.ProbesPruned);

  if (R.Verdict == KissVerdict::BoundExceeded &&
      R.Sequential.Bound != gov::BoundReason::None)
    std::printf("verdict: %s (%s)\n", getVerdictName(R.Verdict),
                gov::getBoundReasonName(R.Sequential.Bound));
  else
    std::printf("verdict: %s\n", getVerdictName(R.Verdict));
  if (!R.Message.empty())
    std::printf("detail: %s\n", R.Message.c_str());
  if (R.foundError()) {
    std::printf("concurrent error trace (%u threads):\n%s",
                R.Trace.NumThreads,
                formatConcurrentTrace(R.Trace, *Program,
                                      &S.context().SM).c_str());
  }
  if (Opts.ShowStats) {
    printExplorationStats(R.Sequential);
    std::printf("probes: %u emitted, %u pruned\n", R.Stats.ProbesEmitted,
                R.Stats.ProbesPruned);
  }
  if (Opts.Cfg.Profile)
    printProfile(R.Profile, Opts.ProfileTopN);
  if (R.Sequential.Bound == gov::BoundReason::Cancelled ||
      GlobalCancel.isCancelled())
    Rec.setInterrupted(true);
  if (!maybeWriteReport(Opts, Rec))
    return cli::ExitUsage;
  return cli::exitCode(R.foundError(),
                       R.Verdict == KissVerdict::BoundExceeded);
}
