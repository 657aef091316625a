//===- kissfuzz.cpp - Differential fuzzing front end ----------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver of the differential fuzzing subsystem: generate
/// seeded random Figure-3 programs, run each through both the KISS
/// pipeline and the ground-truth interleaving checker, flag Theorem-1
/// disagreements, and shrink them to minimal .kiss repro files.
///
///   kissfuzz --seed=1 --cases=1000           a campaign
///   kissfuzz --smoke                         the fixed-seed CI smoke run
///   kissfuzz --dump=42                       print the program of seed 42
///   kissfuzz --verify-repro=f.kiss           re-check a repro's recorded
///                                            verdict (regression corpus)
///   kissfuzz --break-transform ...           sabotage the transform; the
///                                            oracle must catch it
///   kissfuzz --report=out.json --zero-timings  deterministic JSON report
///
/// Exit codes match the repo contract (docs/robustness.md): 0 = no
/// violation, 1 = violation found (or repro verdict mismatch), 2 = usage
/// or I/O problem, 3 = interrupted.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/Repro.h"
#include "kiss/Config.h"
#include "support/Cli.h"
#include "support/Governor.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

using namespace kiss;
using namespace kiss::fuzz;

namespace {

gov::CancellationToken GlobalCancel;

extern "C" void handleTerminationSignal(int) { GlobalCancel.requestCancel(); }

struct CliOptions {
  /// The campaign; the flags write straight into it, its oracle's check
  /// configuration included (budgets are per engine run; 0 = none).
  FuzzOptions Fuzz;
  // Presence flags for default-on behaviour; folded after parsing.
  bool NoLocks = false;
  bool NoAsserts = false;
  bool NoVary = false;
  bool NoShrink = false;
  bool NoCompleteness = false;
  bool Smoke = false;
  bool ZeroTimings = false;
  std::string ReportPath;
  std::string TracePath;
  std::string ReproDir;
  std::string VerifyReproPath;
  bool DumpProgram = false;
  uint64_t DumpSeed = 0;
};

/// The flag table. Shared spellings (--jobs, --timeout, --memory-budget,
/// --report, --zero-timings, --max-switches) match kisscheck.
cli::ArgParser makeParser(CliOptions &Opts) {
  cli::ArgParser P("usage: kissfuzz [options]");
  FuzzOptions &Fuzz = Opts.Fuzz;
  CheckConfig &Kiss = Fuzz.Oracle.Kiss;
  P.flag("seed", Fuzz.Seed, "<n>",
         "campaign seed (case I uses seed+I; default 1)");
  P.flag("cases", Fuzz.Cases, "<n>", "number of cases (default 100)");
  P.flag("jobs", Fuzz.Jobs, "<n>", "worker threads (0 = all cores)");
  P.flag("max-ts", Kiss.MaxTs, "<n>", "MAX for the KISS side (default 2)");
  P.flagPositive("max-switches", Kiss.MaxSwitches, "<k>",
                 "context-switch bound K for the KISS side (default 2)");
  P.flag("max-states", Kiss.MaxStates, "<n>",
         "per-engine state budget (default 150000)");
  P.flagPositive("timeout", Kiss.Common.Budget.DeadlineSec, "<secs>",
                 "per-engine wall-clock deadline");
  P.custom("memory-budget", "<mb>", "per-engine visited-set byte budget",
           [&Kiss](const std::string &V, std::string &E) {
             std::string Err;
             if (!config::setField(Kiss, "memory_budget_mb", V, Err) ||
                 Kiss.Common.Budget.MemoryBytes == 0) {
               E = "--memory-budget needs a positive number of at most " +
                   std::to_string(UINT64_MAX >> 20);
               return false;
             }
             return true;
           });
  P.flagPositive("threads", Fuzz.Grammar.Threads, "<n>",
                 "grammar: max threads incl. main (default 2)");
  P.flag("stmts", Fuzz.Grammar.Stmts, "<n>",
         "grammar: statements per body (default 4)");
  P.flag("depth", Fuzz.Grammar.Depth, "<n>",
         "grammar: nesting budget (default 2)");
  P.flag("helpers", Fuzz.Grammar.Helpers, "<n>",
         "grammar: helper procedures (default 1)");
  P.flag("pointers", Fuzz.Grammar.WithPointers,
         "grammar: enable the pointer-bearing variant");
  P.flag("no-locks", Opts.NoLocks, "grammar: drop the lock idiom");
  P.flag("no-asserts", Opts.NoAsserts, "grammar: drop user assertions");
  P.flag("no-vary", Opts.NoVary,
         "use the grammar verbatim (no per-case sweep)");
  P.flag("no-shrink", Opts.NoShrink, "report findings unshrunk");
  P.flag("no-completeness", Opts.NoCompleteness, "soundness-only oracle");
  P.flag("break-transform", Kiss.InjectBreakAsserts,
         "(testing) sabotage the transform — the oracle must\n"
         "flag every reported error");
  P.flag("exec-diff", Fuzz.Oracle.ExecDiff,
         "run every case under both sequential execution engines\n"
         "and both store modes; any observable disagreement is an\n"
         "exec-divergence violation");
  P.custom("engine-diff", "=bebop",
           "restrict the grammar to the boolean fragment and run\n"
           "every case under both check backends (seq and bebop);\n"
           "a verdict disagreement or non-replaying bebop witness\n"
           "is an exec-divergence violation",
           [&Fuzz](const std::string &V, std::string &E) {
             if (V != "bebop") {
               E = "--engine-diff only supports 'bebop'";
               return false;
             }
             Fuzz.Oracle.EngineDiff = true;
             Fuzz.Grammar.BoolFragment = true;
             return true;
           });
  P.flag("smoke", Opts.Smoke, "the fixed-seed CI preset (~30 s)");
  P.custom("dump", "<seed>", "print the generated program and exit",
           [&Opts](const std::string &V, std::string &E) {
             if (V.empty()) {
               E = "--dump needs a seed";
               return false;
             }
             Opts.DumpProgram = true;
             Opts.DumpSeed = std::strtoull(V.c_str(), nullptr, 10);
             return true;
           });
  P.flag("verify-repro", Opts.VerifyReproPath, "<file>",
         "re-run a repro, check its recorded verdict");
  P.flag("repro-dir", Opts.ReproDir, "<dir>",
         "write shrunk findings there as .kiss files");
  P.flag("report", Opts.ReportPath, "<path>",
         "machine-readable JSON campaign report");
  P.flag("trace", Opts.TracePath, "<path>",
         "Chrome trace-event JSON of the campaign's phases");
  P.flag("zero-timings", Opts.ZeroTimings,
         "zero wall_ms fields (byte-identical reports)");
  P.footer("exit codes: 0 no violation; 1 violation found / repro mismatch;\n"
           "2 usage or I/O problem; 3 interrupted");
  return P;
}

/// The CI preset: fixed seed, a case count that finishes in ~30 s on a
/// small runner, and per-case budgets that bound tail latency.
void applySmokePreset(CliOptions &Opts) {
  FuzzOptions &Fuzz = Opts.Fuzz;
  Fuzz.Seed = 20040601; // The paper's year/month — fixed forever.
  Fuzz.Cases = 1200;
  Fuzz.Oracle.Kiss.MaxStates = 60'000;
  Fuzz.Oracle.Kiss.Common.Budget.DeadlineSec = 1.0;
  Fuzz.Grammar.WithPointers = true;
  Fuzz.Grammar.Threads = 3;
}

int runVerifyRepro(const CliOptions &Opts) {
  std::ifstream In(Opts.VerifyReproPath);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n",
                 Opts.VerifyReproPath.c_str());
    return cli::ExitUsage;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();

  Repro R;
  std::string Error;
  if (!parseRepro(Buffer.str(), R, Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Opts.VerifyReproPath.c_str(),
                 Error.c_str());
    return cli::ExitUsage;
  }

  OracleOptions OO = Opts.Fuzz.Oracle;
  OO.Kiss.MaxTs = R.MaxTs;
  // Replay at the recorded K, widened when the command line asks for more
  // (the CI --max-switches=4 leg): soundness is K-independent and coverage
  // only grows with K, so every recorded verdict must survive a wider
  // window. Never narrow below the recorded bound.
  OO.Kiss.MaxSwitches = std::max(R.MaxSwitches, OO.Kiss.MaxSwitches);
  OO.Kiss.InjectBreakAsserts |= R.BreakTransform;
  OracleResult O = runOracle(R.Source, OO);
  std::printf("%s: recorded %s, observed %s\n", Opts.VerifyReproPath.c_str(),
              getOracleVerdictName(R.Expect), getOracleVerdictName(O.V));
  if (O.V == R.Expect)
    return cli::ExitNoError;
  if (!O.Detail.empty())
    std::printf("detail: %s\n", O.Detail.c_str());
  if (!O.DiscardDiagnostics.empty())
    std::printf("%s", O.DiscardDiagnostics.c_str());
  return cli::ExitErrorFound;
}

/// Writes each finding to \p Dir as a self-describing repro file.
/// \returns false on I/O failure.
bool writeRepros(const std::string &Dir, const FuzzSummary &Sum) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    std::fprintf(stderr, "error: cannot create '%s': %s\n", Dir.c_str(),
                 EC.message().c_str());
    return false;
  }
  for (const Finding &F : Sum.Findings) {
    Repro R;
    R.Seed = F.Seed;
    R.MaxTs = F.MaxTs;
    R.MaxSwitches = F.MaxSwitches;
    R.BreakTransform = F.BreakTransform;
    R.Expect = F.V;
    R.Detail = F.Detail;
    R.Source = F.Source;
    std::string Path = Dir + "/seed-" + std::to_string(F.Seed) + "-" +
                       getOracleVerdictName(F.V) + ".kiss";
    std::ofstream Out(Path);
    Out << renderRepro(R);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
      return false;
    }
    std::printf("wrote %s\n", Path.c_str());
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  cli::ArgParser Parser = makeParser(Opts);
  if (!Parser.parse(Argc, Argv)) {
    std::fprintf(stderr, "%s", Parser.usage().c_str());
    return cli::ExitUsage;
  }
  FuzzOptions &Fuzz = Opts.Fuzz;
  Fuzz.Grammar.WithLocks = !Opts.NoLocks;
  Fuzz.Grammar.WithAsserts = !Opts.NoAsserts;
  Fuzz.VaryGrammar = !Opts.NoVary;
  Fuzz.Shrink = !Opts.NoShrink;
  Fuzz.Oracle.CheckCompleteness = !Opts.NoCompleteness;
  Fuzz.Oracle.Kiss.Common.Budget.Cancel = &GlobalCancel;
  if (Opts.Smoke)
    applySmokePreset(Opts);

  std::signal(SIGINT, handleTerminationSignal);
  std::signal(SIGTERM, handleTerminationSignal);

  if (Opts.DumpProgram) {
    GenOptions G = Fuzz.VaryGrammar ? varyOptions(Opts.DumpSeed, Fuzz.Grammar)
                                    : Fuzz.Grammar;
    std::printf("%s", generateProgram(Opts.DumpSeed, G).c_str());
    return cli::ExitNoError;
  }

  if (!Opts.VerifyReproPath.empty())
    return runVerifyRepro(Opts);

  telemetry::RunRecorder Rec;

  Fuzz.Recorder = &Rec;

  const CheckConfig &Kiss = Fuzz.Oracle.Kiss;
  Rec.setMeta("tool", "kissfuzz");
  Rec.setMeta("seed", std::to_string(Fuzz.Seed));
  Rec.setMeta("cases", std::to_string(Fuzz.Cases));
  Rec.setMeta("max_ts", std::to_string(Kiss.MaxTs));
  // Only recorded off-default so pre-K golden reports stay byte-identical.
  if (Kiss.MaxSwitches != 2)
    Rec.setMeta("max_switches", std::to_string(Kiss.MaxSwitches));
  Rec.setMeta("max_states", std::to_string(Kiss.MaxStates));
  Rec.setMeta("grammar_threads", std::to_string(Fuzz.Grammar.Threads));
  Rec.setMeta("grammar_pointers",
              Fuzz.Grammar.WithPointers ? "true" : "false");
  Rec.setMeta("break_transform", Kiss.InjectBreakAsserts ? "true" : "false");
  // Only recorded when on so pre-v3 golden reports stay byte-identical.
  if (Fuzz.Oracle.ExecDiff)
    Rec.setMeta("exec_diff", "true");
  // Likewise only-when-on, for pre-v5 reports.
  if (Fuzz.Oracle.EngineDiff)
    Rec.setMeta("engine_diff", "bebop");

  auto FuzzSpan = Rec.beginPhase("fuzz");
  FuzzSummary Sum = runCampaign(Fuzz);
  FuzzSpan.end();

  std::printf("cases: %llu run, %llu skipped\n",
              static_cast<unsigned long long>(Sum.CasesRun),
              static_cast<unsigned long long>(Sum.CasesSkipped));
  std::printf("verdicts: %llu agree, %llu discard, %llu inconclusive\n",
              static_cast<unsigned long long>(
                  Sum.Counts[static_cast<int>(OracleVerdict::Agree)]),
              static_cast<unsigned long long>(Sum.discards()),
              static_cast<unsigned long long>(
                  Sum.Counts[static_cast<int>(OracleVerdict::Inconclusive)]));
  std::printf("violations: %llu (%llu soundness, %llu trace, "
              "%llu completeness, %llu exec-divergence)\n",
              static_cast<unsigned long long>(Sum.violations()),
              static_cast<unsigned long long>(
                  Sum.Counts[static_cast<int>(OracleVerdict::SoundnessBug)]),
              static_cast<unsigned long long>(
                  Sum.Counts[static_cast<int>(OracleVerdict::TraceBug)]),
              static_cast<unsigned long long>(Sum.Counts[static_cast<int>(
                  OracleVerdict::CompletenessBug)]),
              static_cast<unsigned long long>(Sum.Counts[static_cast<int>(
                  OracleVerdict::ExecDivergence)]));
  if (Sum.ShrinkSteps)
    std::printf("shrink: %llu steps over %llu oracle evaluations\n",
                static_cast<unsigned long long>(Sum.ShrinkSteps),
                static_cast<unsigned long long>(Sum.ShrinkEvals));
  for (const Finding &F : Sum.Findings)
    std::printf("finding: seed %llu — %s (%s)\n",
                static_cast<unsigned long long>(F.Seed),
                getOracleVerdictName(F.V), F.Detail.c_str());
  for (const std::string &D : Sum.DiscardDiagnostics)
    std::fprintf(stderr, "discard diagnostics:\n%s", D.c_str());

  if (!Opts.ReproDir.empty() && !writeRepros(Opts.ReproDir, Sum))
    return cli::ExitUsage;

  // Attempt every requested artifact before failing: an unwritable
  // --report must not discard a --trace that would have succeeded.
  telemetry::ReportOptions RO;
  RO.ZeroTimings = Opts.ZeroTimings;
  bool ArtifactFailed = false;
  if (!Opts.ReportPath.empty() &&
      !telemetry::writeReport(Rec, Opts.ReportPath, RO))
    ArtifactFailed = true;
  if (!Opts.TracePath.empty() && !telemetry::writeTrace(Rec, Opts.TracePath))
    ArtifactFailed = true;
  if (ArtifactFailed)
    return cli::ExitUsage;

  if (Sum.Interrupted)
    std::printf("run interrupted; partial results above\n");
  return cli::exitCode(Sum.violations() != 0, Sum.Interrupted);
}
