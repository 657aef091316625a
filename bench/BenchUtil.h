//===- BenchUtil.h - Shared helpers for the bench binaries ------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#ifndef KISS_BENCH_BENCHUTIL_H
#define KISS_BENCH_BENCHUTIL_H

#include "kiss/Kiss.h"
#include "lower/Pipeline.h"
#include "support/Governor.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <sys/resource.h>

namespace kiss::bench {

/// A compiled program together with the kiss::Session that owns it.
/// Benches tweak `config()` between `check()` calls to sweep knobs.
struct Compiled {
  std::unique_ptr<kiss::Session> S;
  std::unique_ptr<lang::Program> Program;

  kiss::CheckConfig &config() { return S->config(); }
  kiss::CheckResult check() { return S->check(*Program); }
  lower::CompilerContext &ctx() { return S->context(); }
};

/// Compiles \p Source in a fresh Session; aborts the bench on failure
/// (bench inputs are all generated/fixed sources).
inline Compiled compileOrDie(const std::string &Name,
                             const std::string &Source,
                             kiss::CheckConfig Cfg = kiss::CheckConfig()) {
  Compiled C;
  C.S = std::make_unique<kiss::Session>(std::move(Cfg));
  C.Program = C.S->compile(Name, Source);
  if (!C.Program) {
    std::fprintf(stderr, "bench input failed to compile:\n%s\n",
                 C.S->diagnostics().c_str());
    std::abort();
  }
  return C;
}

/// Prints a full-width separator line.
inline void printRule(char Fill = '-') {
  for (int I = 0; I < 78; ++I)
    std::putchar(Fill);
  std::putchar('\n');
}

/// Prints one stdout line with the process's resource use so far
/// (getrusage(RUSAGE_SELF)): user and sys CPU seconds, minor page faults
/// and peak RSS, as `key=value` pairs that scripts can grep.
inline void printProcessUsage() {
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return;
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  std::printf("Process usage: user_s=%.3f sys_s=%.3f minor_faults=%ld "
              "max_rss_mb=%.1f\n",
              Sec(RU.ru_utime), Sec(RU.ru_stime), RU.ru_minflt,
              RU.ru_maxrss / 1024.0);
}

/// Parses the one flag the table benches take: `--jobs N` / `--jobs=N`
/// (0 = all hardware threads, the default). \returns false (after printing
/// usage) on anything unrecognized.
inline bool parseJobsFlag(int Argc, char **Argv, unsigned &Jobs) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--jobs=", 0) == 0) {
      Jobs = static_cast<unsigned>(std::strtoul(Arg.c_str() + 7, nullptr, 10));
    } else if (Arg == "--jobs" && I + 1 < Argc) {
      Jobs = static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--jobs N]  (0 = all cores)\n",
                   Argv[0]);
      return false;
    }
  }
  return true;
}

/// Flags shared by the corpus benches (table1_races, table2_refined):
/// worker count plus the per-field resource budget.
struct CorpusBenchOptions {
  unsigned Jobs = 0;           ///< 0 = all hardware threads.
  double FieldTimeoutSec = 0;  ///< --field-timeout; 0 = none.
  uint64_t FieldMemoryMB = 0;  ///< --field-memory; 0 = none.
};

/// Parses `--jobs N|--jobs=N`, `--field-timeout=SECS`, `--field-memory=MB`.
/// \returns false (after printing usage) on anything unrecognized.
inline bool parseCorpusFlags(int Argc, char **Argv, CorpusBenchOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--jobs=", 0) == 0) {
      O.Jobs = static_cast<unsigned>(std::strtoul(Arg.c_str() + 7, nullptr, 10));
    } else if (Arg == "--jobs" && I + 1 < Argc) {
      O.Jobs = static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else if (Arg.rfind("--field-timeout=", 0) == 0) {
      O.FieldTimeoutSec = std::strtod(Arg.c_str() + 16, nullptr);
    } else if (Arg.rfind("--field-memory=", 0) == 0) {
      O.FieldMemoryMB = std::strtoull(Arg.c_str() + 15, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--field-timeout=SECS] "
                   "[--field-memory=MB]\n",
                   Argv[0]);
      return false;
    }
  }
  return true;
}

/// The process-wide cancellation token of a bench run.
inline gov::CancellationToken &benchCancelToken() {
  static gov::CancellationToken Token;
  return Token;
}

extern "C" inline void benchHandleSignal(int) {
  kiss::bench::benchCancelToken().requestCancel();
}

/// Installs SIGINT/SIGTERM -> cancel-and-drain for a corpus bench, so an
/// interrupted Table run still flushes a partial BENCH_*.json (marked
/// interrupted) instead of losing everything. \returns the token to put
/// into the per-field RunBudget.
inline gov::CancellationToken *installBenchCancellation() {
  std::signal(SIGINT, benchHandleSignal);
  std::signal(SIGTERM, benchHandleSignal);
  return &benchCancelToken();
}

/// The per-field budget a corpus bench passes to runDriver.
inline gov::RunBudget makeFieldBudget(const CorpusBenchOptions &O,
                                      gov::CancellationToken *Cancel) {
  gov::RunBudget B;
  B.DeadlineSec = O.FieldTimeoutSec;
  B.MemoryBytes = O.FieldMemoryMB * 1024 * 1024;
  B.Cancel = Cancel;
  return B;
}

} // namespace kiss::bench

#endif // KISS_BENCH_BENCHUTIL_H
