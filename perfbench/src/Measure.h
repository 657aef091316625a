//===- Measure.h - Clocks, resource usage, spans and run results -*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring side of the repo benchmark: wall clock, process/thread
/// rusage, percentiles, the in-memory span tracer of the traced run and
/// the one-line JSON result every run ends with.
///
//===----------------------------------------------------------------------===//

#ifndef KISSBENCH_MEASURE_H
#define KISSBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kb {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) { return msBetween(A, Clock::now()); }

/// CPU time, minor faults and peak RSS of a process or thread.
struct Usage {
  double UserMs = 0;
  double SysMs = 0;
  uint64_t MinorFaults = 0;
  double MaxRssMb = 0;

  double cpuMs() const { return UserMs + SysMs; }
  Usage operator-(const Usage &O) const {
    return {UserMs - O.UserMs, SysMs - O.SysMs, MinorFaults - O.MinorFaults,
            MaxRssMb};
  }
  Usage &operator+=(const Usage &O) {
    UserMs += O.UserMs;
    SysMs += O.SysMs;
    MinorFaults += O.MinorFaults;
    MaxRssMb = O.MaxRssMb;
    return *this;
  }
};

Usage selfUsage();   ///< getrusage(RUSAGE_SELF).
Usage threadUsage(); ///< getrusage(RUSAGE_THREAD).

/// glibc raises its mmap threshold to the largest mapped block freed so
/// far (up to 32 MiB) and trims the heap past twice that. Left to the
/// checks, the threshold moves at whichever check first frees a large
/// arena, and kissd_stream's fault count then depends on when that
/// happened: 53 to 111 per request between runs of one seed. Freeing one
/// 20 MiB block, more than any check of the stream frees, settles the
/// threshold before the first set-up; kissd_stream sends the daemon a
/// ping padded to that size.
inline constexpr size_t SettleBlockBytes = size_t(20) << 20;
void settleMmapThreshold();

/// Nearest-rank percentile (P in [0, 1]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

/// What a workload run needs from the command line.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Nproc = 1;
  std::string RepoRoot = ".";  ///< Checkout root (examples/ lives there).
  std::string WorkDir;         ///< Scratch dir for sockets and span files.
  std::string KissdPath;       ///< The kissd binary of this build.
};

/// One run's outcome: the result JSON line plus the run description
/// printed above it.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  std::vector<std::pair<std::string, std::string>> Info;
  std::vector<std::string> Errors; ///< First few wrong answers, for stderr.

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void info(const std::string &Key, const std::string &Value) {
    Info.push_back({Key, Value});
  }
  /// Records a wrong answer: the run fails and the op counts as failed.
  void wrong(const std::string &What);
};

/// Spans of the traced run, kept in memory and written out at the end.
/// Each span carries its name, start, end, parent span and op id; a
/// layer's self time is its span minus the spans opened inside it. Sums
/// per name cover every span; the span list keeps the first MaxKept.
class Tracer {
public:
  static constexpr size_t MaxKept = 200000;

  Tracer() : Origin(Clock::now()) {}

  void setOp(uint64_t Op) { CurOp = Op; }

  void begin(const char *Name);
  void end();

  template <typename F> auto span(const char *Name, F &&Fn) {
    struct Closer {
      Tracer &T;
      ~Closer() { T.end(); }
    } C{*this};
    begin(Name);
    return Fn();
  }

  /// Summed self time (ms) of every span named \p Name.
  double selfMs(std::string_view Name) const;
  /// Summed total time (ms) of every span named \p Name.
  double totalMs(std::string_view Name) const;

  uint64_t count() const { return NextId; }
  /// Writes the kept spans as Chrome trace events. \returns false on I/O
  /// error.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    double StartUs;
    double EndUs = 0;
    int64_t Id;
    int64_t Parent;
    uint64_t Op;
    double ChildUs = 0;
  };
  struct Sum {
    double SelfUs = 0;
    double TotalUs = 0;
  };
  double nowUs() const;

  Clock::time_point Origin;
  std::vector<Span> Open; ///< Stack of open spans.
  std::vector<Span> Kept;
  std::map<std::string_view, Sum> Sums;
  int64_t NextId = 0;
  uint64_t CurOp = 0;
};

/// What the untraced timed phase measured, turned into the end-to-end
/// metrics shared by every workload.
struct EndToEnd {
  /// Per-op latency, in the order the ops completed.
  std::vector<double> LatencyMs;
  /// Completion time of each op from the start of the timed phase. When
  /// set, ops_per_s and the latency pair are medians over RateChunks
  /// consecutive chunks of ops, so a stall of the machine in a few chunks
  /// does not move them; OpsPerS is then ignored.
  std::vector<double> DoneMs;
  double OpsPerS = 0;
  Usage Cpu; ///< Of the process doing the work.
  double PeakRssMb = 0;
  std::vector<double> SetupS; ///< One per set-up.
};
inline constexpr size_t RateChunks = 20;
void addEndToEnd(RunResult &R, const EndToEnd &E);

/// Named per-layer counters summed over the traced ops.
using Counters = std::map<std::string, double>;

/// Adds traced round \p RoundNo's counters to \p Total. Every count (all
/// but the rusage measurements) must equal the first round's exactly;
/// a difference is a wrong answer.
void addRound(Counters &Total, Counters &First, const Counters &Round,
              unsigned RoundNo, RunResult &R);

/// Adds every per-layer metric of the benchmark to \p R, computed from the
/// spans and counters of \p Ops traced ops (layers a workload does not
/// exercise read 0).
void addLayerMetrics(RunResult &R, const Tracer &T, const Counters &C,
                     double Ops, const Usage &TracedCpu, double TracedMs,
                     double UntracedMs);

/// Writes the traced run's spans to <work dir>/spans.json (Chrome trace
/// events) and notes the path in \p R.
void saveSpans(const RunOptions &O, const Tracer &T, RunResult &R);

/// Prints the run description and every metric by name and unit, then
/// the result JSON line last.
void printResult(const RunOptions &O, const RunResult &R);

} // namespace kb

#endif // KISSBENCH_MEASURE_H
