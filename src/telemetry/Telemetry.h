//===- Telemetry.h - Structured run telemetry -------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform telemetry layer of the whole pipeline: a RunRecorder collects
/// nested phase spans (parse -> sema -> lower -> transform -> alias -> cfg
/// -> check), named monotonic counters, and per-check exploration records,
/// and renders them as a versioned machine-readable JSON report
/// (schema_version 5; see docs/observability.md for the schema reference),
/// or as Chrome/Perfetto trace-event JSON (renderTrace/writeTrace).
///
/// Conventions:
///  * Phase spans nest; a nested span's reported name is its full
///    slash-joined path ("transform/alias"). Spans close LIFO.
///  * Counters are monotonic: only ever added to, never reset. Counter and
///    meta keys are lower_snake_case.
///  * Every field of the report except the "wall_ms" timing fields is
///    deterministic for a fixed input — reports are byte-identical across
///    --jobs settings once timings are zeroed (ReportOptions::ZeroTimings).
///
/// The recorder is not thread-safe; parallel producers (the corpus runner)
/// measure into their own result slots and append records after the join,
/// in deterministic order.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_TELEMETRY_TELEMETRY_H
#define KISS_TELEMETRY_TELEMETRY_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kiss::telemetry {

/// One completed (or still open) phase span.
struct PhaseRecord {
  std::string Name; ///< Full slash-joined path ("transform/alias").
  double WallMs = 0;
  /// Start offset from the recorder's epoch, for the trace-event export
  /// only (never rendered into the report, so reports stay deterministic).
  double StartMs = 0;
  /// Insertion-ordered; rendered sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Counters;
};

/// One point of a check's exploration time-series (mirrors
/// rt::ExplorationSample; see docs/observability.md for the schema).
struct SeriesPoint {
  uint64_t States = 0;
  uint64_t Transitions = 0;
  uint64_t DedupHits = 0;
  uint64_t Frontier = 0;
  uint64_t ArenaBytes = 0;
  uint64_t IndexBytes = 0;
  uint64_t DepthMax = 0;
  double WallMs = 0; ///< Zeroed by ReportOptions::ZeroTimings.
};

/// One row of a check's source-line profile (mirrors rt::LineProfile).
struct ProfileRow {
  std::string File;
  uint32_t Line = 0;
  uint64_t States = 0;
  uint64_t Transitions = 0;
  uint64_t DedupHits = 0;
};

/// One model-checking run's exploration record (the per-check envelope of
/// the report; mirrors rt::ExplorationStats plus identity and outcome).
/// Checks build theirs with core::makeCheckRecord (a KissReport) or
/// rt::makeCheckRecord (a raw rt::CheckResult); only records that explore
/// nothing (fuzz findings, latency summaries) are filled in by hand.
struct CheckRecord {
  std::string Name;    ///< What was checked ("bank.kiss", "toaster.irpSp").
  std::string Outcome; ///< Verdict/outcome name ("race detected", ...).
  double WallMs = 0;
  /// Start offset from the recorder's epoch, for the trace-event export
  /// only (never rendered into the report).
  double StartMs = 0;
  uint64_t States = 0;
  uint64_t Transitions = 0;
  uint64_t DedupHits = 0;
  /// Hash-index behaviour of the run's visited set (the StateStore
  /// IndexStats): occupied slots probed, full-key verifications after a
  /// hash match, and verifications that failed (true 64-bit collisions).
  uint64_t HashProbes = 0;
  uint64_t KeyVerifies = 0;
  uint64_t HashCollisions = 0;
  uint64_t ArenaBytes = 0;
  uint64_t IndexBytes = 0;
  uint64_t FrontierPeak = 0;
  uint64_t DepthMax = 0;
  /// Exploration time-series (empty unless sampling was enabled); always
  /// rendered, as an empty array when no samples were taken.
  std::vector<SeriesPoint> Series;
  /// Source-line hot-path profile (empty unless profiling was enabled).
  std::vector<ProfileRow> Profile;
  /// Which execution engine stepped the exploration (an rt::ExecEngine
  /// name, "interp" or "threaded"; "none" for bebop runs and records that
  /// explore nothing). The rendered "states_per_sec" is not stored: it is
  /// derived from States and WallMs at render time.
  std::string ExecEngine = "none";
  /// Why the check stopped short ("none" when it completed); a
  /// gov::BoundReason name.
  std::string BoundReason = "none";
  /// Path edges saturated by the summary engine (0 under other engines).
  uint64_t PathEdges = 0;
  /// Procedure summaries tabulated by the summary engine (0 otherwise).
  uint64_t SummaryEdges = 0;
  /// Which check backend produced the record (an rt::Engine name, "seq"
  /// or "bebop"; "conc" for the ground-truth engine, "none" for records
  /// that explore nothing).
  std::string Engine = "none";
};

/// Collects the telemetry of one run. Create one per process/run, thread a
/// pointer through the pipeline (a null recorder everywhere means "off"),
/// and render with renderReport()/writeReport().
class RunRecorder {
public:
  /// RAII handle for an open phase span; ends the span on destruction.
  /// Move-only. Spans must end in LIFO order.
  class Span {
  public:
    Span() = default;
    Span(Span &&O) noexcept : R(O.R), Index(O.Index) { O.R = nullptr; }
    Span &operator=(Span &&O) noexcept {
      end();
      R = O.R;
      Index = O.Index;
      O.R = nullptr;
      return *this;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span() { end(); }

    /// Adds \p Delta to counter \p Name of this span.
    void counter(std::string_view Name, uint64_t Delta = 1);

    /// Ends the span now (idempotent).
    void end();

  private:
    friend class RunRecorder;
    Span(RunRecorder *R, size_t Index) : R(R), Index(Index) {}
    RunRecorder *R = nullptr;
    size_t Index = 0;
  };

  /// Opens a phase span named \p Name, nested under the innermost open
  /// span. The wall timer starts now.
  Span beginPhase(std::string_view Name);

  /// Appends an already-measured phase (benches time phases themselves).
  /// The phase is recorded closed, at top level, with \p WallMs as its
  /// wall time.
  PhaseRecord &addPhase(std::string_view Name, double WallMs);

  /// Adds \p Delta to run-level counter \p Name.
  void addCounter(std::string_view Name, uint64_t Delta = 1);

  /// Appends one per-check record. The record's StartMs (trace-export
  /// only) is back-dated from its WallMs against the recorder's epoch.
  void addCheck(CheckRecord R);

  /// Sets report metadata \p Key to \p Value (string-valued; last write
  /// wins).
  void setMeta(std::string_view Key, std::string_view Value);

  /// Marks the run as interrupted (SIGINT/SIGTERM or injected cancel):
  /// the rendered report is a valid but *partial* account of the run.
  void setInterrupted(bool Value = true) { Interrupted = Value; }
  bool interrupted() const { return Interrupted; }

  const std::vector<PhaseRecord> &phases() const { return Phases; }
  const std::vector<CheckRecord> &checks() const { return Checks; }

  /// Milliseconds elapsed since the recorder was constructed (the trace
  /// export's time origin).
  double msSinceEpoch() const;

private:
  friend class Span;

  /// Construction time: the zero point of every StartMs offset.
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  std::vector<PhaseRecord> Phases;
  std::vector<CheckRecord> Checks;
  bool Interrupted = false;
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, std::string>> Meta;
  /// Indices into Phases of the open spans, innermost last, paired with
  /// their start times.
  std::vector<std::pair<size_t, std::chrono::steady_clock::time_point>>
      OpenSpans;

  friend std::string renderReport(const RunRecorder &,
                                  const struct ReportOptions &);
};

/// Rendering knobs.
struct ReportOptions {
  /// Render every wall_ms field as 0.000 — used by the golden and
  /// jobs-equivalence tests to compare reports modulo timings.
  bool ZeroTimings = false;
};

/// Renders \p R as the versioned JSON report (trailing newline included).
std::string renderReport(const RunRecorder &R,
                         const ReportOptions &Opts = ReportOptions());

/// Renders one check record as exactly the JSON object the report's
/// "checks" array carries (one line, schema v5). Its "states_per_sec" is
/// derived here: States per second of WallMs, rounded down (0 when WallMs
/// is 0 or under ZeroTimings). This is the embeddable
/// per-check envelope: kissd responses include it so every request is
/// billed (latency, states, bound reason) in the same schema the batch
/// tools report. With ZeroTimings the object is deterministic for a fixed
/// input — the property the service result cache relies on.
std::string renderCheckRecord(const CheckRecord &C,
                              const ReportOptions &Opts = ReportOptions());

/// Writes the report to \p Path. \returns false (with a message on stderr)
/// if the file cannot be written.
bool writeReport(const RunRecorder &R, const std::string &Path,
                 const ReportOptions &Opts = ReportOptions());

/// The schema_version emitted by renderReport; docs/observability.md
/// keeps the version history (tools/bench_diff.py reads this one only).
inline constexpr int ReportSchemaVersion = 5;

/// Renders \p R as Chrome/Perfetto trace-event JSON ("traceEvents"
/// format): phase spans become complete ("X") slices on one track, checks
/// become begin/end ("B"/"E") slices on another, and each check's sampled
/// series becomes "C" counter tracks (states, frontier, memory_bytes).
/// Open chrome://tracing or ui.perfetto.dev and load the file. The trace
/// is a timing view and is NOT covered by the report determinism
/// contract.
std::string renderTrace(const RunRecorder &R);

/// Writes renderTrace(\p R) to \p Path. \returns false (with a message on
/// stderr) if the file cannot be written.
bool writeTrace(const RunRecorder &R, const std::string &Path);

/// Rate-limited progress printer for long explorations: call tick() from
/// the hot loop; roughly every IntervalSec seconds it prints one heartbeat
/// line (elapsed time, states, states/s since the last beat, frontier
/// size, memory) to the configured stream. The clock is only consulted
/// every few thousand ticks, so the per-tick cost is an increment and a
/// compare. Call finish() once at the end of the run (completion or
/// cancellation alike) for a final summary beat with the whole-run rate.
class Heartbeat {
public:
  /// Seconds-since-start clock, injectable for tests (null = the real
  /// steady clock).
  using ClockFn = double (*)();

  explicit Heartbeat(double IntervalSec = 2.0, std::FILE *Out = stderr,
                     ClockFn Clock = nullptr, uint32_t Stride = 0);

  /// Reports progress: \p States distinct states so far, \p Frontier
  /// states currently queued, \p MemoryBytes the search's footprint
  /// (visited-set arena + index + parent links; 0 = unknown, not
  /// printed).
  void tick(uint64_t States, uint64_t Frontier, uint64_t MemoryBytes = 0);

  /// Prints the final summary beat (always, regardless of the interval):
  /// total elapsed time, states, whole-run average rate, frontier, and
  /// memory. Idempotent per run.
  void finish(uint64_t States, uint64_t Frontier, uint64_t MemoryBytes = 0);

private:
  double now() const;

  std::FILE *Out;
  double IntervalSec;
  ClockFn Clock;
  uint32_t Stride;
  double Start, LastBeat;
  uint64_t LastStates = 0;
  uint32_t TicksUntilClockCheck = 0;
  bool Finished = false;
};

} // namespace kiss::telemetry

#endif // KISS_TELEMETRY_TELEMETRY_H
