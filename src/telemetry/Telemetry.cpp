//===- Telemetry.cpp ------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>

using namespace kiss;
using namespace kiss::telemetry;

//===----------------------------------------------------------------------===//
// RunRecorder
//===----------------------------------------------------------------------===//

static void bumpCounter(std::vector<std::pair<std::string, uint64_t>> &List,
                        std::string_view Name, uint64_t Delta) {
  for (auto &[N, V] : List) {
    if (N == Name) {
      V += Delta;
      return;
    }
  }
  List.emplace_back(std::string(Name), Delta);
}

double RunRecorder::msSinceEpoch() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

RunRecorder::Span RunRecorder::beginPhase(std::string_view Name) {
  std::string Full;
  if (!OpenSpans.empty()) {
    Full = Phases[OpenSpans.back().first].Name;
    Full += '/';
  }
  Full += Name;
  size_t Index = Phases.size();
  PhaseRecord P;
  P.Name = std::move(Full);
  P.StartMs = msSinceEpoch();
  Phases.push_back(std::move(P));
  OpenSpans.emplace_back(Index, std::chrono::steady_clock::now());
  return Span(this, Index);
}

PhaseRecord &RunRecorder::addPhase(std::string_view Name, double WallMs) {
  PhaseRecord P;
  P.Name = std::string(Name);
  P.WallMs = WallMs;
  // Self-measured phases arrive after the fact: back-date the start.
  P.StartMs = std::max(0.0, msSinceEpoch() - WallMs);
  Phases.push_back(std::move(P));
  return Phases.back();
}

void RunRecorder::addCheck(CheckRecord R) {
  R.StartMs = std::max(0.0, msSinceEpoch() - R.WallMs);
  Checks.push_back(std::move(R));
}

void RunRecorder::addCounter(std::string_view Name, uint64_t Delta) {
  bumpCounter(Counters, Name, Delta);
}

void RunRecorder::setMeta(std::string_view Key, std::string_view Value) {
  for (auto &[K, V] : Meta) {
    if (K == Key) {
      V = Value;
      return;
    }
  }
  Meta.emplace_back(std::string(Key), std::string(Value));
}

void RunRecorder::Span::counter(std::string_view Name, uint64_t Delta) {
  if (!R)
    return;
  bumpCounter(R->Phases[Index].Counters, Name, Delta);
}

void RunRecorder::Span::end() {
  if (!R)
    return;
  assert(!R->OpenSpans.empty() && R->OpenSpans.back().first == Index &&
         "phase spans must close in LIFO order");
  auto Start = R->OpenSpans.back().second;
  R->OpenSpans.pop_back();
  R->Phases[Index].WallMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - Start)
          .count();
  R = nullptr;
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

namespace {

void appendMs(std::string &Out, double Ms, bool Zero) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Zero ? 0.0 : Ms);
  Out += Buf;
}

void appendU64(std::string &Out, uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  Out += Buf;
}

/// Renders a {"k": v, ...} object of counters, sorted by name, on one line.
void appendCounters(std::string &Out,
                    std::vector<std::pair<std::string, uint64_t>> Counters) {
  std::sort(Counters.begin(), Counters.end());
  Out += '{';
  for (size_t I = 0; I != Counters.size(); ++I) {
    if (I)
      Out += ", ";
    Out += json::quote(Counters[I].first);
    Out += ": ";
    appendU64(Out, Counters[I].second);
  }
  Out += '}';
}

} // namespace

std::string telemetry::renderCheckRecord(const CheckRecord &C,
                                         const ReportOptions &Opts) {
  std::string Out;
  Out += "{\"name\": ";
  Out += json::quote(C.Name);
  Out += ", \"outcome\": ";
  Out += json::quote(C.Outcome);
  Out += ", \"wall_ms\": ";
  appendMs(Out, C.WallMs, Opts.ZeroTimings);
  Out += ", \"states\": ";
  appendU64(Out, C.States);
  Out += ", \"transitions\": ";
  appendU64(Out, C.Transitions);
  Out += ", \"dedup_hits\": ";
  appendU64(Out, C.DedupHits);
  Out += ", \"hash_probes\": ";
  appendU64(Out, C.HashProbes);
  Out += ", \"key_verifies\": ";
  appendU64(Out, C.KeyVerifies);
  Out += ", \"hash_collisions\": ";
  appendU64(Out, C.HashCollisions);
  Out += ", \"arena_bytes\": ";
  appendU64(Out, C.ArenaBytes);
  Out += ", \"index_bytes\": ";
  appendU64(Out, C.IndexBytes);
  Out += ", \"frontier_peak\": ";
  appendU64(Out, C.FrontierPeak);
  Out += ", \"depth_max\": ";
  appendU64(Out, C.DepthMax);
  Out += ", \"path_edges\": ";
  appendU64(Out, C.PathEdges);
  Out += ", \"summary_edges\": ";
  appendU64(Out, C.SummaryEdges);
  Out += ", \"exec_engine\": ";
  Out += json::quote(C.ExecEngine);
  Out += ", \"engine\": ";
  Out += json::quote(C.Engine);
  Out += ", \"states_per_sec\": ";
  appendU64(Out, Opts.ZeroTimings || C.WallMs <= 0 ? 0
                 : static_cast<uint64_t>(C.States * 1000.0 / C.WallMs));
  Out += ", \"series\": [";
  for (size_t J = 0; J != C.Series.size(); ++J) {
    const SeriesPoint &S = C.Series[J];
    if (J)
      Out += ", ";
    Out += "{\"states\": ";
    appendU64(Out, S.States);
    Out += ", \"transitions\": ";
    appendU64(Out, S.Transitions);
    Out += ", \"dedup_hits\": ";
    appendU64(Out, S.DedupHits);
    Out += ", \"frontier\": ";
    appendU64(Out, S.Frontier);
    Out += ", \"arena_bytes\": ";
    appendU64(Out, S.ArenaBytes);
    Out += ", \"index_bytes\": ";
    appendU64(Out, S.IndexBytes);
    Out += ", \"depth_max\": ";
    appendU64(Out, S.DepthMax);
    Out += ", \"wall_ms\": ";
    appendMs(Out, S.WallMs, Opts.ZeroTimings);
    Out += '}';
  }
  Out += "], \"profile\": [";
  for (size_t J = 0; J != C.Profile.size(); ++J) {
    const ProfileRow &P = C.Profile[J];
    if (J)
      Out += ", ";
    Out += "{\"file\": ";
    Out += json::quote(P.File);
    Out += ", \"line\": ";
    appendU64(Out, P.Line);
    Out += ", \"states\": ";
    appendU64(Out, P.States);
    Out += ", \"transitions\": ";
    appendU64(Out, P.Transitions);
    Out += ", \"dedup_hits\": ";
    appendU64(Out, P.DedupHits);
    Out += '}';
  }
  Out += "], \"bound_reason\": ";
  Out += json::quote(C.BoundReason);
  Out += "}";
  return Out;
}

std::string telemetry::renderReport(const RunRecorder &R,
                                    const ReportOptions &Opts) {
  std::string Out;
  Out += "{\n";
  Out += "  \"schema_version\": " + std::to_string(ReportSchemaVersion) +
         ",\n";
  Out += "  \"kind\": \"kiss-telemetry-report\",\n";
  Out += R.Interrupted ? "  \"interrupted\": true,\n"
                       : "  \"interrupted\": false,\n";

  auto Meta = R.Meta;
  std::sort(Meta.begin(), Meta.end());
  Out += "  \"meta\": {";
  for (size_t I = 0; I != Meta.size(); ++I) {
    if (I)
      Out += ", ";
    Out += json::quote(Meta[I].first);
    Out += ": ";
    Out += json::quote(Meta[I].second);
  }
  Out += "},\n";

  Out += "  \"counters\": ";
  appendCounters(Out, R.Counters);
  Out += ",\n";

  Out += "  \"phases\": [";
  for (size_t I = 0; I != R.Phases.size(); ++I) {
    const PhaseRecord &P = R.Phases[I];
    Out += I ? ",\n    " : "\n    ";
    Out += "{\"name\": ";
    Out += json::quote(P.Name);
    Out += ", \"wall_ms\": ";
    appendMs(Out, P.WallMs, Opts.ZeroTimings);
    Out += ", \"counters\": ";
    appendCounters(Out, P.Counters);
    Out += '}';
  }
  Out += R.Phases.empty() ? "],\n" : "\n  ],\n";

  Out += "  \"checks\": [";
  for (size_t I = 0; I != R.Checks.size(); ++I) {
    Out += I ? ",\n    " : "\n    ";
    Out += renderCheckRecord(R.Checks[I], Opts);
  }
  Out += R.Checks.empty() ? "]\n" : "\n  ]\n";

  Out += "}\n";
  return Out;
}

bool telemetry::writeReport(const RunRecorder &R, const std::string &Path,
                            const ReportOptions &Opts) {
  std::string Text = renderReport(R, Opts);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 Path.c_str());
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    std::fprintf(stderr, "error: short write to '%s'\n", Path.c_str());
  return Ok;
}

//===----------------------------------------------------------------------===//
// Trace-event rendering
//===----------------------------------------------------------------------===//

namespace {

/// Appends a trace timestamp/duration in integer microseconds.
void appendUs(std::string &Out, double Ms) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.0f", Ms < 0 ? 0.0 : Ms * 1000.0);
  Out += Buf;
}

} // namespace

std::string telemetry::renderTrace(const RunRecorder &R) {
  // One synthetic process, two tracks: tid 1 carries the pipeline phase
  // slices, tid 2 the per-check slices and their counter samples.
  std::string Out;
  Out += "{\"traceEvents\": [\n";
  Out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"kiss\"}},\n";
  Out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": "
         "\"thread_name\", \"args\": {\"name\": \"pipeline phases\"}},\n";
  Out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 2, \"name\": "
         "\"thread_name\", \"args\": {\"name\": \"checks\"}}";

  for (const PhaseRecord &P : R.phases()) {
    Out += ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": ";
    Out += json::quote(P.Name);
    Out += ", \"ts\": ";
    appendUs(Out, P.StartMs);
    Out += ", \"dur\": ";
    appendUs(Out, P.WallMs);
    Out += ", \"args\": ";
    appendCounters(Out, P.Counters);
    Out += '}';
  }

  for (const CheckRecord &C : R.checks()) {
    Out += ",\n{\"ph\": \"B\", \"pid\": 1, \"tid\": 2, \"name\": ";
    Out += json::quote(C.Name);
    Out += ", \"ts\": ";
    appendUs(Out, C.StartMs);
    Out += ", \"args\": {\"outcome\": ";
    Out += json::quote(C.Outcome);
    Out += ", \"states\": ";
    appendU64(Out, C.States);
    Out += ", \"transitions\": ";
    appendU64(Out, C.Transitions);
    Out += ", \"bound_reason\": ";
    Out += json::quote(C.BoundReason);
    Out += "}}";
    // Counter tracks from the sampled series; one track set per check so
    // differently-named checks do not merge in the viewer.
    for (const SeriesPoint &S : C.Series) {
      Out += ",\n{\"ph\": \"C\", \"pid\": 1, \"name\": ";
      Out += json::quote(C.Name);
      Out += ", \"ts\": ";
      appendUs(Out, C.StartMs + S.WallMs);
      Out += ", \"args\": {\"states\": ";
      appendU64(Out, S.States);
      Out += ", \"frontier\": ";
      appendU64(Out, S.Frontier);
      Out += ", \"memory_bytes\": ";
      appendU64(Out, S.ArenaBytes + S.IndexBytes);
      Out += "}}";
    }
    Out += ",\n{\"ph\": \"E\", \"pid\": 1, \"tid\": 2, \"ts\": ";
    appendUs(Out, C.StartMs + C.WallMs);
    Out += "}";
  }

  Out += "\n]}\n";
  return Out;
}

bool telemetry::writeTrace(const RunRecorder &R, const std::string &Path) {
  std::string Text = renderTrace(R);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                 Path.c_str());
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    std::fprintf(stderr, "error: short write to '%s'\n", Path.c_str());
  return Ok;
}

//===----------------------------------------------------------------------===//
// Heartbeat
//===----------------------------------------------------------------------===//

namespace {

/// Default ticks between clock reads; the hot loop pays one decrement and
/// compare per tick in between.
constexpr uint32_t ClockCheckStride = 4096;

double steadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Formats \p Bytes as " mem=<n>MB" into \p Buf, or an empty string when
/// the caller passed no measurement.
void formatMem(char *Buf, size_t Size, uint64_t Bytes) {
  if (Bytes == 0) {
    Buf[0] = '\0';
    return;
  }
  std::snprintf(Buf, Size, " mem=%.1fMB",
                static_cast<double>(Bytes) / (1024.0 * 1024.0));
}

} // namespace

Heartbeat::Heartbeat(double IntervalSec, std::FILE *Out, ClockFn Clock,
                     uint32_t Stride)
    : Out(Out), IntervalSec(IntervalSec),
      Clock(Clock ? Clock : &steadySeconds),
      Stride(Stride ? Stride : ClockCheckStride) {
  Start = LastBeat = now();
}

double Heartbeat::now() const { return Clock(); }

void Heartbeat::tick(uint64_t States, uint64_t Frontier,
                     uint64_t MemoryBytes) {
  if (TicksUntilClockCheck-- != 0)
    return;
  // Reset so every Stride-th tick reaches the clock (Stride == 1 checks
  // on every tick).
  TicksUntilClockCheck = Stride - 1;

  double Now = now();
  double SinceBeat = Now - LastBeat;
  if (SinceBeat < IntervalSec)
    return;

  double Elapsed = Now - Start;
  double Rate = static_cast<double>(States - LastStates) / SinceBeat;
  char Mem[32];
  formatMem(Mem, sizeof(Mem), MemoryBytes);
  std::fprintf(Out,
               "[progress] t=%.1fs states=%" PRIu64 " (%.0f/s) frontier=%"
               PRIu64 "%s\n",
               Elapsed, States, Rate, Frontier, Mem);
  std::fflush(Out);
  LastBeat = Now;
  LastStates = States;
}

void Heartbeat::finish(uint64_t States, uint64_t Frontier,
                       uint64_t MemoryBytes) {
  if (Finished)
    return;
  Finished = true;
  double Elapsed = now() - Start;
  double Rate =
      Elapsed > 0 ? static_cast<double>(States) / Elapsed : 0.0;
  char Mem[32];
  formatMem(Mem, sizeof(Mem), MemoryBytes);
  std::fprintf(Out,
               "[progress] done t=%.1fs states=%" PRIu64 " (avg %.0f/s) "
               "frontier=%" PRIu64 "%s\n",
               Elapsed, States, Rate, Frontier, Mem);
  std::fflush(Out);
}
