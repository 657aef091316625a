//===- Measure.cpp --------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "support/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace kb;

static Usage usageOf(int Who) {
  struct rusage RU {};
  getrusage(Who, &RU);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1000.0 +
           static_cast<double>(T.tv_usec) / 1000.0;
  };
  return {Ms(RU.ru_utime), Ms(RU.ru_stime),
          static_cast<uint64_t>(RU.ru_minflt),
          static_cast<double>(RU.ru_maxrss) / 1024.0};
}

void kb::settleMmapThreshold() {
  void *volatile Block = std::malloc(SettleBlockBytes);
  std::free(Block);
}

Usage kb::selfUsage() { return usageOf(RUSAGE_SELF); }
Usage kb::threadUsage() { return usageOf(RUSAGE_THREAD); }

double kb::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[Rank == 0 ? 0 : std::min(Rank, V.size()) - 1];
}

void RunResult::wrong(const std::string &What) {
  Correct = false;
  ++Failed;
  if (Errors.size() < 10)
    Errors.push_back(What);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - Origin)
      .count();
}

void Tracer::begin(const char *Name) {
  int64_t Parent = Open.empty() ? -1 : Open.back().Id;
  Open.push_back({Name, nowUs(), 0, NextId++, Parent, CurOp});
}

void Tracer::end() {
  Span S = Open.back();
  Open.pop_back();
  S.EndUs = nowUs();
  double Dur = S.EndUs - S.StartUs;
  if (!Open.empty())
    Open.back().ChildUs += Dur;
  Sum &Total = Sums[S.Name];
  Total.SelfUs += Dur - S.ChildUs;
  Total.TotalUs += Dur;
  if (Kept.size() < MaxKept)
    Kept.push_back(S);
}

double Tracer::selfMs(std::string_view Name) const {
  auto It = Sums.find(Name);
  return It == Sums.end() ? 0 : It->second.SelfUs / 1000.0;
}

double Tracer::totalMs(std::string_view Name) const {
  auto It = Sums.find(Name);
  return It == Sums.end() ? 0 : It->second.TotalUs / 1000.0;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\": [");
  for (size_t I = 0; I != Kept.size(); ++I) {
    const Span &S = Kept[I];
    std::fprintf(F,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %lld, \"parent\": %lld, \"op\": %llu}}",
                 I ? "," : "", S.Name, S.StartUs, S.EndUs - S.StartUs,
                 static_cast<long long>(S.Id), static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Op));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

void kb::saveSpans(const RunOptions &O, const Tracer &T, RunResult &R) {
  std::string Path = O.WorkDir + "/spans.json";
  uint64_t Kept = std::min<uint64_t>(T.count(), Tracer::MaxKept);
  if (T.write(Path))
    R.info("spans", std::to_string(T.count()) + " (first " +
                        std::to_string(Kept) + " written to " + Path + ")");
  else
    R.info("spans", "could not write " + Path);
}

//===----------------------------------------------------------------------===//
// End-to-end metrics
//===----------------------------------------------------------------------===//

void kb::addEndToEnd(RunResult &R, const EndToEnd &E) {
  size_t N = E.LatencyMs.size();
  double OpsPerS = E.OpsPerS;
  double P50 = percentile(E.LatencyMs, 0.50);
  double P99 = percentile(E.LatencyMs, 0.99);
  size_t Chunk = N / RateChunks;
  if (!E.DoneMs.empty() && Chunk > 0) {
    std::vector<double> Rates, P50s, P99s;
    double From = 0;
    for (size_t Begin = 0; Begin + Chunk <= N; Begin += Chunk) {
      double To = E.DoneMs[Begin + Chunk - 1];
      if (To > From)
        Rates.push_back(static_cast<double>(Chunk) * 1000.0 / (To - From));
      From = To;
      std::vector<double> Lat(E.LatencyMs.begin() + Begin,
                              E.LatencyMs.begin() + Begin + Chunk);
      P50s.push_back(percentile(Lat, 0.50));
      P99s.push_back(percentile(std::move(Lat), 0.99));
    }
    OpsPerS = median(Rates);
    P50 = median(P50s);
    // A chunk's p99 needs 10 samples beyond it.
    if (Chunk >= 1000)
      P99 = median(P99s);
    R.info("chunks", std::to_string(Rates.size()) + " of " +
                         std::to_string(Chunk) +
                         " ops (ops_per_s, p50" +
                         (Chunk >= 1000 ? ", p99" : "") +
                         " are medians over them)");
  }
  double Ops = static_cast<double>(N);
  R.metric("ops_per_s", OpsPerS, "1/s");
  R.metric("latency_p50_ms", P50, "ms");
  R.metric("latency_p99_ms", P99, "ms");
  R.metric("cpu_ms_per_op", Ops > 0 ? E.Cpu.cpuMs() / Ops : 0, "ms");
  R.metric("minor_faults_per_op",
           Ops > 0 ? static_cast<double>(E.Cpu.MinorFaults) / Ops : 0, "count");
  R.metric("peak_rss_mb", E.PeakRssMb, "MB");
  R.metric("verdict_ok_frac",
           R.Attempted ? static_cast<double>(R.Attempted - R.Failed) /
                             static_cast<double>(R.Attempted)
                       : 0,
           "ratio");
  R.metric("setup_s", median(E.SetupS), "s");
  R.info("timed ops", std::to_string(N));
  R.info("setups", std::to_string(E.SetupS.size()) + " (setup_s is their median)");
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

void kb::addRound(Counters &Total, Counters &First, const Counters &Round,
                  unsigned RoundNo, RunResult &R) {
  for (const auto &[K, V] : Round)
    Total[K] += V;
  if (RoundNo == 0) {
    First = Round;
    return;
  }
  for (const auto &[K, V] : First) {
    if (K == "seq_minor_faults" || K == "seq_sys_ms")
      continue;
    auto It = Round.find(K);
    if (It == Round.end() || It->second != V)
      R.wrong("traced count " + K + " differs between rounds");
  }
}

void kb::addLayerMetrics(RunResult &R, const Tracer &T, const Counters &C,
                         double Ops, const Usage &TracedCpu, double TracedMs,
                         double UntracedMs) {
  auto Get = [&](const char *Name) {
    auto It = C.find(Name);
    return It == C.end() ? 0.0 : It->second;
  };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  auto PerOp = [&](double V) { return Ratio(V, Ops); };

  double Emitted = Get("probes_emitted"), Pruned = Get("probes_pruned");
  double SeqStates = Get("seq_states"), SeqDedup = Get("seq_dedup");
  double SeqMs = T.totalMs("seqcheck.explore");
  double Hits = Get("service_hits"), Misses = Get("service_misses");
  double AliasMs = T.totalMs("alias.analyze");

  R.metric("lang.parse_ms_per_op", PerOp(T.selfMs("lang.parse")), "ms");
  R.metric("lower.lower_ms_per_op", PerOp(T.selfMs("lower.lower")), "ms");
  R.metric("lower.source_kb_per_op", PerOp(Get("source_bytes") / 1024.0), "KB");
  R.metric("alias.analyze_ms_per_op", PerOp(AliasMs), "ms");
  R.metric("alias.pruned_probe_frac", Ratio(Pruned, Emitted + Pruned), "ratio");
  R.metric("kiss.transform_ms_per_op",
           PerOp(std::max(0.0, T.selfMs("kiss.transform") - AliasMs)), "ms");
  R.metric("kiss.probes_per_op", PerOp(Emitted), "count");
  R.metric("kiss.tracemap_ms_per_error",
           Ratio(T.totalMs("kiss.tracemap"), Get("errors")), "ms");
  R.metric("cfg.build_ms_per_op", PerOp(T.totalMs("cfg.build")), "ms");
  R.metric("cfg.nodes_per_op", PerOp(Get("cfg_nodes")), "count");
  R.metric("seqcheck.explore_ms_per_op", PerOp(SeqMs), "ms");
  R.metric("seqcheck.states_per_s", Ratio(SeqStates, SeqMs / 1000.0), "1/s");
  R.metric("seqcheck.states_per_op", PerOp(SeqStates), "count");
  R.metric("seqcheck.transitions_per_op", PerOp(Get("seq_transitions")),
           "count");
  R.metric("seqcheck.dedup_hit_frac", Ratio(SeqDedup, SeqDedup + SeqStates),
           "ratio");
  R.metric("seqcheck.arena_bytes_per_state",
           Ratio(Get("seq_arena_bytes"), SeqStates), "B");
  R.metric("seqcheck.index_bytes_per_op", PerOp(Get("seq_index_bytes")), "B");
  R.metric("seqcheck.probes_per_lookup",
           Ratio(Get("seq_hash_probes"), SeqDedup + SeqStates), "count");
  R.metric("seqcheck.bounded_frac", Ratio(Get("seq_bounded"), Get("seq_checks")),
           "ratio");
  R.metric("seqcheck.minor_faults_per_op", PerOp(Get("seq_minor_faults")),
           "count");
  R.metric("seqcheck.sys_ms_per_op", PerOp(Get("seq_sys_ms")), "ms");
  R.metric("bebop.fragment_ms_per_op", PerOp(T.totalMs("bebop.fragment")), "ms");
  R.metric("bebop.check_ms_per_op", PerOp(T.totalMs("bebop.check")), "ms");
  R.metric("bebop.path_edges_per_op", PerOp(Get("bebop_path_edges")), "count");
  R.metric("bebop.selected_frac",
           Ratio(Get("bebop_selected"), Get("bebop_probed")), "ratio");
  R.metric("drivers.modelgen_ms_per_op", PerOp(T.totalMs("drivers.modelgen")),
           "ms");
  R.metric("service.hit_frac", Ratio(Hits, Hits + Misses), "ratio");
  R.metric("service.parse_us_per_op", PerOp(T.totalMs("service.parse")) * 1e3,
           "us");
  R.metric("service.key_us_per_op", PerOp(T.totalMs("service.key")) * 1e3, "us");
  R.metric("service.lookup_us_per_op",
           PerOp(T.totalMs("service.lookup")) * 1e3, "us");
  R.metric("service.frame_us_per_op", PerOp(T.totalMs("service.frame")) * 1e3,
           "us");
  R.metric("service.render_us_per_op",
           PerOp(T.totalMs("service.render")) * 1e3, "us");
  R.metric("service.run_ms_per_miss", Ratio(T.totalMs("service.run"), Misses),
           "ms");
  R.metric("service.response_bytes_per_op", PerOp(Get("service_response_bytes")),
           "B");
  R.metric("telemetry.render_us_per_op",
           PerOp(T.totalMs("telemetry.render")) * 1e3, "us");
  R.metric("proc.user_ms_per_op", PerOp(TracedCpu.UserMs), "ms");
  R.metric("proc.sys_ms_per_op", PerOp(TracedCpu.SysMs), "ms");
  R.metric("proc.trace_overhead_frac",
           UntracedMs > 0 ? TracedMs / UntracedMs - 1.0 : 0.0, "ratio");
}


//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

static std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void kb::printResult(const RunOptions &O, const RunResult &R) {
  std::printf("kissbench: workload %s, seed %llu, %s run\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Trace ? "traced" : "untraced");
  for (const auto &[K, V] : R.Info)
    std::printf("  %-22s %s\n", K.c_str(), V.c_str());
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "kissbench: WRONG: %s\n", E.c_str());
  std::printf("  %-22s %llu attempted, %llu failed -> %s\n", "ops",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Correct ? "correct" : "WRONG ANSWERS");
  for (const auto &[Name, VU] : R.Metrics)
    std::printf("  %-36s %14.6g %s\n", Name.c_str(), VU.first,
                VU.second.c_str());

  std::string Line = "{\"correct\": ";
  Line += R.Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(R.Attempted);
  Line += ", \"failed\": " + std::to_string(R.Failed);
  Line += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : R.Metrics) {
    Line += First ? "" : ", ";
    First = false;
    Line += kiss::json::quote(Name) + ": {\"value\": " + num(VU.first) +
            ", \"unit\": " + kiss::json::quote(VU.second) + "}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}
