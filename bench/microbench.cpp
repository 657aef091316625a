//===- microbench.cpp - google-benchmark pipeline microbenchmarks ---------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput of the individual pipeline stages on the Figure-2 Bluetooth
/// model: frontend (parse+check+lower), CFG construction, the KISS
/// transformation (both modes), the points-to analysis, state encoding,
/// the BFS explorers, and the end-to-end check. After the google-benchmark
/// run, writes BENCH_seqcheck.json through the shared telemetry report
/// writer (phase spans, exploration counters, per-check records) so the
/// perf trajectory is tracked across PRs; tools/bench_diff.py compares two
/// such reports. `--json-only` skips the google-benchmark run and only
/// writes the report (used by the bench_diff CTest guard); `--json-out=P`
/// overrides the output path.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "alias/Steensgaard.h"
#include "cfg/CFG.h"
#include "conc/ConcChecker.h"
#include "drivers/Bluetooth.h"
#include "kiss/KissChecker.h"
#include "kiss/Transform.h"
#include "seqcheck/Runtime.h"
#include "seqcheck/SeqChecker.h"
#include "telemetry/Telemetry.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <vector>

using namespace kiss;
using namespace kiss::bench;
using namespace kiss::core;

namespace {

void BM_FrontendBluetooth(benchmark::State &State) {
  std::string Source = drivers::getBluetoothSource();
  for (auto _ : State) {
    Session S;
    auto P = S.compile("bt", Source);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_FrontendBluetooth);

void BM_CfgBuild(benchmark::State &State) {
  Compiled C = compileOrDie("bt", drivers::getBluetoothSource());
  for (auto _ : State) {
    cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
    benchmark::DoNotOptimize(CFG.getTotalNodes());
  }
}
BENCHMARK(BM_CfgBuild);

// The phase benchmarks below call the transform layer directly — they
// time one pipeline stage in isolation, which Session::check (end to
// end by design) cannot express. Everything end-to-end goes through
// kiss::Session.
void BM_TransformAssertions(benchmark::State &State) {
  Compiled C = compileOrDie("bt", drivers::getBluetoothSource());
  TransformOptions TO;
  TO.MaxTs = 1;
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto T = transformForAssertions(*C.Program, TO, Diags);
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_TransformAssertions);

void BM_TransformRace(benchmark::State &State) {
  Compiled C = compileOrDie("bt", drivers::getBluetoothSource());
  TransformOptions TO;
  TO.MaxTs = 0;
  RaceTarget T = RaceTarget::field(C.ctx().Syms.intern("DEVICE_EXTENSION"),
                                   C.ctx().Syms.intern("stoppingFlag"));
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto TP = transformForRace(*C.Program, T, TO, Diags);
    benchmark::DoNotOptimize(TP);
  }
}
BENCHMARK(BM_TransformRace);

void BM_PointsToAnalysis(benchmark::State &State) {
  Compiled C = compileOrDie("bt", drivers::getBluetoothSource());
  for (auto _ : State) {
    alias::PointsTo PT = alias::PointsTo::analyze(*C.Program);
    benchmark::DoNotOptimize(PT.getNumLocations());
  }
}
BENCHMARK(BM_PointsToAnalysis);

void BM_StateEncode(benchmark::State &State) {
  Compiled C = compileOrDie("bt", drivers::getBluetoothSource());
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
  uint32_t Entry = C.Program->getFunctionIndex(C.Program->getEntryName());
  rt::MachineState S = rt::makeInitialState(*C.Program, CFG, Entry);
  for (auto _ : State) {
    std::string Key = rt::encodeState(S);
    benchmark::DoNotOptimize(Key);
  }
}
BENCHMARK(BM_StateEncode);

/// The scalability bench's thread family (k threads, m private-global
/// updates each): safe, so both explorers run to exhaustion — a pure
/// visited-set/BFS workload with no error-path shortcuts.
std::string makeFamily(unsigned Threads, unsigned Steps) {
  std::string Src = "int g = 0;\n";
  Src += "void w() {\n";
  for (unsigned S = 0; S != Steps; ++S)
    Src += "  g = " + std::to_string(S + 1) + ";\n";
  Src += "}\n";
  Src += "void main() {\n";
  for (unsigned T = 0; T != Threads; ++T)
    Src += "  async w();\n";
  Src += "  assert(true);\n";
  Src += "}\n";
  return Src;
}

void BM_SeqCheckerBFS(benchmark::State &State) {
  Compiled C = compileOrDie("family", makeFamily(5, 4));
  TransformOptions TO;
  TO.MaxTs = 1;
  DiagnosticEngine Diags;
  auto TP = transformForAssertions(*C.Program, TO, Diags);
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*TP);
  seqcheck::SeqOptions SO;
  uint64_t States = 0;
  for (auto _ : State) {
    rt::CheckResult R = seqcheck::checkProgram(*TP, CFG, SO);
    States += R.StatesExplored;
    benchmark::DoNotOptimize(R.Outcome);
  }
  State.counters["states/s"] =
      benchmark::Counter(static_cast<double>(States),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SeqCheckerBFS);

void BM_ConcCheckerBFS(benchmark::State &State) {
  Compiled C = compileOrDie("family", makeFamily(4, 4));
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
  conc::ConcOptions CO;
  uint64_t States = 0;
  for (auto _ : State) {
    rt::CheckResult R = conc::checkProgram(*C.Program, CFG, CO);
    States += R.StatesExplored;
    benchmark::DoNotOptimize(R.Outcome);
  }
  State.counters["states/s"] =
      benchmark::Counter(static_cast<double>(States),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConcCheckerBFS);

void BM_EndToEndAssertionCheck(benchmark::State &State) {
  Compiled C = compileOrDie("bt", drivers::getBluetoothSource());
  C.config().MaxTs = 1;
  for (auto _ : State) {
    KissReport R = C.check();
    benchmark::DoNotOptimize(R.Verdict);
  }
}
BENCHMARK(BM_EndToEndAssertionCheck);

void BM_EndToEndRaceCheck(benchmark::State &State) {
  Compiled C = compileOrDie("bt", drivers::getBluetoothSource());
  RaceTarget T = RaceTarget::field(C.ctx().Syms.intern("DEVICE_EXTENSION"),
                                   C.ctx().Syms.intern("stoppingFlag"));
  C.config().M = CheckConfig::Mode::Race;
  C.config().MaxTs = 0;
  C.config().Race = T;
  for (auto _ : State) {
    KissReport R = C.check();
    benchmark::DoNotOptimize(R.Verdict);
  }
}
BENCHMARK(BM_EndToEndRaceCheck);

/// Times one phase: repeats \p Fn until ~0.2 s has accumulated and
/// returns the mean seconds per call.
template <typename F> double timePhase(F &&Fn) {
  using Clock = std::chrono::steady_clock;
  double Total = 0;
  unsigned Iters = 0;
  do {
    auto T0 = Clock::now();
    Fn();
    Total += std::chrono::duration<double>(Clock::now() - T0).count();
    ++Iters;
  } while (Total < 0.2);
  return Total / Iters;
}

/// Emits the machine-readable perf record future PRs diff against
/// (tools/bench_diff.py): per-phase wall time on the Figure-2 Bluetooth
/// model and the BFS explorers' throughput on the thread-family workload
/// (one check record per engine/store configuration), through the shared
/// telemetry report writer.
void writeSeqcheckJson(const char *Path) {
  std::string BtSource = drivers::getBluetoothSource();
  telemetry::RunRecorder Rec;
  Rec.setMeta("bench", "microbench");
  Rec.setMeta("workload", "bluetooth + family k=5 m=4, MAX=1");

  double FrontendSec = timePhase([&] {
    Session S;
    auto P = S.compile("bt", BtSource);
    benchmark::DoNotOptimize(P);
  });
  Rec.addPhase("frontend", FrontendSec * 1000.0);

  Compiled Bt = compileOrDie("bt", BtSource);
  double CfgSec = timePhase([&] {
    cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*Bt.Program);
    benchmark::DoNotOptimize(CFG.getTotalNodes());
  });
  Rec.addPhase("cfg", CfgSec * 1000.0);

  TransformOptions TO;
  TO.MaxTs = 1;
  double TransformSec = timePhase([&] {
    DiagnosticEngine Diags;
    auto T = transformForAssertions(*Bt.Program, TO, Diags);
    benchmark::DoNotOptimize(T);
  });
  Rec.addPhase("transform", TransformSec * 1000.0);

  // The BFS workload of BM_SeqCheckerBFS: safe, exhaustive exploration.
  // One record per engine/store configuration; the bare name is the
  // default configuration (threaded + flat) that older baselines tracked,
  // so its deterministic counts stay diffable across the engine switch.
  Compiled Fam = compileOrDie("family", makeFamily(5, 4));
  DiagnosticEngine Diags;
  auto TP = transformForAssertions(*Fam.Program, TO, Diags);
  cfg::ProgramCFG FamCFG = cfg::ProgramCFG::build(*TP);

  auto runFamily = [&](const char *Name, seqcheck::SeqOptions SO,
                       bool RecordPhase) {
    rt::CheckResult Probe = seqcheck::checkProgram(*TP, FamCFG, SO);
    double ExploreSec = timePhase([&] {
      rt::CheckResult R = seqcheck::checkProgram(*TP, FamCFG, SO);
      benchmark::DoNotOptimize(R.Outcome);
    });
    if (RecordPhase)
      Rec.addPhase("explore", ExploreSec * 1000.0)
          .Counters.emplace_back(
              "states_per_sec",
              static_cast<uint64_t>(
                  static_cast<double>(Probe.StatesExplored) / ExploreSec));
    Rec.addCheck(rt::makeCheckRecord(Probe, Name, ExploreSec * 1000.0));
  };

  seqcheck::SeqOptions Threaded;
  runFamily("family k=5 m=4, MAX=1", Threaded, /*RecordPhase=*/true);

  seqcheck::SeqOptions Interp;
  Interp.Exec = rt::ExecEngine::Interp;
  runFamily("family k=5 m=4, MAX=1 [interp]", Interp, /*RecordPhase=*/false);

  seqcheck::SeqOptions Delta;
  Delta.Store = rt::StoreMode::Delta;
  runFamily("family k=5 m=4, MAX=1 [delta]", Delta, /*RecordPhase=*/false);

  if (telemetry::writeReport(Rec, Path))
    std::printf("wrote %s\n", Path);
}

} // namespace

int main(int argc, char **argv) {
  // Strip our own flags before google-benchmark sees the command line.
  bool JsonOnly = false;
  const char *JsonPath = "BENCH_seqcheck.json";
  std::vector<char *> Args;
  for (int I = 0; I != argc; ++I) {
    if (std::strcmp(argv[I], "--json-only") == 0)
      JsonOnly = true;
    else if (std::strncmp(argv[I], "--json-out=", 11) == 0)
      JsonPath = argv[I] + 11;
    else
      Args.push_back(argv[I]);
  }
  int BenchArgc = static_cast<int>(Args.size());

  if (!JsonOnly) {
    benchmark::Initialize(&BenchArgc, Args.data());
    if (benchmark::ReportUnrecognizedArguments(BenchArgc, Args.data()))
      return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  writeSeqcheckJson(JsonPath);
  return 0;
}
