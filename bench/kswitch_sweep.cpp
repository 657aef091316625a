//===- kswitch_sweep.cpp - The context-switch bound as a coverage knob ----===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the K-bound generalization of Theorem 1: with MaxSwitches = K
/// the transform simulates every 2-thread execution with at most
/// 2*((K-1)/2)+2 context switches, so each extra round buys strictly more
/// coverage at a strictly higher exploration cost. Three workloads:
///
///  * the Bluetooth model — its bug needs 2 switches, visible at every K;
///  * a 3-switch synthetic — found at K >= 4, provably missed at K = 2;
///  * a 5-switch synthetic — found at K >= 6, missed at K <= 4.
///
/// For each (program, K) we record the verdict, the sequential state
/// count, and wall time, print the coverage/cost table, and emit
/// BENCH_kswitch.json through the shared telemetry writer so the curve is
/// measured, not asserted.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "drivers/Bluetooth.h"
#include "kiss/KissChecker.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <cstdio>

using namespace kiss;
using namespace kiss::bench;
using namespace kiss::core;

namespace {

/// Thread 1 must run, park, and resume after main's write: 3 switches.
const char *ThreeSwitchSource = R"(
  int a = 0;
  int b = 0;

  void w0() {
    a = 1;
    assume(b == 1);
    assert(b == 0);
  }

  void main() {
    async w0();
    b = a;
  }
)";

/// Thread 1 parks twice across main's two writes: 5 switches.
const char *FiveSwitchSource = R"(
  int a = 0;
  int b = 0;

  void w0() {
    a = 1;
    assume(b == 1);
    a = 2;
    assume(b == 2);
    assert(b == 0);
  }

  void main() {
    async w0();
    b = a;
    b = a;
  }
)";

double seconds(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

int main() {
  std::printf("K sweep: the context-switch bound as a coverage/cost knob\n");
  printRule('=');
  std::printf("%-22s %4s | %-20s %10s %8s\n", "Program", "K", "Verdict",
              "States", "Sec");
  printRule();

  struct Case {
    const char *Name;
    std::string Source;
    unsigned NeededK; ///< Smallest K that exposes the bug.
  };
  const Case Cases[] = {
      {"bluetooth (Fig. 2)", drivers::getBluetoothSource(), 2},
      {"3-switch synthetic", ThreeSwitchSource, 4},
      {"5-switch synthetic", FiveSwitchSource, 6},
  };

  telemetry::RunRecorder Rec;
  Rec.setMeta("bench", "kswitch_sweep");
  Rec.setMeta("max_ts", "2");

  bool AllMatch = true;
  for (const Case &Ca : Cases) {
    uint64_t PrevStates = 0;
    bool CostGrows = true;
    for (unsigned K = 2; K <= 6; K += 2) {
      CheckConfig Cfg;
      Cfg.MaxTs = 2;
      Cfg.MaxSwitches = K;
      Compiled C = compileOrDie(Ca.Name, Ca.Source, Cfg);
      auto Start = std::chrono::steady_clock::now();
      KissReport R = C.check();
      double Sec = seconds(Start);

      bool ExpectFound = K >= Ca.NeededK;
      bool Match = ExpectFound == R.foundError();
      AllMatch &= Match;
      std::printf("%-22s %4u | %-20s %10llu %8.3f %s\n", Ca.Name, K,
                  getVerdictName(R.Verdict),
                  static_cast<unsigned long long>(
                      R.Sequential.StatesExplored),
                  Sec, Match ? "" : "<- MISMATCH");

      Rec.addCheck(makeCheckRecord(
          R, std::string(Ca.Name) + "@K=" + std::to_string(K), Sec * 1000.0));

      // Cost side: on no-error runs the state space grows with K.
      if (!R.foundError()) {
        if (PrevStates && R.Sequential.StatesExplored < PrevStates)
          CostGrows = false;
        PrevStates = R.Sequential.StatesExplored;
      }
    }
    if (!CostGrows)
      std::printf("  note: state count did not grow monotonically with K\n");
    printRule();
  }

  Rec.setMeta("matches_theory", AllMatch ? "true" : "false");
  telemetry::writeReport(Rec, "BENCH_kswitch.json");
  std::printf("wrote BENCH_kswitch.json\n");
  std::printf("Expected: each bug appears exactly at its needed K; state "
              "counts grow with K.\n");
  std::printf("Reproduction %s.\n", AllMatch ? "SUCCEEDED" : "FAILED");
  return AllMatch ? 0 : 1;
}
