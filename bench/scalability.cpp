//===- scalability.cpp - KISS vs. full interleaving exploration -----------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's motivating claim (§1, §4): a traditional
/// concurrent model checker must explore a reachable-control-state set
/// that grows exponentially with the number of threads, while "the
/// complexity of using KISS on a concurrent program of a certain size is
/// about the same as using ... model checking on a sequential program of
/// the same size" — because the translation only adds a small constant
/// number of globals for a *fixed* ts bound MAX.
///
/// Workload: k forked threads, each executing m updates of its own global.
/// The program is safe, so both checkers run to exhaustion. We sweep k
/// with MAX fixed at 1 (the paper's own operating point for drivers is
/// MAX = 0 or 1) and report explored states and wall time for (a) the
/// concurrent checker over all interleavings and (b) the sequential
/// checker on the KISS translation. KISS covers only a subset of the
/// behaviors — that is exactly the coverage/cost tradeoff of §2.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cfg/CFG.h"
#include "conc/ConcChecker.h"
#include "kiss/KissChecker.h"
#include "support/Parallel.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

using namespace kiss;
using namespace kiss::bench;
using namespace kiss::core;

namespace {

/// k threads all running the same worker over one shared global: the
/// reachable *data* space stays tiny, so the concurrent checker's cost is
/// dominated by the thread-PC product — the exponential control-state
/// growth the paper's introduction describes — while the single-stack
/// translation has one program counter.
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

double seconds(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  constexpr unsigned Steps = 4;
  constexpr unsigned MaxTs = 1;
  constexpr unsigned MaxThreads = 6;
  constexpr uint64_t Budget = 8000000;

  // The k points are independent (each compiles its own program), so the
  // sweep fans out over --jobs workers. The default stays sequential: the
  // per-k wall-clock columns are this bench's point, and co-scheduled
  // checks would perturb them. State counts are identical either way.
  unsigned Jobs = 1;
  if (!parseJobsFlag(Argc, Argv, Jobs))
    return 2;

  std::printf("Scalability: exhaustive interleavings vs. the KISS "
              "translation\n(m = %u steps/thread, MAX = %u fixed, %u "
              "worker thread(s))\n", Steps, MaxTs, resolveJobs(Jobs));
  printRule('=');
  std::printf("%2s | %12s %9s %7s | %12s %9s %7s\n", "k", "conc states",
              "conc s", "growth", "kiss states", "kiss s", "growth");
  printRule();

  // Each worker builds its k's two check records as soon as the checks
  // return; they are recorded in k order after the join, so the report is
  // deterministic regardless of --jobs.
  struct Row {
    rt::CheckOutcome ConcOutcome = rt::CheckOutcome::Safe;
    KissVerdict KissV = KissVerdict::NoErrorFound;
    telemetry::CheckRecord Conc, Kiss;
  };
  std::vector<Row> Rows(MaxThreads);

  parallelFor(MaxThreads, Jobs, [&](size_t I) {
    unsigned K = static_cast<unsigned>(I) + 1;
    Compiled C = compileOrDie("family", makeFamily(K, Steps));
    cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
    Row &R = Rows[I];

    auto T0 = std::chrono::steady_clock::now();
    conc::ConcOptions CO;
    CO.MaxStates = Budget;
    CO.MaxThreads = MaxThreads + 2;
    rt::CheckResult Conc = conc::checkProgram(*C.Program, CFG, CO);
    R.ConcOutcome = Conc.Outcome;
    R.Conc = rt::makeCheckRecord(Conc, "conc k=" + std::to_string(K),
                                 seconds(T0) * 1000.0);

    auto T1 = std::chrono::steady_clock::now();
    C.config().MaxTs = MaxTs;
    C.config().MaxStates = Budget;
    KissReport Kiss = C.check();
    R.KissV = Kiss.Verdict;
    R.Kiss = makeCheckRecord(Kiss, "kiss k=" + std::to_string(K),
                             seconds(T1) * 1000.0);
  });

  telemetry::RunRecorder Rec;
  Rec.setMeta("bench", "scalability");
  Rec.setMeta("workload", "family sweep k=1.." + std::to_string(MaxThreads) +
                              ", m=" + std::to_string(Steps) +
                              ", MAX=" + std::to_string(MaxTs));

  std::vector<uint64_t> ConcSeries, KissSeries;

  for (unsigned K = 1; K <= MaxThreads; ++K) {
    const Row &R = Rows[K - 1];
    if (R.ConcOutcome != rt::CheckOutcome::Safe ||
        R.KissV != KissVerdict::NoErrorFound) {
      std::printf("unexpected verdict on a safe program (conc=%s, "
                  "kiss=%s)\n", rt::getOutcomeName(R.ConcOutcome),
                  getVerdictName(R.KissV));
      return 1;
    }
    Rec.addCheck(R.Conc);
    Rec.addCheck(R.Kiss);

    ConcSeries.push_back(R.Conc.States);
    KissSeries.push_back(R.Kiss.States);
    double ConcGrowth =
        K > 1 ? static_cast<double>(ConcSeries[K - 1]) / ConcSeries[K - 2]
              : 0.0;
    double KissGrowth =
        K > 1 ? static_cast<double>(KissSeries[K - 1]) / KissSeries[K - 2]
              : 0.0;
    std::printf("%2u | %12llu %9.3f %6.2fx | %12llu %9.3f %6.2fx\n", K,
                static_cast<unsigned long long>(R.Conc.States),
                R.Conc.WallMs / 1000.0, ConcGrowth,
                static_cast<unsigned long long>(R.Kiss.States),
                R.Kiss.WallMs / 1000.0, KissGrowth);
  }

  // Shape: the concurrent series grows by a roughly constant factor > 2
  // per added thread (exponential), the KISS series by a shrinking factor
  // (polynomial). Compare the last growth factors.
  double ConcLast = static_cast<double>(ConcSeries.back()) /
                    ConcSeries[ConcSeries.size() - 2];
  double KissLast = static_cast<double>(KissSeries.back()) /
                    KissSeries[KissSeries.size() - 2];
  bool ShapeHolds = ConcLast > 2.5 && KissLast < ConcLast * 0.8 &&
                    ConcSeries.back() > KissSeries.back();

  printRule('=');
  std::printf("Expected shape: per-thread growth factor stays > 2.5x for "
              "the concurrent checker\n(exponential in k) and tails off "
              "for the KISS translation; at the largest k the\nconcurrent "
              "exploration is the bigger one. Coverage note: KISS checks a "
              "subset of\nbehaviors (the §2 tradeoff); the concurrent "
              "checker covers all interleavings.\n");
  std::printf("Last growth factors: conc %.2fx, kiss %.2fx.\n", ConcLast,
              KissLast);
  std::printf("Shape %s.\n", ShapeHolds ? "HOLDS" : "VIOLATED");

  Rec.addCounter("conc_states_total",
                 std::accumulate(ConcSeries.begin(), ConcSeries.end(),
                                 uint64_t(0)));
  Rec.addCounter("kiss_states_total",
                 std::accumulate(KissSeries.begin(), KissSeries.end(),
                                 uint64_t(0)));
  Rec.setMeta("shape_holds", ShapeHolds ? "true" : "false");
  telemetry::writeReport(Rec, "BENCH_scalability.json");
  std::printf("wrote BENCH_scalability.json\n");
  printProcessUsage();
  return ShapeHolds ? 0 : 1;
}
