//===- main.cpp - kissbench: the repo benchmark harness -------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// usage: kissbench --workload <paper_tables|kissd_stream>
///                  --seed <n> --seconds <s> --trace <0|1>
///                  --repo-root <dir> --work-dir <dir> --kissd <path>
///
/// Runs one workload and prints every metric by name and unit, with the
/// result JSON as the last stdout line. Exit 0 when every answer was
/// right, 1 on any wrong answer, 2 when the run could not be made.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace kb;

uint64_t kb::mixSeed(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

static unsigned countCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return 1;
}

static bool parseArgs(int Argc, char **Argv, RunOptions &O) {
  for (int I = 1; I < Argc; I += 2) {
    if (I + 1 >= Argc)
      return false;
    std::string A = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        return false;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0) || O.Seconds > 120)
        return false;
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return false;
      O.Trace = V == "1";
    } else if (A == "--repo-root") {
      O.RepoRoot = V;
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else if (A == "--kissd") {
      O.KissdPath = V;
    } else {
      return false;
    }
  }
  return !O.Workload.empty() && !O.WorkDir.empty();
}

int main(int Argc, char **Argv) {
  RunOptions O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: kissbench --workload <paper_tables|kissd_stream> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir> [--repo-root <dir>] [--kissd <path>]\n");
    return 2;
  }
  O.Nproc = countCpus();

  RunResult R;
  bool Ran = false;
  if (O.Workload == "paper_tables")
    Ran = runPaperTables(O, R);
  else if (O.Workload == "kissd_stream")
    Ran = runKissdStream(O, R);
  else
    std::fprintf(stderr, "kissbench: unknown workload '%s'\n",
                 O.Workload.c_str());
  if (!Ran)
    return 2;
  if (R.Attempted == 0) {
    std::fprintf(stderr, "kissbench: no op completed\n");
    return 2;
  }
  printResult(O, R);
  return R.Correct ? 0 : 1;
}
