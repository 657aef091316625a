//===- table1_races.cpp - Reproduces Table 1 of the paper -----------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Experimental results (I)": races found per driver with the
/// unconstrained two-thread dispatch harness. For each of the 18 drivers
/// every device-extension field is checked separately with MAX = 0 under a
/// per-field resource bound, exactly following §6. Prints the measured row
/// next to the paper's row.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "drivers/CorpusRunner.h"
#include "support/Parallel.h"
#include "telemetry/Telemetry.h"

#include <cstdio>

using namespace kiss;
using namespace kiss::bench;
using namespace kiss::drivers;

int main(int Argc, char **Argv) {
  CorpusBenchOptions Bench;
  if (!parseCorpusFlags(Argc, Argv, Bench))
    return 2;
  unsigned Jobs = Bench.Jobs;
  gov::CancellationToken *Cancel = installBenchCancellation();

  telemetry::RunRecorder Rec;
  Rec.setMeta("bench", "table1_races");
  Rec.setMeta("harness", "unconstrained");

  std::printf("Table 1: race detection with the unconstrained harness "
              "(MAX = 0)\n");
  std::printf("Per-field resource bound: 25000 states (paper: 20 min / "
              "800 MB per field); %u worker thread(s)\n",
              resolveJobs(Jobs));
  printRule('=');
  std::printf("%-18s %6s %6s %7s | %6s %6s %6s | %6s %6s %6s\n", "Driver",
              "KLOC*", "MdlLoC", "Fields", "Races", "NoRace", "Bound",
              "pRace", "pNoRc", "pBnd");
  printRule();

  CorpusRunOptions Opts;
  Opts.Harness = HarnessVersion::V1Unconstrained;
  Opts.Common.Jobs = Jobs;
  Opts.Common.Recorder = &Rec;
  Opts.Common.Budget = makeFieldBudget(Bench, Cancel);

  unsigned TotalFields = 0, TotalRaces = 0, TotalNoRaces = 0, TotalBound = 0;
  unsigned PaperRaces = 0, PaperNoRaces = 0, PaperBound = 0;
  double TotalSeconds = 0;
  bool AllMatch = true;

  for (const DriverSpec &D : getTable1Corpus()) {
    if (Cancel->isCancelled())
      break; // Cancel-and-drain: flush what we have below, exit 3.
    DriverResult R = runDriver(D, Opts);
    TotalFields += D.NumFields;
    TotalRaces += R.Races;
    TotalNoRaces += R.NoRaces;
    TotalBound += R.BoundExceeded;
    PaperRaces += D.RacesV1;
    PaperNoRaces += D.NoRacesV1;
    PaperBound += D.numBoundExceeded();
    TotalSeconds += R.Seconds;

    bool Match = R.Races == D.RacesV1 && R.NoRaces == D.NoRacesV1 &&
                 R.BoundExceeded == D.numBoundExceeded();
    AllMatch &= Match;

    std::printf("%-18s %6.1f %6u %7u | %6u %6u %6u | %6u %6u %6u %s\n",
                D.Name.c_str(), D.PaperKloc,
                countModelLines(D, Opts.Harness), D.NumFields, R.Races,
                R.NoRaces, R.BoundExceeded, D.RacesV1, D.NoRacesV1,
                D.numBoundExceeded(), Match ? "" : "<- MISMATCH");
  }

  printRule();
  std::printf("%-18s %6.1f %6s %7u | %6u %6u %6u | %6u %6u %6u\n", "Total",
              69.6, "", TotalFields, TotalRaces, TotalNoRaces, TotalBound,
              PaperRaces, PaperNoRaces, PaperBound);
  printRule('=');
  std::printf("KLOC* = size of the original DDK driver (paper metadata); "
              "MdlLoC = lines of our\ngenerated model. p... columns are the "
              "paper's reported numbers.\n");
  std::printf("Wall time: %.1f s for %u per-field checks.\n", TotalSeconds,
              TotalFields);
  std::printf("Reproduction %s: every per-driver row %s the paper.\n",
              AllMatch ? "SUCCEEDED" : "FAILED",
              AllMatch ? "matches" : "does NOT match");

  Rec.addCounter("fields_checked", TotalFields);
  Rec.addCounter("races", TotalRaces);
  Rec.addCounter("no_races", TotalNoRaces);
  Rec.addCounter("bound_exceeded", TotalBound);
  Rec.setMeta("matches_paper", AllMatch ? "true" : "false");
  if (Cancel->isCancelled()) {
    Rec.setInterrupted(true);
    std::printf("bench interrupted; partial results above\n");
  }
  telemetry::writeReport(Rec, "BENCH_table1_races.json");
  std::printf("wrote BENCH_table1_races.json\n");
  printProcessUsage();
  if (Cancel->isCancelled())
    return 3;
  return AllMatch ? 0 : 1;
}
