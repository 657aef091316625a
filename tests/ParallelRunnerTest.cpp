//===- ParallelRunnerTest.cpp ---------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The corpus runner's thread-pool fan-out must be invisible in results:
/// every DriverResult field except wall time is identical at every job
/// count, in the same field order.
///
//===----------------------------------------------------------------------===//

#include "drivers/Corpus.h"
#include "drivers/CorpusRunner.h"
#include "kiss/Kiss.h"
#include "support/Parallel.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

using namespace kiss;
using namespace kiss::drivers;

namespace {

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (unsigned Jobs : {1u, 3u, 8u}) {
    constexpr size_t N = 1000;
    std::vector<std::atomic<unsigned>> Hits(N);
    parallelFor(N, Jobs, [&](size_t I) { ++Hits[I]; });
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Hits[I].load(), 1u) << "index " << I << " jobs " << Jobs;
  }
}

TEST(ParallelForTest, HandlesEmptyAndTinyRanges) {
  parallelFor(0, 4, [&](size_t) { FAIL() << "no indices to run"; });
  std::atomic<unsigned> Count{0};
  parallelFor(1, 4, [&](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 1u);
}

TEST(ParallelForTest, ResolveJobsNeverReturnsZero) {
  EXPECT_GE(resolveJobs(0), 1u);
  EXPECT_EQ(resolveJobs(3), 3u);
}

//===----------------------------------------------------------------------===//
// Corpus runner determinism across job counts
//===----------------------------------------------------------------------===//

void expectSameResults(const DriverResult &A, const DriverResult &B) {
  EXPECT_EQ(A.Races, B.Races);
  EXPECT_EQ(A.NoRaces, B.NoRaces);
  EXPECT_EQ(A.BoundExceeded, B.BoundExceeded);
  ASSERT_EQ(A.Fields.size(), B.Fields.size());
  for (size_t I = 0; I != A.Fields.size(); ++I) {
    EXPECT_EQ(A.Fields[I].FieldIndex, B.Fields[I].FieldIndex) << I;
    EXPECT_EQ(A.Fields[I].Verdict, B.Fields[I].Verdict) << I;
    EXPECT_EQ(A.Fields[I].Bound, B.Fields[I].Bound) << I;
    EXPECT_EQ(A.Fields[I].StatesExplored, B.Fields[I].StatesExplored) << I;
  }
}

/// The smallest Table-1 driver with at least \p MinFields fields.
const DriverSpec *smallestDriverWith(const std::vector<DriverSpec> &Corpus,
                                     size_t MinFields) {
  const DriverSpec *D = nullptr;
  for (const DriverSpec &Spec : Corpus)
    if (Spec.Fields.size() >= MinFields &&
        (!D || Spec.Fields.size() < D->Fields.size()))
      D = &Spec;
  return D;
}

TEST(ParallelRunnerTest, JobCountDoesNotChangeDriverResults) {
  auto Corpus = getTable1Corpus();
  ASSERT_GE(Corpus.size(), 2u);

  // The two smallest drivers keep the test fast while still covering
  // several fields each.
  std::vector<const DriverSpec *> ByFields;
  for (const DriverSpec &D : Corpus)
    ByFields.push_back(&D);
  std::sort(ByFields.begin(), ByFields.end(),
            [](const DriverSpec *A, const DriverSpec *B) {
              return A->Fields.size() < B->Fields.size();
            });

  for (const DriverSpec *D : {ByFields[0], ByFields[1]}) {
    ASSERT_GE(D->Fields.size(), 1u);
    CorpusRunOptions Serial;
    Serial.Common.Jobs = 1;
    DriverResult R1 = runDriver(*D, Serial);

    CorpusRunOptions Pooled;
    Pooled.Common.Jobs = 4;
    DriverResult R4 = runDriver(*D, Pooled);

    expectSameResults(R1, R4);
  }
}

TEST(ParallelRunnerTest, JobCountDoesNotChangeFieldSubsetRuns) {
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = nullptr;
  for (const DriverSpec &Spec : Corpus)
    if (Spec.Fields.size() >= 3 && (!D || Spec.Fields.size() < D->Fields.size()))
      D = &Spec;
  ASSERT_NE(D, nullptr);

  // Re-running a field subset (the Table-2 path) out of order must also be
  // job-count invariant and preserve the requested order.
  CorpusRunOptions Serial;
  Serial.Harness = HarnessVersion::V2Refined;
  Serial.OnlyFields = {2, 0};
  Serial.Common.Jobs = 1;
  DriverResult R1 = runDriver(*D, Serial);

  CorpusRunOptions Pooled = Serial;
  Pooled.Common.Jobs = 4;
  DriverResult R4 = runDriver(*D, Pooled);

  ASSERT_EQ(R1.Fields.size(), 2u);
  EXPECT_EQ(R1.Fields[0].FieldIndex, 2u);
  EXPECT_EQ(R1.Fields[1].FieldIndex, 0u);
  expectSameResults(R1, R4);
}

TEST(ParallelRunnerTest, JobCountDoesNotChangeTheTelemetryReport) {
  // The documented determinism contract: with timings zeroed, the rendered
  // report is byte-identical at every job count — same phases, same check
  // records, same order, same counts.
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = nullptr;
  for (const DriverSpec &Spec : Corpus)
    if (Spec.Fields.size() >= 3 && (!D || Spec.Fields.size() < D->Fields.size()))
      D = &Spec;
  ASSERT_NE(D, nullptr);

  auto report = [&](unsigned Jobs) {
    telemetry::RunRecorder Rec;
    CorpusRunOptions Opts;
    Opts.Common.Jobs = Jobs;
    Opts.Common.Recorder = &Rec;
    // Sampling and profiling are part of the contract: the series and
    // profile arrays must also be byte-identical at every job count.
    Opts.SampleEvery = 64;
    Opts.Profile = true;
    runDriver(*D, Opts);
    telemetry::ReportOptions ZeroTimings;
    ZeroTimings.ZeroTimings = true;
    return renderReport(Rec, ZeroTimings);
  };

  std::string R1 = report(1), R4 = report(4);
  EXPECT_EQ(R1, R4);
  // And the report actually has content: one check record per field.
  for (const FieldSpec &F : D->Fields)
    EXPECT_NE(R1.find(D->Name + "." + F.Name), std::string::npos) << F.Name;
}

TEST(ParallelRunnerTest, FieldRecordsAreTheBuildersRecords) {
  // One way to build a check record: every field record runDriver reports
  // is exactly what core::makeCheckRecord builds from the same field
  // checked through a Session, engine identity included.
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = smallestDriverWith(Corpus, 3);
  ASSERT_NE(D, nullptr);

  telemetry::RunRecorder Rec;
  CorpusRunOptions Opts;
  Opts.Common.Jobs = 2;
  Opts.Common.Recorder = &Rec;
  Opts.SampleEvery = 64;
  Opts.Profile = true;
  runDriver(*D, Opts);
  ASSERT_EQ(Rec.checks().size(), D->Fields.size());

  telemetry::ReportOptions ZeroTimings;
  ZeroTimings.ZeroTimings = true;
  for (unsigned I = 0; I != D->Fields.size(); ++I) {
    const std::string Name = D->Name + "." + D->Fields[I].Name;
    SCOPED_TRACE(Name);
    CheckConfig Cfg;
    Cfg.M = CheckConfig::Mode::Race;
    Cfg.MaxTs = 0;
    Cfg.MaxStates = Opts.FieldStateBudget;
    Cfg.SampleEvery = Opts.SampleEvery;
    Cfg.Profile = Opts.Profile;
    Session S(Cfg);
    auto P = S.compile(Name, buildFieldProgram(*D, I, Opts.Harness));
    ASSERT_TRUE(P != nullptr) << S.diagnostics();
    std::string Error;
    ASSERT_TRUE(S.resolveRaceTarget(std::string(getDeviceExtensionName()) +
                                        "." + D->Fields[I].Name,
                                    *P, S.config().Race, Error))
        << Error;
    std::string Want = telemetry::renderCheckRecord(
        core::makeCheckRecord(S.check(*P), Name, 0), ZeroTimings);

    std::string Got = telemetry::renderCheckRecord(Rec.checks()[I],
                                                   ZeroTimings);
    EXPECT_EQ(Got, Want);
    EXPECT_NE(Got.find("\"exec_engine\": \"threaded\", \"engine\": \"seq\""),
              std::string::npos)
        << Got;
  }
}

//===----------------------------------------------------------------------===//
// Fault isolation: one failing field never takes down the corpus run
//===----------------------------------------------------------------------===//

TEST(ParallelRunnerTest, InjectedFaultDegradesOneFieldOnly) {
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = smallestDriverWith(Corpus, 3);
  ASSERT_NE(D, nullptr);

  CorpusRunOptions Clean;
  Clean.Common.Jobs = 1;
  DriverResult Baseline = runDriver(*D, Clean);

  // Field 1 throws bad_alloc mid-check; the runner must degrade it to a
  // BoundExceeded(memory) result and leave every other field untouched.
  CorpusRunOptions Faulty = Clean;
  Faulty.InjectFailField = 1;
  DriverResult R = runDriver(*D, Faulty);

  ASSERT_EQ(R.Fields.size(), Baseline.Fields.size());
  EXPECT_EQ(R.Fields[1].Verdict, core::KissVerdict::BoundExceeded);
  EXPECT_EQ(R.Fields[1].Bound, gov::BoundReason::Memory);
  EXPECT_EQ(R.Fields[1].StatesExplored, 0u);
  for (size_t I = 0; I != R.Fields.size(); ++I) {
    if (I == 1)
      continue;
    EXPECT_EQ(R.Fields[I].Verdict, Baseline.Fields[I].Verdict) << I;
    EXPECT_EQ(R.Fields[I].Bound, Baseline.Fields[I].Bound) << I;
    EXPECT_EQ(R.Fields[I].StatesExplored, Baseline.Fields[I].StatesExplored)
        << I;
  }
  EXPECT_EQ(R.BoundExceeded, Baseline.BoundExceeded + 1);
}

TEST(ParallelRunnerTest, InjectedTripReportsRequestedReason) {
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = smallestDriverWith(Corpus, 2);
  ASSERT_NE(D, nullptr);

  CorpusRunOptions Opts;
  Opts.Common.Jobs = 1;
  Opts.InjectTripField = 0;
  Opts.Common.Budget.TripReason = gov::BoundReason::Deadline;
  DriverResult R = runDriver(*D, Opts);

  ASSERT_GE(R.Fields.size(), 2u);
  EXPECT_EQ(R.Fields[0].Verdict, core::KissVerdict::BoundExceeded);
  EXPECT_EQ(R.Fields[0].Bound, gov::BoundReason::Deadline);
  // The untargeted fields ran to their normal verdicts.
  EXPECT_NE(R.Fields[1].Bound, gov::BoundReason::Deadline);
}

TEST(ParallelRunnerTest, FaultInjectedRunsAreJobCountInvariant) {
  // The acceptance contract: with one field killed by an injected fault,
  // jobs=1 and jobs=4 still agree on every result and render byte-identical
  // reports (timings zeroed).
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = smallestDriverWith(Corpus, 3);
  ASSERT_NE(D, nullptr);

  auto runAt = [&](unsigned Jobs, telemetry::RunRecorder *Rec) {
    CorpusRunOptions Opts;
    Opts.Common.Jobs = Jobs;
    Opts.InjectFailField = 1;
    Opts.Common.Recorder = Rec;
    return runDriver(*D, Opts);
  };

  telemetry::RunRecorder Rec1, Rec4;
  DriverResult R1 = runAt(1, &Rec1);
  DriverResult R4 = runAt(4, &Rec4);
  expectSameResults(R1, R4);

  telemetry::ReportOptions ZeroTimings;
  ZeroTimings.ZeroTimings = true;
  std::string Report1 = renderReport(Rec1, ZeroTimings);
  std::string Report4 = renderReport(Rec4, ZeroTimings);
  EXPECT_EQ(Report1, Report4);
  EXPECT_NE(Report1.find("\"bound_reason\": \"memory\""), std::string::npos);
}

TEST(ParallelRunnerTest, CancelledRunShortCircuitsAndMarksInterrupted) {
  auto Corpus = getTable1Corpus();
  const DriverSpec *D = smallestDriverWith(Corpus, 2);
  ASSERT_NE(D, nullptr);

  // A token cancelled before the run starts: every field drains without
  // work and the report is marked interrupted.
  gov::CancellationToken Token;
  Token.requestCancel();
  telemetry::RunRecorder Rec;
  CorpusRunOptions Opts;
  Opts.Common.Jobs = 1;
  Opts.Common.Budget.Cancel = &Token;
  Opts.Common.Recorder = &Rec;
  DriverResult R = runDriver(*D, Opts);

  for (const FieldResult &F : R.Fields) {
    EXPECT_EQ(F.Verdict, core::KissVerdict::BoundExceeded);
    EXPECT_EQ(F.Bound, gov::BoundReason::Cancelled);
    EXPECT_EQ(F.StatesExplored, 0u);
  }
  EXPECT_TRUE(Rec.interrupted());
  EXPECT_NE(renderReport(Rec).find("\"interrupted\": true"),
            std::string::npos);
}

} // namespace
