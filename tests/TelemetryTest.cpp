//===- TelemetryTest.cpp - Telemetry layer unit + golden tests ------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry contract: escaped report strings, span nesting, counter
/// aggregation, the report envelope (schema golden test on a real .kiss
/// run), and the determinism guarantee that reports are byte-identical
/// modulo timings.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "kiss/Kiss.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace kiss;
using namespace kiss::core;
using namespace kiss::telemetry;
using kiss::test::compile;

namespace {

TEST(TelemetryTest, EscapedStringsRoundTripThroughTheReport) {
  RunRecorder Rec;
  Rec.setMeta("input", "dir\\sub/\"quoted\"\nname.kiss");
  std::string Report = renderReport(Rec);
  EXPECT_NE(
      Report.find("\"input\": \"dir\\\\sub/\\\"quoted\\\"\\nname.kiss\""),
      std::string::npos)
      << Report;
  // The rendered report must never contain a raw control character beyond
  // its own layout newlines — escaping keeps string payloads one-line.
  for (char C : Report)
    if (C != '\n')
      EXPECT_GE(static_cast<unsigned char>(C), 0x20u);
}

//===----------------------------------------------------------------------===//
// Spans, counters, rendering
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, SpansNestIntoSlashJoinedPaths) {
  RunRecorder Rec;
  {
    auto Outer = Rec.beginPhase("transform");
    auto Inner = Rec.beginPhase("alias");
    Inner.counter("pointsto_locations", 7);
  }
  ASSERT_EQ(Rec.phases().size(), 2u);
  EXPECT_EQ(Rec.phases()[0].Name, "transform");
  EXPECT_EQ(Rec.phases()[1].Name, "transform/alias");
  ASSERT_EQ(Rec.phases()[1].Counters.size(), 1u);
  EXPECT_EQ(Rec.phases()[1].Counters[0].first, "pointsto_locations");
  EXPECT_EQ(Rec.phases()[1].Counters[0].second, 7u);
}

TEST(TelemetryTest, CountersAccumulateAndRenderSorted) {
  RunRecorder Rec;
  Rec.addCounter("zebra", 1);
  Rec.addCounter("apple", 2);
  Rec.addCounter("zebra", 3);
  std::string Report = renderReport(Rec);
  EXPECT_NE(Report.find("\"counters\": {\"apple\": 2, \"zebra\": 4}"),
            std::string::npos)
      << Report;
}

TEST(TelemetryTest, EmptyRecorderRendersTheBareEnvelope) {
  RunRecorder Rec;
  EXPECT_EQ(renderReport(Rec), "{\n"
                               "  \"schema_version\": 5,\n"
                               "  \"kind\": \"kiss-telemetry-report\",\n"
                               "  \"interrupted\": false,\n"
                               "  \"meta\": {},\n"
                               "  \"counters\": {},\n"
                               "  \"phases\": [],\n"
                               "  \"checks\": []\n"
                               "}\n");
}

TEST(TelemetryTest, InterruptedFlagRendersTrue) {
  RunRecorder Rec;
  EXPECT_FALSE(Rec.interrupted());
  Rec.setInterrupted();
  EXPECT_TRUE(Rec.interrupted());
  EXPECT_NE(renderReport(Rec).find("\"interrupted\": true"),
            std::string::npos);
}

TEST(TelemetryTest, ZeroTimingsZeroesEveryWallMsField) {
  RunRecorder Rec;
  Rec.addPhase("explore", 123.456);
  CheckRecord C;
  C.Name = "c";
  C.Outcome = "safe";
  C.WallMs = 99.9;
  Rec.addCheck(std::move(C));

  ReportOptions Zero;
  Zero.ZeroTimings = true;
  std::string Report = renderReport(Rec, Zero);
  EXPECT_EQ(Report.find("123.456"), std::string::npos);
  EXPECT_EQ(Report.find("99.9"), std::string::npos);
  // Both wall_ms fields render as exactly 0.000.
  size_t First = Report.find("\"wall_ms\": 0.000");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Report.find("\"wall_ms\": 0.000", First + 1), std::string::npos);
}

TEST(TelemetryTest, StatesPerSecIsDerivedFromStatesAndWallTime) {
  CheckRecord C;
  C.States = 1000;
  C.WallMs = 250.5;
  ReportOptions Zero;
  Zero.ZeroTimings = true;
  // 1000 states in 250.5 ms is 3992.01... states/s, rounded down.
  EXPECT_NE(renderCheckRecord(C).find("\"states_per_sec\": 3992,"),
            std::string::npos);
  EXPECT_NE(renderCheckRecord(C, Zero).find("\"states_per_sec\": 0,"),
            std::string::npos);
  C.WallMs = 0;
  EXPECT_NE(renderCheckRecord(C).find("\"states_per_sec\": 0,"),
            std::string::npos);
}

TEST(TelemetryTest, WriteReportRoundTripsThroughDisk) {
  RunRecorder Rec;
  Rec.setMeta("tool", "test");
  Rec.addCounter("n", 42);
  Rec.addPhase("p", 1.5);

  std::string Path = testing::TempDir() + "telemetry_roundtrip.json";
  ASSERT_TRUE(writeReport(Rec, Path));
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good());
  std::ostringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), renderReport(Rec));
  std::remove(Path.c_str());
}

TEST(TelemetryTest, WriteReportFailsCleanlyOnBadPath) {
  RunRecorder Rec;
  EXPECT_FALSE(writeReport(Rec, "/nonexistent-dir/report.json"));
}

//===----------------------------------------------------------------------===//
// Chrome trace-event rendering
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, RenderTraceEmitsTheChromeEventEnvelope) {
  RunRecorder Rec;
  Rec.addPhase("explore", 5.0);
  CheckRecord C;
  C.Name = "main.kiss";
  C.Outcome = "safe";
  C.WallMs = 2.0;
  C.States = 100;
  SeriesPoint S;
  S.States = 64;
  S.Frontier = 7;
  S.ArenaBytes = 1000;
  S.IndexBytes = 24;
  C.Series.push_back(S);
  Rec.addCheck(std::move(C));

  std::string T = renderTrace(Rec);
  EXPECT_EQ(T.rfind("{\"traceEvents\": [", 0), 0u) << T;
  // Metadata names the process and both tracks.
  EXPECT_NE(T.find("\"process_name\""), std::string::npos);
  EXPECT_NE(T.find("\"pipeline phases\""), std::string::npos);
  EXPECT_NE(T.find("\"checks\""), std::string::npos);
  // The phase is a complete slice, the check a begin/end pair, and the
  // series point a counter sample summing arena + index bytes.
  EXPECT_NE(T.find("\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"name\": \"explore\""),
            std::string::npos)
      << T;
  EXPECT_NE(T.find("\"ph\": \"B\", \"pid\": 1, \"tid\": 2, "
                   "\"name\": \"main.kiss\""),
            std::string::npos)
      << T;
  EXPECT_NE(T.find("\"ph\": \"E\", \"pid\": 1, \"tid\": 2"),
            std::string::npos);
  EXPECT_NE(T.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(T.find("\"memory_bytes\": 1024"), std::string::npos) << T;
  // Balanced envelope: the file must end by closing the event array.
  EXPECT_EQ(T.substr(T.size() - 4), "\n]}\n");
}

TEST(TelemetryTest, WriteTraceRoundTripsThroughDisk) {
  RunRecorder Rec;
  Rec.addPhase("p", 1.0);
  std::string Path = testing::TempDir() + "telemetry_trace.json";
  ASSERT_TRUE(writeTrace(Rec, Path));
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good());
  std::ostringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), renderTrace(Rec));
  std::remove(Path.c_str());
  EXPECT_FALSE(writeTrace(Rec, "/nonexistent-dir/trace.json"));
}

//===----------------------------------------------------------------------===//
// Schema golden test on a real .kiss run
//===----------------------------------------------------------------------===//

/// Compiles and checks the fixed two-thread increment program with
/// telemetry, sampling, and profiling on, returning the ZeroTimings
/// rendering — so the golden covers the full v5 surface (index stats,
/// series, profile, engine identity).
std::string checkedReport() {
  RunRecorder Rec;
  Rec.setMeta("input", "golden.kiss");

  auto Ctx = std::make_unique<lower::CompilerContext>();
  Ctx->Recorder = &Rec;
  auto P = lower::compileToCore(*Ctx, "golden.kiss",
                                "int g = 0;\n"
                                "void w() { g = g + 1; }\n"
                                "void main() {\n"
                                "  async w();\n"
                                "  g = g + 1;\n"
                                "  assert(g > 0);\n"
                                "}\n");
  EXPECT_TRUE(P != nullptr) << Ctx->renderDiagnostics();
  if (!P)
    return "";

  CheckConfig Opts;
  Opts.MaxTs = 1;
  Opts.Common.Recorder = &Rec;
  Opts.SampleEvery = 128;
  Opts.Profile = true;
  KissReport R = core::check(*P, Opts, Ctx->Diags, &Ctx->SM);
  EXPECT_EQ(R.Verdict, KissVerdict::NoErrorFound);

  Rec.addCheck(makeCheckRecord(R, "golden.kiss", 0));

  ReportOptions ZeroTimings;
  ZeroTimings.ZeroTimings = true;
  return renderReport(Rec, ZeroTimings);
}

/// The expected ZeroTimings rendering of checkedReport(). Every non-timing
/// field is deterministic, so this can be byte-exact; when a deliberate
/// schema or engine change shifts it, rerun the test and paste the new
/// actual value.
const char *const GOLDEN_REPORT =
    "{\n"
    "  \"schema_version\": 5,\n"
    "  \"kind\": \"kiss-telemetry-report\",\n"
    "  \"interrupted\": false,\n"
    "  \"meta\": {\"input\": \"golden.kiss\"},\n"
    "  \"counters\": {},\n"
    "  \"phases\": [\n"
    "    {\"name\": \"parse\", \"wall_ms\": 0.000, \"counters\": {}},\n"
    "    {\"name\": \"sema\", \"wall_ms\": 0.000, \"counters\": {}},\n"
    "    {\"name\": \"lower\", \"wall_ms\": 0.000, \"counters\": {}},\n"
    "    {\"name\": \"transform\", \"wall_ms\": 0.000, \"counters\": "
    "{\"probes_emitted\": 0, \"probes_pruned\": 0, "
    "\"statements_instrumented\": 5}},\n"
    "    {\"name\": \"cfg\", \"wall_ms\": 0.000, \"counters\": "
    "{\"cfg_nodes\": 67}},\n"
    "    {\"name\": \"check\", \"wall_ms\": 0.000, \"counters\": "
    "{\"dedup_hits\": 15, \"depth_max\": 63, \"frontier_peak\": 18, "
    "\"states\": 344, \"transitions\": 358}}\n"
    "  ],\n"
    "  \"checks\": [\n"
    "    {\"name\": \"golden.kiss\", \"outcome\": \"no error found\", "
    "\"wall_ms\": 0.000, \"states\": 344, \"transitions\": 358, "
    "\"dedup_hits\": 15, \"hash_probes\": 34, \"key_verifies\": 15, "
    "\"hash_collisions\": 0, \"arena_bytes\": 38999, "
    "\"index_bytes\": 73792, \"frontier_peak\": 18, \"depth_max\": 63, "
    "\"path_edges\": 0, \"summary_edges\": 0, "
    "\"exec_engine\": \"threaded\", \"engine\": \"seq\", "
    "\"states_per_sec\": 0, "
    "\"series\": ["
    "{\"states\": 128, \"transitions\": 127, \"dedup_hits\": 0, "
    "\"frontier\": 11, \"arena_bytes\": 14804, \"index_bytes\": 68608, "
    "\"depth_max\": 37, \"wall_ms\": 0.000}, "
    "{\"states\": 256, \"transitions\": 259, \"dedup_hits\": 4, "
    "\"frontier\": 14, \"arena_bytes\": 29476, \"index_bytes\": 71680, "
    "\"depth_max\": 47, \"wall_ms\": 0.000}], "
    "\"profile\": ["
    "{\"file\": \"<synthetic>\", \"line\": 0, \"states\": 324, "
    "\"transitions\": 344, \"dedup_hits\": 15}, "
    "{\"file\": \"golden.kiss\", \"line\": 6, \"states\": 6, "
    "\"transitions\": 6, \"dedup_hits\": 0}, "
    "{\"file\": \"golden.kiss\", \"line\": 2, \"states\": 5, "
    "\"transitions\": 5, \"dedup_hits\": 0}, "
    "{\"file\": \"golden.kiss\", \"line\": 5, \"states\": 3, "
    "\"transitions\": 3, \"dedup_hits\": 0}], "
    "\"bound_reason\": \"none\"}\n"
    "  ]\n"
    "}\n";

TEST(TelemetryGoldenTest, SmallRunMatchesTheSchemaGolden) {
  std::string Report = checkedReport();
  ASSERT_FALSE(Report.empty());

  // The span structure is part of the schema contract: the full pipeline
  // reports at least parse, sema, lower, transform, cfg and check.
  for (const char *Phase :
       {"\"name\": \"parse\"", "\"name\": \"sema\"", "\"name\": \"lower\"",
        "\"name\": \"transform\"", "\"name\": \"cfg\"",
        "\"name\": \"check\""})
    EXPECT_NE(Report.find(Phase), std::string::npos) << Phase << "\n"
                                                     << Report;

  // Byte-exact golden: every non-timing field is deterministic, so any
  // diff here is a real schema or behavior change. Update deliberately.
  EXPECT_EQ(Report, GOLDEN_REPORT);
}

TEST(TelemetryGoldenTest, ReportIsByteIdenticalAcrossRuns) {
  EXPECT_EQ(checkedReport(), checkedReport());
}

} // namespace
