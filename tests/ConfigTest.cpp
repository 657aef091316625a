//===- ConfigTest.cpp - The serialized CheckConfig schema ----------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
//
// Golden pins for the config::toJson/fromJson surface shared by
// `kisscheck --config`, the kissd request API, and the result-cache key
// (docs/api.md "Stability expectations"). The default-config golden is
// the schema's v2 contract: any key added, renamed, or reordered shows up
// here as a byte diff and must come with a config_version decision.
//
//===----------------------------------------------------------------------===//

#include "kiss/Config.h"

#include "support/Cli.h"
#include "support/Json.h"

#include "gtest/gtest.h"

using namespace kiss;

namespace {

CheckConfig parsedOk(std::string_view Text) {
  CheckConfig Cfg;
  std::string Error;
  EXPECT_TRUE(config::parseJson(Text, "cfg.json", Cfg, Error)) << Error;
  return Cfg;
}

std::string parseErr(std::string_view Text) {
  CheckConfig Cfg;
  std::string Error;
  EXPECT_FALSE(config::parseJson(Text, "cfg.json", Cfg, Error));
  return Error;
}

// The v2 schema, byte for byte. This is the wire/cache/file contract —
// do not update casually (see the file header).
const char *DefaultGolden = R"({
  "config_version": 2,
  "max_ts": 0,
  "max_switches": 2,
  "max_states": 1000000,
  "timeout_sec": 0,
  "memory_budget_mb": 0,
  "jobs": 1,
  "use_alias": true,
  "engine": "seq",
  "exec": "threaded",
  "store": "flat",
  "sample_every": 0,
  "profile": false
})";

TEST(Config, DefaultsRenderToGolden) {
  EXPECT_EQ(config::toJson(CheckConfig()), DefaultGolden);
}

TEST(Config, DefaultsRoundTripByteExact) {
  CheckConfig Cfg = parsedOk(DefaultGolden);
  EXPECT_EQ(config::toJson(Cfg), DefaultGolden);
}

TEST(Config, NonDefaultRoundTripByteExact) {
  CheckConfig Cfg;
  Cfg.MaxTs = 3;
  Cfg.MaxSwitches = 4;
  Cfg.MaxStates = 12345;
  Cfg.UseAliasAnalysis = false;
  Cfg.Engine = rt::Engine::Auto;
  Cfg.Exec = rt::ExecEngine::Interp;
  Cfg.Store = rt::StoreMode::Delta;
  Cfg.SampleEvery = 512;
  Cfg.Profile = true;
  Cfg.Common.Jobs = 0;
  Cfg.Common.Budget.DeadlineSec = 2.5;
  Cfg.Common.Budget.MemoryBytes = 64ull * 1024 * 1024;
  std::string Json = config::toJson(Cfg);
  CheckConfig Back = parsedOk(Json);
  EXPECT_EQ(config::toJson(Back), Json);
  EXPECT_EQ(Back.Engine, rt::Engine::Auto);
  EXPECT_EQ(Back.Common.Budget.DeadlineSec, 2.5);
  EXPECT_EQ(Back.Common.Budget.MemoryBytes, 64ull * 1024 * 1024);
}

TEST(Config, PartialConfigLeavesOtherFieldsAlone) {
  CheckConfig Cfg;
  Cfg.MaxTs = 7;
  std::string Error;
  ASSERT_TRUE(config::parseJson("{\"max_states\": 99}", "cfg.json", Cfg,
                                Error))
      << Error;
  EXPECT_EQ(Cfg.MaxStates, 99u);
  EXPECT_EQ(Cfg.MaxTs, 7u); // untouched
}

TEST(Config, UnknownKeyRejectedWithPosition) {
  EXPECT_EQ(parseErr("{\n  \"max_swiches\": 2\n}"),
            "cfg.json:2:3: unknown config key 'max_swiches'");
}

TEST(Config, TypeMismatchRejectedWithPosition) {
  EXPECT_EQ(parseErr("{\"max_ts\": \"two\"}"),
            "cfg.json:1:12: config key 'max_ts' needs an unsigned integer");
  EXPECT_EQ(parseErr("{\"engine\": \"qbf\"}"),
            "cfg.json:1:12: config key 'engine' needs seq, bebop, or auto");
  EXPECT_EQ(parseErr("{\"use_alias\": 1}"),
            "cfg.json:1:15: config key 'use_alias' needs true or false");
  EXPECT_EQ(parseErr("{\"max_switches\": 0}"),
            "cfg.json:1:18: config key 'max_switches' needs a positive "
            "integer");
  EXPECT_EQ(parseErr("{\"max_ts\": [1]}"),
            "cfg.json:1:12: config key 'max_ts' needs a scalar value");
}

TEST(Config, NonFiniteTimeoutRejected) {
  // NaN and infinity, spelled out or overflowing, are not a number of
  // seconds: accepting them would silently mean "no deadline".
  const char *Want = "needs a non-negative number of seconds";
  for (const char *V : {"nan", "inf", "-inf", "1e400"}) {
    CheckConfig Cfg;
    std::string Error;
    EXPECT_FALSE(config::setField(Cfg, "timeout_sec", V, Error)) << V;
    EXPECT_NE(Error.find(Want), std::string::npos) << V << ": " << Error;
    EXPECT_EQ(Cfg.Common.Budget.DeadlineSec, 0) << V;
  }
  EXPECT_NE(parseErr("{\"timeout_sec\": 1e400}").find(Want),
            std::string::npos);
  EXPECT_NE(parseErr("{\"timeout_sec\": \"nan\"}").find(Want),
            std::string::npos);
  EXPECT_EQ(parsedOk("{\"timeout_sec\": 1e10}").Common.Budget.DeadlineSec,
            1e10);
}

TEST(Config, MemoryBudgetThatWrapsRejected) {
  // 2^44 + 1 MiB times 2^20 wraps to 1 MiB; the largest budget whose byte
  // count fits 64 bits still parses.
  const std::string Max = std::to_string(UINT64_MAX >> 20);
  const std::string Over = "17592186044417";
  EXPECT_NE(parseErr("{\"memory_budget_mb\": " + Over + "}")
                .find("config key 'memory_budget_mb' needs at most " + Max),
            std::string::npos);
  EXPECT_EQ(parsedOk("{\"memory_budget_mb\": " + Max + "}")
                .Common.Budget.MemoryBytes,
            (UINT64_MAX >> 20) << 20);

  CheckConfig Cfg;
  cli::ArgParser P("usage: test");
  config::addFlags(P, Cfg);
  std::string Flag = "--memory-budget=" + Over;
  char Arg0[] = "test";
  char *Argv[] = {Arg0, Flag.data()};
  EXPECT_FALSE(P.parse(2, Argv));
  EXPECT_EQ(Cfg.Common.Budget.MemoryBytes, 0u);
}

TEST(Config, VersionChecked) {
  // Version 2 accepted (it is the golden's first key); anything else is a
  // hard error so a file of another schema can't half-apply. Version 1
  // has no compatibility path.
  EXPECT_NE(parseErr("{\"config_version\": 1}").find("unsupported"),
            std::string::npos);
  EXPECT_NE(parseErr("{\"config_version\": 3}").find("unsupported"),
            std::string::npos);
  EXPECT_NE(parseErr("{\"config_version\": \"2\"}").find("unsupported"),
            std::string::npos);
}

TEST(Config, NonObjectRejected) {
  EXPECT_EQ(parseErr("[1, 2]"), "cfg.json:1:1: config must be a JSON object");
}

TEST(Config, SetFieldByName) {
  CheckConfig Cfg;
  std::string Error;
  EXPECT_TRUE(config::setField(Cfg, "engine", "bebop", Error)) << Error;
  EXPECT_EQ(Cfg.Engine, rt::Engine::Bebop);
  EXPECT_FALSE(config::setField(Cfg, "engine", "conc", Error));
  EXPECT_FALSE(config::setField(Cfg, "no_such_field", "1", Error));
  EXPECT_NE(Error.find("unknown config field"), std::string::npos);
}

TEST(Config, CacheKeySeparatesOutcomeRelevantKnobs) {
  CheckConfig A;
  std::string Base = config::cacheKey("src", "g", A);
  // Same request, same key.
  EXPECT_EQ(config::cacheKey("src", "g", A), Base);
  // Program, field, and every outcome-relevant knob split the key.
  EXPECT_NE(config::cacheKey("src2", "g", A), Base);
  EXPECT_NE(config::cacheKey("src", "h", A), Base);
  CheckConfig B = A;
  B.MaxTs = 1;
  EXPECT_NE(config::cacheKey("src", "g", B), Base);
  B = A;
  B.Exec = rt::ExecEngine::Interp;
  EXPECT_NE(config::cacheKey("src", "g", B), Base);
  B = A;
  B.Profile = true; // changes the embedded record, so it must split too
  EXPECT_NE(config::cacheKey("src", "g", B), Base);
  // Budget and jobs knobs are cache-irrelevant: trips are never cached,
  // so requests differing only there share one cached result.
  B = A;
  B.Common.Budget.DeadlineSec = 30;
  B.Common.Budget.MemoryBytes = 1 << 30;
  B.Common.Jobs = 8;
  EXPECT_EQ(config::cacheKey("src", "g", B), Base);
}

TEST(Config, FieldTableIsTheSchema) {
  // Every table key appears in the golden exactly once, in order — the
  // generate-from-one-table contract of docs/api.md.
  size_t Count = 0;
  const config::FieldSpec *Fields = config::fields(Count);
  ASSERT_GT(Count, 0u);
  size_t Pos = 0;
  std::string Golden = DefaultGolden;
  for (size_t I = 0; I != Count; ++I) {
    std::string Needle = "\"" + std::string(Fields[I].Key) + "\":";
    size_t At = Golden.find(Needle);
    ASSERT_NE(At, std::string::npos) << Fields[I].Key;
    EXPECT_GT(At, Pos) << Fields[I].Key << " out of order";
    Pos = At;
  }
}

} // namespace
