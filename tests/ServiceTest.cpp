//===- ServiceTest.cpp - kissd service integration tests ------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process integration tests of the checking service: the wire schema
/// (parse/render round trips, versioning, strict unknown-key rejection),
/// the persistent result cache (snapshot round trip, truncation
/// tolerance), and CheckService itself — dispatch, the caching policy,
/// injected budget trips, shutdown cancellation, and the determinism
/// contract that a warm pooled session answers with bytes identical to a
/// fresh standalone one.
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unistd.h>

using namespace kiss;
using namespace kiss::service;

namespace {

/// A safe program: every interleaving satisfies the assertion.
const char *SafeSource = "int g = 0;\n"
                         "void w() { g = 1; }\n"
                         "void main() { async w(); assert(true); }\n";

/// A buggy program: the async write can land before the assert.
const char *BuggySource = "int g = 0;\n"
                          "void w() { g = 1; }\n"
                          "void main() { async w(); assert(g == 0); }\n";

/// A racy program: main and the async thread both write g unguarded.
const char *RacySource = "int g = 0;\n"
                         "void w() { g = 1; }\n"
                         "void main() { async w(); g = 2; }\n";

Request makeCheck(const std::string &Source, const std::string &Name) {
  Request R;
  R.Name = Name;
  R.Source = Source;
  R.Cfg.MaxTs = 1;
  return R;
}

/// Distinct safe programs for batch tests: an index-dependent constant
/// makes every source (and thus cache key) unique.
Request makeIndexed(unsigned I) {
  std::string Src = "int g = 0;\n"
                    "void w() { g = " +
                    std::to_string(I + 1) +
                    "; }\n"
                    "void main() { async w(); assert(true); }\n";
  return makeCheck(Src, "prog" + std::to_string(I) + ".kiss");
}

/// Parses a result core and returns the named member, failing the test on
/// malformed JSON.
std::string coreMember(const std::string &Core, const char *Key) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Core, "core", V, Error)) << Error;
  const json::Value *M = V.find(Key);
  EXPECT_NE(M, nullptr) << Key << " missing in " << Core;
  return M && M->isString() ? M->asString() : "";
}

std::string tempPath(const char *Name) {
  return testing::TempDir() + "/" + Name;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, RequestRoundTrip) {
  Request R = makeCheck(BuggySource, "roundtrip.kiss");
  R.Field = "g";
  R.Cfg.MaxSwitches = 4;
  R.Cfg.MaxStates = 12345;
  R.NoCache = true;
  R.InjectTripTick = 7;
  R.InjectTripReason = gov::BoundReason::Memory;

  Request Parsed;
  std::string Error;
  ASSERT_TRUE(parseRequest(renderRequest(R), "request", Parsed, Error))
      << Error;
  EXPECT_EQ(Parsed.A, Action::Check);
  EXPECT_EQ(Parsed.Name, R.Name);
  EXPECT_EQ(Parsed.Source, R.Source);
  EXPECT_EQ(Parsed.Field, "g");
  EXPECT_EQ(Parsed.Cfg.MaxTs, 1u);
  EXPECT_EQ(Parsed.Cfg.MaxSwitches, 4u);
  EXPECT_EQ(Parsed.Cfg.MaxStates, 12345u);
  EXPECT_TRUE(Parsed.NoCache);
  EXPECT_EQ(Parsed.InjectTripTick, 7u);
  EXPECT_EQ(Parsed.InjectTripReason, gov::BoundReason::Memory);
  // A round-tripped request maps to the same cache entry.
  EXPECT_EQ(requestCacheKey(Parsed), requestCacheKey(R));
}

TEST(ServiceProtocol, MissingApiVersionIsRejected) {
  Request R;
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"action\": \"ping\"}", "request", R, Error));
  EXPECT_NE(Error.find("api_version"), std::string::npos) << Error;
}

TEST(ServiceProtocol, WrongApiVersionIsRejected) {
  Request R;
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"api_version\": 2, \"action\": \"ping\"}",
                            "request", R, Error));
  EXPECT_NE(Error.find("api_version"), std::string::npos) << Error;
}

TEST(ServiceProtocol, UnknownKeyIsRejectedWithPosition) {
  Request R;
  std::string Error;
  EXPECT_FALSE(parseRequest(
      "{\"api_version\": 1,\n \"sorce\": \"x\"}", "request", R, Error));
  // The diagnostic carries the <name>:<line>:<col>: prefix of config files.
  EXPECT_NE(Error.find("request:2:"), std::string::npos) << Error;
  EXPECT_NE(Error.find("sorce"), std::string::npos) << Error;
}

TEST(ServiceProtocol, NonCheckActionsRoundTrip) {
  for (Action A : {Action::Ping, Action::Stats, Action::Shutdown}) {
    Request R;
    R.A = A;
    Request Parsed;
    std::string Error;
    ASSERT_TRUE(parseRequest(renderRequest(R), "request", Parsed, Error))
        << Error;
    EXPECT_EQ(Parsed.A, A);
  }
}

TEST(ServiceProtocol, EnvelopeEmbedsCoreVerbatim) {
  std::string Env = renderCheckEnvelope(CacheDisposition::Hit, 3,
                                        "{\"code\": 0}");
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Env, "envelope", V, Error)) << Error;
  ASSERT_NE(V.find("cache"), nullptr);
  EXPECT_EQ(V.find("cache")->asString(), "hit");
  ASSERT_NE(V.find("result"), nullptr);
  EXPECT_TRUE(V.find("result")->isObject());
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

TEST(ResultCache, SnapshotRoundTrip) {
  std::string Path = tempPath("cache_roundtrip.bin");
  {
    ResultCache C;
    C.insert("key-a", "core-a");
    C.insert("key-b", "core-b");
    std::string Error;
    ASSERT_TRUE(C.save(Path, Error)) << Error;
  }
  ResultCache C;
  std::string Error;
  ASSERT_TRUE(C.load(Path, Error)) << Error;
  EXPECT_EQ(C.size(), 2u);
  std::string V;
  ASSERT_TRUE(C.lookup("key-a", V));
  EXPECT_EQ(V, "core-a");
  std::remove(Path.c_str());
}

TEST(ResultCache, MissingSnapshotIsAFreshStart) {
  ResultCache C;
  std::string Error;
  EXPECT_TRUE(C.load(tempPath("no_such_snapshot.bin"), Error)) << Error;
  EXPECT_EQ(C.size(), 0u);
}

TEST(ResultCache, TruncatedSnapshotKeepsCompletePrefix) {
  std::string Path = tempPath("cache_truncated.bin");
  {
    ResultCache C;
    C.insert("key-a", "core-a");
    C.insert("key-b", "core-b");
    std::string Error;
    ASSERT_TRUE(C.save(Path, Error)) << Error;
  }
  // Chop the tail off, as if the daemon died mid-save.
  FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fclose(F);
  ASSERT_EQ(truncate(Path.c_str(), Size - 5), 0);

  ResultCache C;
  std::string Error;
  ASSERT_TRUE(C.load(Path, Error)) << Error;
  EXPECT_EQ(C.size(), 1u); // One complete record survives.
  std::remove(Path.c_str());
}

TEST(ResultCache, BadMagicIsAnError) {
  std::string Path = tempPath("cache_badmagic.bin");
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("not a kissd cache", F);
  std::fclose(F);
  ResultCache C;
  std::string Error;
  EXPECT_FALSE(C.load(Path, Error));
  EXPECT_FALSE(Error.empty());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// CheckService
//===----------------------------------------------------------------------===//

TEST(CheckService, SingleRequestVerdicts) {
  CheckService Svc({/*Workers=*/1, /*CachePath=*/""});
  Reply Safe = Svc.check(makeCheck(SafeSource, "safe.kiss"));
  EXPECT_EQ(Safe.Code, 0);
  EXPECT_EQ(Safe.Cache, CacheDisposition::Miss);
  EXPECT_EQ(coreMember(Safe.Core, "verdict"), "no error found");

  Reply Buggy = Svc.check(makeCheck(BuggySource, "buggy.kiss"));
  EXPECT_EQ(Buggy.Code, 1);
  EXPECT_EQ(coreMember(Buggy.Core, "verdict"), "assertion violation");
  EXPECT_FALSE(coreMember(Buggy.Core, "trace").empty());

  Request Race = makeCheck(RacySource, "racy.kiss");
  Race.Field = "g";
  Reply R = Svc.check(Race);
  EXPECT_EQ(R.Code, 1);
  EXPECT_EQ(coreMember(R.Core, "verdict"), "race detected");
}

TEST(CheckService, CompileFailureRejectsAndCaches) {
  CheckService Svc({1, ""});
  Request Bad = makeCheck("void main() { this is not kiss }\n", "bad.kiss");
  Reply First = Svc.check(Bad);
  EXPECT_EQ(First.Code, 2);
  EXPECT_EQ(First.Cache, CacheDisposition::Miss);
  EXPECT_EQ(coreMember(First.Core, "verdict"), "rejected");
  EXPECT_FALSE(coreMember(First.Core, "diagnostics").empty());
  // Rejections are deterministic, so the repeat replays from the cache —
  // and the worker behind it survived the bad program.
  Reply Second = Svc.check(Bad);
  EXPECT_EQ(Second.Cache, CacheDisposition::Hit);
  EXPECT_EQ(Second.Core, First.Core);
  EXPECT_EQ(Svc.check(makeCheck(SafeSource, "after.kiss")).Code, 0);
}

TEST(CheckService, BatchWithRepeatsHitsDeterministically) {
  CheckService Svc({2, ""});
  constexpr unsigned Distinct = 25, Rounds = 4; // 100 requests.
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    for (unsigned I = 0; I != Distinct; ++I) {
      Reply R = Svc.check(makeIndexed(I));
      EXPECT_EQ(R.Code, 0);
      EXPECT_EQ(R.Cache, Round == 0 ? CacheDisposition::Miss
                                    : CacheDisposition::Hit);
    }
  }
  EXPECT_EQ(Svc.cache().misses(), Distinct);
  EXPECT_EQ(Svc.cache().hits(), (Rounds - 1) * Distinct);
  EXPECT_EQ(Svc.cache().size(), Distinct);
}

TEST(CheckService, HitCountersInvariantAcrossWorkerCounts) {
  // The cache sits in front of the pool, so the hit/miss ledger of a
  // fixed request sequence cannot depend on how many workers serve it.
  for (unsigned Workers : {1u, 4u}) {
    CheckService Svc({Workers, ""});
    for (unsigned Round = 0; Round != 3; ++Round)
      for (unsigned I = 0; I != 10; ++I)
        EXPECT_EQ(Svc.check(makeIndexed(I)).Code, 0);
    EXPECT_EQ(Svc.cache().misses(), 10u) << Workers << " workers";
    EXPECT_EQ(Svc.cache().hits(), 20u) << Workers << " workers";
  }
}

TEST(CheckService, InjectedTripDegradesWithoutCaching) {
  CheckService Svc({1, ""});
  Request R = makeCheck(SafeSource, "tripped.kiss");
  R.InjectTripTick = 5;
  R.InjectTripReason = gov::BoundReason::Memory;
  Reply Tripped = Svc.check(R);
  EXPECT_EQ(Tripped.Code, 3);
  EXPECT_EQ(Tripped.Cache, CacheDisposition::Bypass);
  EXPECT_EQ(coreMember(Tripped.Core, "bound_reason"), "memory");
  // The sabotaged run must not shadow the real result: the same program
  // without the trip still computes (a miss, not a poisoned hit) and the
  // worker that served the trip is still alive.
  R.InjectTripTick = 0;
  Reply Clean = Svc.check(R);
  EXPECT_EQ(Clean.Code, 0);
  EXPECT_EQ(Clean.Cache, CacheDisposition::Miss);
}

TEST(CheckService, StateBoundIsDeterministicAndCached) {
  CheckService Svc({1, ""});
  Request R = makeCheck(SafeSource, "bounded.kiss");
  R.Cfg.MaxStates = 1;
  Reply First = Svc.check(R);
  EXPECT_EQ(First.Code, 3);
  EXPECT_EQ(coreMember(First.Core, "bound_reason"), "states");
  // The structural state budget is machine-independent, so it caches.
  Reply Second = Svc.check(R);
  EXPECT_EQ(Second.Cache, CacheDisposition::Hit);
  EXPECT_EQ(Second.Core, First.Core);
}

TEST(CheckService, ShutdownTokenTripsInFlightAsCancelled) {
  // The program must outlast the governor's check stride (4096 ticks) for
  // the token to be observed mid-exploration; the 5-thread family
  // explores far beyond that.
  std::string Big = "int g = 0;\nvoid w() {\n";
  for (unsigned S = 0; S != 4; ++S)
    Big += "  g = " + std::to_string(S + 1) + ";\n";
  Big += "}\nvoid main() {\n";
  for (unsigned T = 0; T != 5; ++T)
    Big += "  async w();\n";
  Big += "  assert(true);\n}\n";

  CheckService Svc({1, ""});
  Svc.cancelToken().requestCancel();
  Reply R = Svc.check(makeCheck(Big, "drained.kiss"));
  EXPECT_EQ(R.Code, 3);
  EXPECT_EQ(coreMember(R.Core, "bound_reason"), "cancelled");
  // Machine-of-the-moment outcomes never cache: the repeat recomputes.
  EXPECT_EQ(Svc.check(makeCheck(Big, "drained.kiss")).Cache,
            CacheDisposition::Miss);
}

TEST(CheckService, WarmSessionMatchesFreshSessionByteForByte) {
  // The determinism contract: after serving unrelated programs (so the
  // pooled session is warm and reused), a request's core must equal what
  // a fresh standalone Session computes for it.
  CheckService Svc({1, ""});
  for (unsigned I = 0; I != 5; ++I)
    EXPECT_EQ(Svc.check(makeIndexed(I)).Code, 0);

  for (const char *Source : {SafeSource, BuggySource}) {
    Request R = makeCheck(Source, "identity.kiss");
    Reply Warm = Svc.check(R);

    Session Fresh(R.Cfg);
    std::string DirectCore;
    bool Cacheable = false;
    int DirectCode = runRequest(Fresh, R, DirectCore, Cacheable);
    EXPECT_EQ(Warm.Code, DirectCode);
    EXPECT_EQ(Warm.Core, DirectCore);
  }
}

TEST(CheckService, SnapshotSurvivesRestart) {
  std::string Path = tempPath("service_snapshot.bin");
  std::remove(Path.c_str());
  std::string FirstCore;
  {
    CheckService Svc({1, Path});
    ASSERT_TRUE(Svc.cacheLoadError().empty()) << Svc.cacheLoadError();
    Reply R = Svc.check(makeCheck(BuggySource, "persist.kiss"));
    EXPECT_EQ(R.Cache, CacheDisposition::Miss);
    FirstCore = R.Core;
    std::string Error;
    ASSERT_TRUE(Svc.saveCache(Error)) << Error;
  }
  {
    CheckService Svc({1, Path});
    ASSERT_TRUE(Svc.cacheLoadError().empty()) << Svc.cacheLoadError();
    Reply R = Svc.check(makeCheck(BuggySource, "persist.kiss"));
    EXPECT_EQ(R.Cache, CacheDisposition::Hit);
    EXPECT_EQ(R.Core, FirstCore);
  }
  std::remove(Path.c_str());
}

TEST(CheckService, NoCacheRequestsAlwaysRecompute) {
  CheckService Svc({1, ""});
  Request R = makeCheck(SafeSource, "nocache.kiss");
  R.NoCache = true;
  EXPECT_EQ(Svc.check(R).Cache, CacheDisposition::Bypass);
  EXPECT_EQ(Svc.check(R).Cache, CacheDisposition::Bypass);
  EXPECT_EQ(Svc.cache().size(), 0u);
  // And the bypasses show in the stats counters.
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Svc.statsJson(), "stats", V, Error)) << Error;
  uint64_t Bypasses = 0;
  ASSERT_NE(V.find("cache_bypasses"), nullptr);
  ASSERT_TRUE(V.find("cache_bypasses")->asU64(Bypasses));
  EXPECT_EQ(Bypasses, 2u);
}

//===----------------------------------------------------------------------===//
// Cached-core goldens
//===----------------------------------------------------------------------===//

/// One request whose core is pinned by tests/golden/service_cores.txt.
struct CoreCase {
  const char *Name;  ///< The golden block.
  const char *File;  ///< An examples/programs input.
  const char *Field; ///< Race target ("" = assertion mode).
  void (*Tweak)(CheckConfig &);
};

const CoreCase CoreCases[] = {
    {"assert", "bank.kiss", "", [](CheckConfig &C) { C.MaxTs = 1; }},
    {"assert_interp_sampled", "bank.kiss", "",
     [](CheckConfig &C) {
       C.MaxTs = 1;
       C.Exec = rt::ExecEngine::Interp;
       C.SampleEvery = 64;
       C.Profile = true;
     }},
    {"race_field", "bank.kiss", "ACCOUNT.balance", [](CheckConfig &) {}},
    {"bebop", "handshake.kiss", "",
     [](CheckConfig &C) { C.Engine = rt::Engine::Bebop; }},
    {"auto_fallback", "bank_fixed.kiss", "",
     [](CheckConfig &C) {
       C.MaxTs = 1;
       C.Engine = rt::Engine::Auto;
     }},
    {"max_states", "bank_fixed.kiss", "",
     [](CheckConfig &C) {
       C.MaxTs = 1;
       C.MaxStates = 100;
     }},
};

/// The bytes a kissd cache stores for a check are the core runRequest
/// renders; a snapshot written by one build must replay under the next,
/// so the cores are pinned absolutely. On a mismatch every case's core is
/// written to service_cores.actual.txt in the working directory, which is
/// what the golden file is re-recorded from.
TEST(CheckService, CachedCoresMatchGolden) {
  std::map<std::string, std::string> Golden;
  std::istringstream In(readFile(KISS_SERVICE_GOLDEN));
  std::string Line, Block;
  while (std::getline(In, Line)) {
    if (Line.rfind("== ", 0) == 0)
      Block = Line.substr(3);
    else
      Golden[Block] += Line + "\n";
  }

  std::string Actual;
  for (const CoreCase &C : CoreCases) {
    SCOPED_TRACE(C.Name);
    Request R = makeCheck(
        readFile(std::string(KISS_SAMPLES_DIR) + "/" + C.File), C.File);
    R.Cfg.MaxTs = 0;
    R.Field = C.Field;
    C.Tweak(R.Cfg);
    Session S(R.Cfg);
    std::string Core;
    bool Cacheable = false;
    runRequest(S, R, Core, Cacheable);
    std::string Got = Core + "\n";
    EXPECT_EQ(Got, Golden[C.Name]);
    Actual += std::string("== ") + C.Name + "\n" + Got;
  }
  if (::testing::Test::HasFailure())
    std::ofstream("service_cores.actual.txt") << Actual;
}

} // namespace
