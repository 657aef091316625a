//===- ServiceTest.cpp - kissd service integration tests ------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process integration tests of the checking service: the wire schema
/// (parse/render round trips, versioning, strict unknown-key rejection),
/// the framing I/O over socket pairs (one write per frame, reassembly,
/// partial-write resume, EOF and oversize statuses),
/// the persistent result cache (each source stored once, keys split at
/// the source marker, snapshot round trip, truncation tolerance),
/// CheckService itself — the caching policy, injected budget trips,
/// shutdown cancellation, concurrent callers, and the determinism
/// contract that a long-lived service answers with bytes identical to a
/// fresh standalone Session — and the server's joining of finished
/// connection threads.
///
//===----------------------------------------------------------------------===//

#include "kiss/Config.h"
#include "service/Client.h"
#include "service/Server.h"
#include "service/Service.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

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

/// One counter of CheckService::statsJson, failing the test if absent.
uint64_t statU64(const CheckService &Svc, const char *Key) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Svc.statsJson(), "stats", V, Error)) << Error;
  uint64_t N = 0;
  const json::Value *M = V.find(Key);
  EXPECT_TRUE(M && M->asU64(N)) << Key << " missing in " << Svc.statsJson();
  return N;
}

/// The key kissd builds for \p Source checked under \p Name.
std::string keyFor(const std::string &Source, const std::string &Name) {
  return requestCacheKey(makeCheck(Source, Name));
}

/// A snapshot record in the on-disk format: [u32 key length][u32 value
/// length][key][value], little-endian.
std::string snapshotRecord(const std::string &Key, const std::string &Value) {
  std::string Out;
  for (uint32_t Len : {static_cast<uint32_t>(Key.size()),
                       static_cast<uint32_t>(Value.size())})
    for (unsigned Shift = 0; Shift != 32; Shift += 8)
      Out.push_back(static_cast<char>(Len >> Shift));
  return Out + Key + Value;
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
// Framing
//===----------------------------------------------------------------------===//

/// A connected pair of local stream sockets, closed on scope exit.
struct SocketPair {
  int Fd[2] = {-1, -1};
  explicit SocketPair(int Type = SOCK_STREAM) {
    EXPECT_EQ(::socketpair(AF_UNIX, Type, 0, Fd), 0) << std::strerror(errno);
  }
  ~SocketPair() {
    for (int F : Fd)
      if (F >= 0)
        ::close(F);
  }
  void closeWriter() {
    ::close(Fd[0]);
    Fd[0] = -1;
  }
};

/// The wire bytes of one frame: little-endian length prefix, payload.
std::string frameBytes(uint32_t Len, std::string_view Payload) {
  std::string Out;
  for (unsigned Shift = 0; Shift != 32; Shift += 8)
    Out.push_back(static_cast<char>(Len >> Shift));
  Out += Payload;
  return Out;
}

TEST(ServiceProtocol, FrameIsOneWrite) {
  // A seqpacket socket keeps write boundaries: one recv returns what one
  // write sent, so a prefix written on its own would arrive alone.
  SocketPair P(SOCK_SEQPACKET);
  const std::string Payload = "{\"api_version\": 1, \"action\": \"ping\"}";
  std::string Error;
  ASSERT_TRUE(writeFrame(P.Fd[0], Payload, Error)) << Error;
  char Buf[256];
  ssize_t K = ::recv(P.Fd[1], Buf, sizeof(Buf), MSG_DONTWAIT);
  ASSERT_EQ(K, static_cast<ssize_t>(4 + Payload.size()));
  EXPECT_EQ(std::string(Buf, static_cast<size_t>(K)),
            frameBytes(static_cast<uint32_t>(Payload.size()), Payload));
}

TEST(ServiceProtocol, FrameFedOneByteAtATimeIsReassembled) {
  SocketPair P;
  const std::string Payload = "{\"api_version\": 1}";
  const std::string Wire =
      frameBytes(static_cast<uint32_t>(Payload.size()), Payload);
  std::thread Feeder([&] {
    for (char C : Wire) {
      ASSERT_EQ(::write(P.Fd[0], &C, 1), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::string Got, Error;
  EXPECT_EQ(readFrame(P.Fd[1], Got, Error), IoStatus::Ok) << Error;
  Feeder.join();
  EXPECT_EQ(Got, Payload);
}

TEST(ServiceProtocol, LargeFrameResumesAfterPartialWrites) {
  // A non-blocking writer with a small send buffer gets short writes
  // from the first call on; the frame must still arrive intact.
  SocketPair P;
  int Small = 4096;
  ::setsockopt(P.Fd[0], SOL_SOCKET, SO_SNDBUF, &Small, sizeof(Small));
  ::fcntl(P.Fd[0], F_SETFL, ::fcntl(P.Fd[0], F_GETFL) | O_NONBLOCK);
  std::string Payload(1u << 20, '\0');
  for (size_t I = 0; I != Payload.size(); ++I)
    Payload[I] = static_cast<char>(I * 31 % 251);
  std::string Got, ReadError;
  IoStatus S = IoStatus::Error;
  std::thread Reader([&] { S = readFrame(P.Fd[1], Got, ReadError); });
  std::string Error;
  EXPECT_TRUE(writeFrame(P.Fd[0], Payload, Error)) << Error;
  Reader.join();
  EXPECT_EQ(S, IoStatus::Ok) << ReadError;
  EXPECT_TRUE(Got == Payload);
}

TEST(ServiceProtocol, FrameOverAPipeIsRead) {
  // Not a socket: the payload read falls back to polling.
  int Fd[2];
  ASSERT_EQ(::pipe(Fd), 0);
  std::string Error, Got;
  ASSERT_TRUE(writeFrame(Fd[1], "{}", Error)) << Error;
  EXPECT_EQ(readFrame(Fd[0], Got, Error), IoStatus::Ok) << Error;
  EXPECT_EQ(Got, "{}");
  ::close(Fd[0]);
  ::close(Fd[1]);
}

TEST(ServiceProtocol, EofBetweenFramesIsClean) {
  SocketPair P;
  std::string Error;
  ASSERT_TRUE(writeFrame(P.Fd[0], "", Error)) << Error;
  P.closeWriter();
  std::string Got = "stale";
  EXPECT_EQ(readFrame(P.Fd[1], Got, Error), IoStatus::Ok) << Error;
  EXPECT_EQ(Got, "");
  EXPECT_EQ(readFrame(P.Fd[1], Got, Error), IoStatus::Eof);
}

TEST(ServiceProtocol, EofInsideLengthPrefixIsAnError) {
  SocketPair P;
  ASSERT_EQ(::write(P.Fd[0], "\x05\x00", 2), 2);
  P.closeWriter();
  std::string Got, Error;
  EXPECT_EQ(readFrame(P.Fd[1], Got, Error), IoStatus::Error);
  EXPECT_EQ(Error, "connection closed inside a frame length prefix");
}

TEST(ServiceProtocol, EofInsidePayloadIsAnError) {
  SocketPair P;
  const std::string Wire = frameBytes(10, "abc");
  ASSERT_EQ(::write(P.Fd[0], Wire.data(), Wire.size()),
            static_cast<ssize_t>(Wire.size()));
  P.closeWriter();
  std::string Got, Error;
  EXPECT_EQ(readFrame(P.Fd[1], Got, Error), IoStatus::Error);
  EXPECT_EQ(Error, "connection closed inside a frame payload");
}

TEST(ServiceProtocol, OversizeLengthPrefixIsRejected) {
  SocketPair P;
  const std::string Wire = frameBytes(MaxFrameBytes + 1, "");
  ASSERT_EQ(::write(P.Fd[0], Wire.data(), Wire.size()), 4);
  std::string Got, Error;
  EXPECT_EQ(readFrame(P.Fd[1], Got, Error), IoStatus::Error);
  EXPECT_EQ(Error, "frame length 67108865 exceeds the 67108864-byte limit");
}

TEST(ServiceProtocol, CancelledReadReturnsCancelled) {
  SocketPair P;
  gov::CancellationToken Cancel;
  Cancel.requestCancel();
  std::string Got, Error;
  EXPECT_EQ(readFrame(P.Fd[1], Got, Error, &Cancel), IoStatus::Cancelled);
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

TEST(ResultCache, SharedSourceIsStoredOnce) {
  std::string Source = "int g = 0;\nvoid main() { assert(true); }\n";
  while (Source.size() < 2048)
    Source += "// padding the program to a realistic size\n";
  ResultCache C;
  uint64_t PerEntry = 0;
  for (unsigned I = 0; I != 100; ++I) {
    std::string Key = keyFor(Source, "prog" + std::to_string(I) + ".kiss");
    std::string Core = "core-" + std::to_string(I);
    PerEntry = std::max<uint64_t>(PerEntry,
                                  Key.size() - Source.size() + Core.size());
    C.insert(Key, Core);
  }
  EXPECT_EQ(C.size(), 100u);
  EXPECT_EQ(C.sources(), 1u);
  EXPECT_LE(C.bytes(), Source.size() + 100 * PerEntry);
  std::string V;
  ASSERT_TRUE(C.lookup(keyFor(Source, "prog42.kiss"), V));
  EXPECT_EQ(V, "core-42");
  EXPECT_FALSE(C.lookup(keyFor(Source, "prog100.kiss"), V));
}

TEST(ResultCache, KeyWithoutMarker) {
  ResultCache C;
  C.insert("plain-key", "core-plain");
  std::string V;
  ASSERT_TRUE(C.lookup("plain-key", V));
  EXPECT_EQ(V, "core-plain");
  EXPECT_FALSE(C.lookup("plain", V));
  EXPECT_FALSE(C.lookup("plain-key-2", V));
  EXPECT_EQ(C.size(), 1u);
  EXPECT_EQ(C.sources(), 1u);
  EXPECT_EQ(C.bytes(), std::string("plain-key").size() + 10);
}

TEST(ResultCache, NameContainingMarker) {
  std::string Marker(config::SourceMarker);
  std::string Plain = keyFor(SafeSource, "x");
  std::string Marked = keyFor(SafeSource, "x" + Marker);
  std::string Tail = keyFor(SafeSource, Marker + "x");
  ResultCache C;
  C.insert(Plain, "core-plain");
  C.insert(Marked, "core-marked");
  C.insert(Tail, "core-tail");
  EXPECT_EQ(C.size(), 3u);
  std::string V;
  ASSERT_TRUE(C.lookup(Plain, V));
  EXPECT_EQ(V, "core-plain");
  ASSERT_TRUE(C.lookup(Marked, V));
  EXPECT_EQ(V, "core-marked");
  ASSERT_TRUE(C.lookup(Tail, V));
  EXPECT_EQ(V, "core-tail");
}

TEST(ResultCache, MarkerPositionKeepsKeysDistinct) {
  std::string M(config::SourceMarker);
  const std::string Keys[] = {"x" + M + "yz", "xy" + M + "z",
                              "x" + M + "y" + M + "z", "xyz" + M,
                              M + "xyz",   "xy" + M + M + "z"};
  ResultCache C;
  for (size_t I = 0; I != std::size(Keys); ++I)
    C.insert(Keys[I], "core" + std::to_string(I));
  EXPECT_EQ(C.size(), std::size(Keys));
  for (size_t I = 0; I != std::size(Keys); ++I) {
    std::string V;
    ASSERT_TRUE(C.lookup(Keys[I], V)) << I;
    EXPECT_EQ(V, "core" + std::to_string(I));
  }
  std::string V;
  EXPECT_FALSE(C.lookup("xyz", V));
  EXPECT_FALSE(C.lookup("x" + M + "y", V));
}

TEST(ResultCache, HandBuiltSnapshotLoads) {
  // Whole-key records, as every earlier daemon wrote them: two names
  // sharing a source, a key without the marker, and one with two.
  std::string M(config::SourceMarker);
  const std::pair<std::string, std::string> Records[] = {
      {keyFor(SafeSource, "a.kiss"), "{\"code\": 0}"},
      {keyFor(SafeSource, "b.kiss"), "{\"code\": 0, \"b\": 1}"},
      {keyFor(BuggySource, "a.kiss"), "{\"code\": 1}"},
      {"no-marker", ""},
      {"h" + M + "s" + M + "t", std::string("\0\xff", 2)},
  };
  std::string Path = tempPath("cache_handbuilt.bin");
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "kissd-cache v1\n";
    for (const auto &[Key, Value] : Records)
      Out << snapshotRecord(Key, Value);
  }
  ResultCache C;
  std::string Error;
  ASSERT_TRUE(C.load(Path, Error)) << Error;
  EXPECT_EQ(C.size(), std::size(Records));
  EXPECT_EQ(C.sources(), 4u);
  for (const auto &[Key, Value] : Records) {
    std::string V;
    ASSERT_TRUE(C.lookup(Key, V)) << Key;
    EXPECT_EQ(V, Value);
  }
  std::remove(Path.c_str());
}

TEST(ResultCache, SharedSourcesSurviveSnapshotRoundTrip) {
  std::string Path = tempPath("cache_shared.bin");
  ResultCache Saved;
  for (unsigned I = 0; I != 10; ++I)
    Saved.insert(keyFor(I % 2 ? SafeSource : BuggySource,
                        "p" + std::to_string(I)),
                 "core" + std::to_string(I));
  std::string Error;
  ASSERT_TRUE(Saved.save(Path, Error)) << Error;

  ResultCache C;
  ASSERT_TRUE(C.load(Path, Error)) << Error;
  EXPECT_EQ(C.size(), 10u);
  EXPECT_EQ(C.sources(), 2u);
  EXPECT_EQ(C.bytes(), Saved.bytes());
  for (unsigned I = 0; I != 10; ++I) {
    std::string V;
    ASSERT_TRUE(C.lookup(keyFor(I % 2 ? SafeSource : BuggySource,
                                "p" + std::to_string(I)),
                         V));
    EXPECT_EQ(V, "core" + std::to_string(I));
  }
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
  // and the service survived the bad program.
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
  // The cache sits in front of the checks, so the hit/miss ledger of a
  // fixed request sequence cannot depend on how many may run at once.
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
  // service still serves.
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
  // The determinism contract: after serving unrelated programs, a
  // request's core must equal what a fresh standalone Session computes
  // for it.
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

TEST(CheckService, ConcurrentCallersMatchSingleThreadedRun) {
  // Four caller threads interleave hits (keys warmed beforehand), misses
  // (keys only their own thread asks for, so the first ask is the one
  // miss), and no_cache bypasses. Every core must equal what one thread
  // computes for the same request, and the ledger must match.
  constexpr unsigned Callers = 4, PerCaller = 6, Shared = 3;
  auto warm = [](CheckService &Svc) {
    for (unsigned I = 0; I != Shared; ++I)
      EXPECT_EQ(Svc.check(makeIndexed(I)).Cache, CacheDisposition::Miss);
  };
  std::vector<std::vector<Request>> Plans(Callers);
  for (unsigned T = 0; T != Callers; ++T) {
    for (unsigned I = 0; I != PerCaller; ++I) {
      Request Own = makeIndexed(100 + T * PerCaller + I);
      Request Race = makeCheck(RacySource, "racy" + std::to_string(T));
      Race.Field = "g";
      Request Fresh = makeCheck(BuggySource, "fresh.kiss");
      Fresh.NoCache = true;
      for (const Request &R :
           {Own, makeIndexed(I % Shared), Fresh, Own, Race})
        Plans[T].push_back(R);
    }
  }

  CheckService Ref({1, ""});
  warm(Ref);
  std::vector<std::vector<Reply>> Want(Callers);
  for (unsigned T = 0; T != Callers; ++T)
    for (const Request &R : Plans[T])
      Want[T].push_back(Ref.check(R));
  // Each caller's own programs and its race check (one name per caller)
  // miss once and hit afterwards; the warmed keys always hit.
  EXPECT_EQ(Ref.cache().misses(), Shared + Callers * (PerCaller + 1));
  EXPECT_EQ(Ref.cache().hits(), Callers * (3 * PerCaller - 1));
  EXPECT_EQ(statU64(Ref, "cache_bypasses"), Callers * PerCaller);

  for (unsigned Workers : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(Workers) + " workers");
    CheckService Svc({Workers, ""});
    warm(Svc);
    std::vector<std::vector<Reply>> Got(Callers);
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != Callers; ++T)
      Threads.emplace_back([&, T] {
        for (const Request &R : Plans[T])
          Got[T].push_back(Svc.check(R));
      });
    for (std::thread &Th : Threads)
      Th.join();
    for (unsigned T = 0; T != Callers; ++T) {
      ASSERT_EQ(Got[T].size(), Want[T].size());
      for (size_t I = 0; I != Got[T].size(); ++I) {
        EXPECT_EQ(Got[T][I].Code, Want[T][I].Code) << T << "/" << I;
        EXPECT_EQ(Got[T][I].Core, Want[T][I].Core) << T << "/" << I;
      }
    }
    EXPECT_EQ(Svc.cache().misses(), Ref.cache().misses());
    EXPECT_EQ(Svc.cache().hits(), Ref.cache().hits());
    EXPECT_EQ(statU64(Svc, "cache_bypasses"),
              statU64(Ref, "cache_bypasses"));
    EXPECT_EQ(statU64(Svc, "requests"), statU64(Ref, "requests"));
    EXPECT_EQ(statU64(Svc, "workers"), Workers);
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

TEST(CheckService, CorruptCachedCoreIsRecomputedAndOverwritten) {
  // A hand-built snapshot whose cores do not carry a usable code: one is
  // not JSON, one has a code out of range. Each is found (a cache hit in
  // the counters) but answered as a miss, recomputed and overwritten.
  std::string Path = tempPath("service_corrupt.bin");
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "kissd-cache v1\n"
        << snapshotRecord(keyFor(SafeSource, "corrupt.kiss"), "not json {")
        << snapshotRecord(keyFor(BuggySource, "corrupt.kiss"),
                          "{\"code\": 7}");
  }
  std::string Fresh[2];
  {
    CheckService Ref({1, ""});
    Fresh[0] = Ref.check(makeCheck(SafeSource, "corrupt.kiss")).Core;
    Fresh[1] = Ref.check(makeCheck(BuggySource, "corrupt.kiss")).Core;
  }
  CheckService Svc({1, Path});
  ASSERT_TRUE(Svc.cacheLoadError().empty()) << Svc.cacheLoadError();
  EXPECT_EQ(statU64(Svc, "cache_entries"), 2u);
  const char *Sources[2] = {SafeSource, BuggySource};
  for (unsigned I = 0; I != 2; ++I) {
    Reply R = Svc.check(makeCheck(Sources[I], "corrupt.kiss"));
    EXPECT_EQ(R.Cache, CacheDisposition::Miss) << I;
    EXPECT_EQ(R.Code, static_cast<int>(I)) << I;
    EXPECT_EQ(R.Core, Fresh[I]) << I;
  }
  EXPECT_EQ(statU64(Svc, "requests"), 2u);
  EXPECT_EQ(statU64(Svc, "cache_hits"), 2u);
  EXPECT_EQ(statU64(Svc, "cache_misses"), 0u);
  EXPECT_EQ(statU64(Svc, "cache_entries"), 2u);
  EXPECT_EQ(statU64(Svc, "cache_sources"), 2u);
  uint64_t Keys = keyFor(SafeSource, "corrupt.kiss").size() +
                   keyFor(BuggySource, "corrupt.kiss").size();
  EXPECT_EQ(statU64(Svc, "cache_bytes"),
            Keys + Fresh[0].size() + Fresh[1].size());
  // The overwritten entries now answer as hits, and persist.
  for (unsigned I = 0; I != 2; ++I) {
    Reply R = Svc.check(makeCheck(Sources[I], "corrupt.kiss"));
    EXPECT_EQ(R.Cache, CacheDisposition::Hit) << I;
    EXPECT_EQ(R.Code, static_cast<int>(I)) << I;
    EXPECT_EQ(R.Core, Fresh[I]) << I;
  }
  EXPECT_EQ(statU64(Svc, "cache_hits"), 4u);
  std::string Error;
  ASSERT_TRUE(Svc.saveCache(Error)) << Error;
  ResultCache Reloaded;
  ASSERT_TRUE(Reloaded.load(Path, Error)) << Error;
  for (unsigned I = 0; I != 2; ++I) {
    std::string V;
    ASSERT_TRUE(Reloaded.lookup(keyFor(Sources[I], "corrupt.kiss"), V));
    EXPECT_EQ(V, Fresh[I]) << I;
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

TEST(CheckService, OneProgramUnderManyNamesStoresOneSource) {
  CheckService Svc({2, ""});
  constexpr unsigned Names = 8;
  for (unsigned Round = 0; Round != 2; ++Round)
    for (unsigned I = 0; I != Names; ++I)
      EXPECT_EQ(Svc.check(makeCheck(SafeSource, "n" + std::to_string(I)))
                    .Cache,
                Round == 0 ? CacheDisposition::Miss : CacheDisposition::Hit);
  EXPECT_EQ(Svc.cache().misses(), Names);
  EXPECT_EQ(Svc.cache().hits(), Names);
  EXPECT_EQ(statU64(Svc, "cache_entries"), Names);
  EXPECT_EQ(statU64(Svc, "cache_sources"), 1u);
  EXPECT_EQ(statU64(Svc, "cache_bytes"), Svc.cache().bytes());
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

TEST(Server, ReapsFinishedConnectionThreads) {
  ServerOptions O;
  O.SocketPath = tempPath("reap.sock");
  Server S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  int Code = -1;
  std::thread Serving([&] { Code = S.serve(); });

  Request Ping;
  Ping.A = Action::Ping;
  size_t MaxHeld = 0;
  for (unsigned I = 0; I != 200; ++I) {
    Client C;
    ASSERT_TRUE(C.connectUnix(O.SocketPath, Error)) << Error;
    std::string Response;
    ASSERT_TRUE(C.call(renderRequest(Ping), Response, Error)) << Error;
    EXPECT_NE(Response.find("\"pong\""), std::string::npos);
    MaxHeld = std::max(MaxHeld, S.connectionThreads());
  }
  // Every client has closed; the accept loop joins their threads within
  // a poll slice or two.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (S.connectionThreads() != 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(S.connectionThreads(), 0u);
  EXPECT_LE(MaxHeld, 16u);

  S.requestShutdown();
  Serving.join();
  EXPECT_EQ(Code, 0);
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
