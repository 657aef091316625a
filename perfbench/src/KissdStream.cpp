//===- KissdStream.cpp - Workload kissd_stream ----------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kissd binary, spawned with --workers=2 on a Unix socket, driven
/// closed-loop over 2 connections (callers wait for each reply, as kissctl
/// does). A fifth of the ops ask for a new request, the next of a seeded
/// permutation of a fixed pool; the rest repeat an earlier request, so most
/// hit the result cache while misses keep arriving. The pool:
///
///  * every Table-1 field model in race mode, 25,000-state budget (heavy
///    fields included), known answer = the field's behaviour;
///  * examples/programs/*.kiss in assertion mode, known answer = the
///    verdict the repo's sample tests pin;
///  * generator programs, default grammar (engine seq) and BoolFragment
///    (engine auto, so bebop runs).
///
/// Op = one request round trip. It is right when the request was served
/// (not refused or dropped), its verdict equals the known answer where one
/// exists, and its check record is byte-identical to the first reply for
/// the same request (the miss that filled the cache).
///
//===----------------------------------------------------------------------===//

#include "Compose.h"
#include "Workloads.h"

#include "drivers/Corpus.h"
#include "drivers/ModelGen.h"
#include "fuzz/Generator.h"
#include "service/Client.h"
#include "service/Service.h"
#include "support/Hashing.h"
#include "telemetry/Telemetry.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

using namespace kiss;
using namespace kb;

namespace {

constexpr unsigned Workers = 2;
constexpr unsigned Connections = 2;
/// Share of ops (in 1/1000) that ask for a request not seen before.
constexpr uint32_t FreshPerMille = 200;
/// Generator programs in the request pool.
constexpr unsigned GenPrograms = 512;
/// Heavy fields each worker checks, untimed, in every set-up.
constexpr unsigned WarmupHeavy = 4;
constexpr uint64_t FieldBudget = 25000;
/// State budget of generator programs.
constexpr uint64_t GenBudget = 10000;
/// Ops of one traced round (a fixed prefix of the stream).
constexpr unsigned TracedOps = 3000;

//===--- The request pool and stream --------------------------------------===//

struct Item {
  const char *Kind = "";
  std::string Wire;     ///< The request as sent.
  std::string Expected; ///< Known verdict name; empty when none.
};

/// One assertion-mode example with the verdict the sample tests pin.
struct ExampleSpec {
  const char *File;
  unsigned MaxTs;
  rt::Engine Engine;
  const char *Verdict;
};

const ExampleSpec Examples[] = {
    {"bank.kiss", 1, rt::Engine::Seq, "assertion violation"},
    {"bank_fixed.kiss", 1, rt::Engine::Seq, "no error found"},
    {"queue.kiss", 1, rt::Engine::Seq, "no error found"},
    {"pingpong.kiss", 2, rt::Engine::Seq, "no error found"},
    {"refcount.kiss", 1, rt::Engine::Seq, "assertion violation"},
    {"refcount.kiss", 0, rt::Engine::Seq, "no error found"},
    {"handshake.kiss", 0, rt::Engine::Bebop, "no error found"},
    {"handshake.kiss", 0, rt::Engine::Seq, "no error found"},
    {"parity.kiss", 0, rt::Engine::Bebop, "no error found"},
};

const char *fieldVerdict(drivers::FieldBehavior B) {
  switch (B) {
  case drivers::FieldBehavior::RealRace:
  case drivers::FieldBehavior::SpuriousRace:
    return "race detected";
  case drivers::FieldBehavior::Heavy:
    return "bound exceeded";
  case drivers::FieldBehavior::Protected:
  case drivers::FieldBehavior::LockField:
    break;
  }
  return "no error found";
}

service::Request fieldRequest(const drivers::DriverSpec &D, unsigned F) {
  service::Request R;
  R.Name = D.Name + "." + D.Fields[F].Name + ".kiss";
  R.Source = drivers::buildFieldProgram(D, F, drivers::HarnessVersion::V1Unconstrained);
  R.Field = std::string(drivers::getDeviceExtensionName()) + "." + D.Fields[F].Name;
  R.Cfg.MaxStates = FieldBudget;
  return R;
}

/// One distinct request of the pool, before it is named for its round.
struct PoolEntry {
  const char *Kind = "";
  service::Request Req;
  std::string Expected;
};

/// The fixed pool: every Table-1 field, every pinned example and
/// GenPrograms generator programs (alternating grammars, seeds from the run
/// seed). A kind's share of the new requests is its share of the pool.
std::vector<PoolEntry>
buildPool(uint64_t Seed, const std::vector<drivers::DriverSpec> &Corpus,
          const std::vector<std::pair<std::string, const ExampleSpec *>> &Ex) {
  std::vector<PoolEntry> Pool;
  for (const drivers::DriverSpec &D : Corpus)
    for (unsigned F = 0; F != D.Fields.size(); ++F)
      Pool.push_back({"field", fieldRequest(D, F),
                      fieldVerdict(D.Fields[F].Behavior)});
  for (const auto &[Src, Spec] : Ex) {
    PoolEntry E{"example", {}, Spec->Verdict};
    E.Req.Name = Spec->File;
    E.Req.Source = Src;
    E.Req.Cfg.MaxTs = Spec->MaxTs;
    E.Req.Cfg.Engine = Spec->Engine;
    Pool.push_back(std::move(E));
  }
  for (unsigned I = 0; I != GenPrograms; ++I) {
    uint64_t S = Seed + I;
    fuzz::GenOptions G;
    G.BoolFragment = I % 2;
    PoolEntry E{G.BoolFragment ? "gen_bool_auto" : "gen_default", {}, ""};
    E.Req.Name = "gen-" + std::to_string(S) + ".kiss";
    E.Req.Source = fuzz::generateProgram(S, fuzz::varyOptions(S, G));
    E.Req.Cfg.MaxTs = G.BoolFragment ? 0 : 2;
    E.Req.Cfg.MaxStates = GenBudget;
    E.Req.Cfg.Engine = G.BoolFragment ? rt::Engine::Auto : rt::Engine::Seq;
    Pool.push_back(std::move(E));
  }
  return Pool;
}

/// The seeded request stream. A new request is the next entry of a seeded
/// permutation of the pool; a repeat picks a request issued earlier,
/// uniformly.
class Stream {
public:
  Stream(uint64_t Seed, std::vector<PoolEntry> Entries)
      : Rng(Seed), Pool(std::move(Entries)) {
    for (size_t I = Pool.size(); I > 1; --I)
      std::swap(Pool[I - 1], Pool[Rng.next(static_cast<uint32_t>(I))]);
  }

  /// The next op's item; stable while the stream lives.
  const Item &next(size_t &Index) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Items.empty() || Rng.next(1000) < FreshPerMille) {
      Items.push_back(makeFresh());
      Index = Items.size() - 1;
    } else {
      Index = Rng.next(static_cast<uint32_t>(Items.size()));
    }
    return Items[Index];
  }

  std::string describe() const {
    std::lock_guard<std::mutex> Lock(Mu);
    std::map<std::string, unsigned> ByKind;
    for (const Item &I : Items)
      ++ByKind[I.Kind];
    std::string Out = std::to_string(Items.size()) + " distinct requests (";
    for (const auto &[K, N] : ByKind)
      Out += K + " " + std::to_string(N) + ", ";
    Out.resize(Out.size() - 2);
    return Out + ") from a pool of " + std::to_string(Pool.size());
  }

private:
  /// Once the pool is used up it comes round again under new names: the
  /// name is part of the cache key, so the request is new while its check
  /// work is the same, and the mix of new requests stays the pool's.
  Item makeFresh() {
    const PoolEntry &E = Pool[Issued % Pool.size()];
    size_t Round = Issued++ / Pool.size();
    service::Request R = E.Req;
    if (Round)
      R.Name = R.Name.substr(0, R.Name.size() - 5) + ".r" +
               std::to_string(Round) + ".kiss";
    return {E.Kind, service::renderRequest(R), E.Expected};
  }

  mutable std::mutex Mu;
  fuzz::Rng Rng;
  std::vector<PoolEntry> Pool;
  size_t Issued = 0;
  std::deque<Item> Items; ///< Deque: references stay valid on growth.
};

//===--- Reading replies ---------------------------------------------------===//

// Replies are scanned, not parsed: the client checks every reply inside the
// closed loop, and a full JSON parse per op would add to the latency it
// measures.

std::string stringField(const std::string &Json, const char *Key) {
  std::string Pat = std::string("\"") + Key + "\": \"";
  size_t At = Json.find(Pat);
  if (At == std::string::npos)
    return "";
  At += Pat.size();
  return Json.substr(At, Json.find('"', At) - At);
}

uint64_t numberField(const std::string &Json, const char *Key) {
  std::string Pat = std::string("\"") + Key + "\": ";
  size_t At = Json.find(Pat);
  return At == std::string::npos
             ? ~0ull
             : std::strtoull(Json.c_str() + At + Pat.size(), nullptr, 10);
}

/// The deterministic core of a check envelope (what the cache replays).
std::string replyCore(const std::string &Envelope) {
  size_t At = Envelope.find("\"result\": ");
  if (At == std::string::npos || Envelope.size() < At + 11)
    return "";
  return Envelope.substr(At + 10, Envelope.size() - At - 11);
}

/// Checks one reply: served, known verdict, byte-identical to the first
/// reply for the same request. Thread-safe.
class Verifier {
public:
  /// \returns an empty string when the reply is right, else why not.
  std::string check(size_t Index, const Item &It, bool Served,
                    const std::string &Envelope, bool &Hit) {
    Hit = false;
    if (!Served)
      return "dropped connection";
    std::string Core = replyCore(Envelope);
    if (Core.empty())
      return "refused: " + Envelope.substr(0, 200);
    Hit = stringField(Envelope, "cache") == "hit";
    if (numberField(Core, "code") == 2)
      return std::string("rejected ") + It.Kind + ": " +
             stringField(Core, "message");
    std::string Verdict = stringField(Core, "verdict");
    if (!It.Expected.empty() && Verdict != It.Expected)
      return std::string(It.Kind) + " verdict '" + Verdict + "', expected '" +
             It.Expected + "'";
    std::lock_guard<std::mutex> Lock(Mu);
    auto Seen = First.find(Index);
    if (Seen == First.end())
      First.emplace(Index, std::move(Core));
    else if (Seen->second != Core)
      return std::string(Hit ? "hit" : "miss") +
             " bytes differ from the first reply";
    return "";
  }

private:
  std::mutex Mu;
  std::unordered_map<size_t, std::string> First;
};

//===--- The daemon --------------------------------------------------------===//

/// One kissd child. Always killed, reaped and its socket removed, also
/// when the run fails.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { kill(); }

  bool start(const RunOptions &O, const std::string &Sock, std::string &Err) {
    SockPath = Sock;
    ::unlink(Sock.c_str());
    std::string SockArg = "--socket=" + Sock;
    std::string WorkersArg = "--workers=" + std::to_string(Workers);
    std::string Log = O.WorkDir + "/kissd.log";
    Pid = ::fork();
    if (Pid < 0) {
      Err = "fork failed";
      return false;
    }
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int Null = ::open("/dev/null", O_RDONLY);
      int Out = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Null >= 0)
        ::dup2(Null, 0);
      if (Out >= 0) {
        ::dup2(Out, 1);
        ::dup2(Out, 2);
      }
      char *Argv[] = {const_cast<char *>("kissd"), SockArg.data(),
                      WorkersArg.data(), nullptr};
      ::execv(O.KissdPath.c_str(), Argv);
      ::_exit(127);
    }
    return true;
  }

  /// Connects \p C, retrying while the daemon binds its socket.
  bool connect(service::Client &C, std::string &Err) {
    auto Start = Clock::now();
    while (msSince(Start) < 10000) {
      if (C.connectUnix(SockPath, Err))
        return true;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "kissd exited during start-up";
        return false;
      }
      ::usleep(200);
    }
    return false;
  }

  /// CPU ms and minor faults so far, from /proc (the start of the timed
  /// phase; the end comes from wait4).
  Usage procUsage() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    Usage U;
    size_t Close = Text.rfind(')');
    if (Close == std::string::npos)
      return U;
    std::istringstream Fields(Text.substr(Close + 2));
    std::vector<std::string> F;
    for (std::string S; Fields >> S;)
      F.push_back(S);
    if (F.size() < 13)
      return U;
    // From field 3 (state): minflt is field 10, utime 14, stime 15.
    double Tick = 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
    U.MinorFaults = std::strtoull(F[7].c_str(), nullptr, 10);
    U.UserMs = std::strtod(F[11].c_str(), nullptr) * Tick;
    U.SysMs = std::strtod(F[12].c_str(), nullptr) * Tick;
    return U;
  }

  /// Asks the daemon to shut down and reaps it. \returns its rusage via
  /// wait4, or false if it had to be killed.
  bool shutdown(Usage &U) {
    service::Client C;
    std::string Err, Resp;
    service::Request Bye;
    Bye.A = service::Action::Shutdown;
    if (connect(C, Err))
      C.call(service::renderRequest(Bye), Resp, Err);
    C.close();
    auto Start = Clock::now();
    while (Pid > 0 && msSince(Start) < 20000) {
      int Status = 0;
      struct rusage RU {};
      pid_t Got = ::wait4(Pid, &Status, WNOHANG, &RU);
      if (Got == Pid) {
        Pid = -1;
        ::unlink(SockPath.c_str());
        auto Ms = [](const timeval &T) {
          return static_cast<double>(T.tv_sec) * 1000.0 +
                 static_cast<double>(T.tv_usec) / 1000.0;
        };
        U = {Ms(RU.ru_utime), Ms(RU.ru_stime),
             static_cast<uint64_t>(RU.ru_minflt),
             static_cast<double>(RU.ru_maxrss) / 1024.0};
        return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
      }
      ::usleep(1000);
    }
    kill();
    return false;
  }

  void kill() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int Status = 0;
      ::waitpid(Pid, &Status, 0);
      Pid = -1;
    }
    if (!SockPath.empty())
      ::unlink(SockPath.c_str());
  }

private:
  pid_t Pid = -1;
  std::string SockPath;
};

/// Spawn, first ping, the allocator warm-up, then each worker's no-cache
/// warm-up requests, the workers side by side (one connection each). The
/// timed stream then starts on warm workers and a cold cache.
bool setUpDaemon(const RunOptions &O, Daemon &D, const std::string &Sock,
                 const std::string &AllocWarmup,
                 const std::vector<std::vector<std::string>> &Warmups,
                 std::string &Err) {
  if (!D.start(O, Sock, Err))
    return false;
  std::vector<service::Client> C(Warmups.size());
  for (service::Client &Conn : C)
    if (!D.connect(Conn, Err))
      return false;
  std::string Resp;
  service::Request Ping;
  Ping.A = service::Action::Ping;
  if (!C[0].call(service::renderRequest(Ping), Resp, Err) ||
      Resp.find("pong") == std::string::npos) {
    Err = "no pong from kissd: " + Err;
    return false;
  }
  if (!C[0].call(AllocWarmup, Resp, Err) ||
      Resp.find("pong") == std::string::npos) {
    Err = "allocator warm-up failed: " + Err + Resp.substr(0, 200);
    return false;
  }
  std::vector<std::string> Errors(Warmups.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Warmups.size(); ++I)
    Threads.emplace_back([&, I] {
      std::string Reply, E;
      for (const std::string &Wire : Warmups[I])
        if (!C[I].call(Wire, Reply, E) || replyCore(Reply).empty()) {
          Errors[I] = "warm-up request failed: " + E + Reply;
          return;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &E : Errors)
    if (!E.empty()) {
      Err = E;
      return false;
    }
  return true;
}

/// The allocator warm-up (see settleMmapThreshold): a ping padded with
/// SettleBlockBytes of JSON whitespace. The heavy warm-ups alone leave the
/// threshold just above kissd's 16 MiB arena block, where whether the heap
/// trims depends on where cache entries happen to land; reading this frame
/// frees a larger block once, so 16 MiB blocks come from the heap as every
/// smaller one already does.
std::string allocatorWarmup() {
  service::Request Ping;
  Ping.A = service::Action::Ping;
  std::string Wire = service::renderRequest(Ping);
  Wire.insert(Wire.rfind('}'), SettleBlockBytes, ' ');
  return Wire;
}

/// The warm-up of each worker: of the heavy Table-1 fields that the
/// service's key sharding sends to it, the WarmupHeavy with the largest
/// models (the largest states), no-cache. Side by side, the two workers
/// reach the peak memory the stream's heavy misses can reach.
std::vector<std::vector<std::string>>
warmupRequests(const std::vector<drivers::DriverSpec> &Corpus) {
  std::vector<std::vector<std::pair<size_t, std::string>>> BySize(Workers);
  for (const drivers::DriverSpec &D : Corpus)
    for (unsigned F = 0; F != D.Fields.size(); ++F) {
      if (D.Fields[F].Behavior != drivers::FieldBehavior::Heavy)
        continue;
      service::Request R = fieldRequest(D, F);
      R.NoCache = true;
      // Shard as kissd does: by the key of the request it parses.
      std::string Wire = service::renderRequest(R), Err;
      service::Request Parsed;
      if (service::parseRequest(Wire, "request", Parsed, Err))
        BySize[stableHash(service::requestCacheKey(Parsed)) % Workers]
            .push_back({R.Source.size(), std::move(Wire)});
    }
  std::vector<std::vector<std::string>> Out(Workers);
  for (unsigned W = 0; W != Workers; ++W) {
    auto &V = BySize[W];
    std::stable_sort(V.begin(), V.end(), [](const auto &A, const auto &B) {
      return A.first > B.first;
    });
    for (size_t I = 0; I != V.size() && I != WarmupHeavy; ++I)
      Out[W].push_back(std::move(V[I].second));
  }
  return Out;
}

bool loadExamples(const RunOptions &O,
                  std::vector<std::pair<std::string, const ExampleSpec *>> &Out) {
  for (const ExampleSpec &E : Examples) {
    std::string Path = O.RepoRoot + "/examples/programs/" + E.File;
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "kissbench: cannot read %s\n", Path.c_str());
      return false;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Out.push_back({SS.str(), &E});
  }
  return true;
}

//===--- The traced run ----------------------------------------------------===//

/// A socketpair big enough that one thread can write a frame and then
/// read it back.
struct FramePipe {
  int Fd[2] = {-1, -1};
  FramePipe() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fd) == 0)
      for (int F : Fd) {
        int Size = 16 << 20;
        ::setsockopt(F, SOL_SOCKET, SO_SNDBUF, &Size, sizeof(Size));
        ::setsockopt(F, SOL_SOCKET, SO_RCVBUF, &Size, sizeof(Size));
      }
  }
  FramePipe(const FramePipe &) = delete;
  FramePipe &operator=(const FramePipe &) = delete;
  ~FramePipe() {
    for (int F : Fd)
      if (F >= 0)
        ::close(F);
  }
  bool roundTrip(const std::string &In, std::string &Out) {
    std::string Err;
    return service::writeFrame(Fd[0], In, Err) &&
           service::readFrame(Fd[1], Out, Err) == service::IoStatus::Ok;
  }
};

/// The untraced entry point: the stream prefix sent to a fresh kissd over
/// one connection. \returns the envelopes, or false on failure.
bool daemonReplies(const RunOptions &O, const std::vector<const Item *> &Ops,
                   std::vector<std::string> &Replies, double &Ms) {
  Daemon D;
  std::string Err;
  service::Client C;
  if (!D.start(O, O.WorkDir + "/kissd-trace.sock", Err) || !D.connect(C, Err)) {
    std::fprintf(stderr, "kissbench: kissd: %s\n", Err.c_str());
    return false;
  }
  auto Start = Clock::now();
  for (const Item *It : Ops) {
    Replies.emplace_back();
    if (!C.call(It->Wire, Replies.back(), Err))
      Replies.back().clear();
  }
  Ms = msSince(Start);
  C.close();
  Usage U;
  D.shutdown(U);
  return true;
}

/// One in-process pass of the service path over \p Ops, each call a span,
/// plus the composed KISS pipeline on every miss (timed apart, as it
/// repeats the miss's work).
void composedRound(Tracer &T, Counters &C, const std::vector<const Item *> &Ops,
                   const std::vector<std::string> &Replies, uint64_t FirstOp,
                   RunResult &R, double &ServiceMs, Usage &ServiceCpu) {
  service::ResultCache Cache;
  std::unique_ptr<Session> Sessions[Workers];
  unsigned Used[Workers] = {};
  bool Dirty[Workers] = {};
  FramePipe Pipe;
  for (size_t I = 0; I != Ops.size(); ++I) {
    T.setOp(FirstOp + I);
    double DupMs = 0;
    Usage DupCpu;
    Usage Cpu0 = selfUsage();
    auto T0 = Clock::now();

    std::string Text, Err, Core;
    T.span("service.frame", [&] { return Pipe.roundTrip(Ops[I]->Wire, Text); });
    service::Request Req;
    bool Parsed = T.span("service.parse", [&] {
      return service::parseRequest(Text, "request", Req, Err);
    });
    std::string Key = T.span("service.key", [&] { return service::requestCacheKey(Req); });
    bool Hit = T.span("service.lookup", [&] { return Cache.lookup(Key, Core); });
    if (!Hit && Parsed) {
      unsigned W = static_cast<unsigned>(stableHash(Key) % Workers);
      // Warm per-worker sessions, rebuilt as the service's workers do: when
      // dirty or after 256 requests.
      CheckConfig Cfg = Req.Cfg;
      Cfg.M = CheckConfig::Mode::Assertions;
      if (!Sessions[W] || Dirty[W] || Used[W] >= 256) {
        Sessions[W] = std::make_unique<Session>(Cfg);
        Used[W] = 0;
      } else {
        Sessions[W]->config() = Cfg;
        Sessions[W]->context().Diags.clear();
      }
      ++Used[W];
      bool Cacheable = false;
      T.span("service.run", [&] {
        return service::runRequest(*Sessions[W], Req, Core, Cacheable);
      });
      Dirty[W] = Sessions[W]->hasErrors();
      if (Cacheable)
        T.span("service.lookup", [&] {
          Cache.insert(Key, Core);
          return 0;
        });

      // The miss's layers, composed; its verdict and counts must match the
      // record runRequest rendered.
      Usage DupCpu0 = selfUsage();
      auto D0 = Clock::now();
      lower::CompilerContext Ctx;
      auto P = compileTraced(T, C, Ctx, Req.Name, Req.Source);
      CheckSpec S;
      S.Race = !Req.Field.empty();
      S.RaceField = Req.Field;
      S.MaxTs = Req.Cfg.MaxTs;
      S.MaxSwitches = Req.Cfg.MaxSwitches;
      S.MaxStates = Req.Cfg.MaxStates;
      S.Engine = Req.Cfg.Engine;
      CheckOutcome Out;
      if (P)
        Out = checkTraced(T, C, Ctx, *P, S);
      telemetry::CheckRecord Rec;
      Rec.Name = S.Race ? Req.Name + ":" + Req.Field : Req.Name;
      Rec.Outcome = core::getVerdictName(Out.Verdict);
      Rec.States = Out.States;
      Rec.Transitions = Out.Transitions;
      Rec.Engine = rt::getEngineName(Out.EngineUsed);
      telemetry::ReportOptions RO;
      RO.ZeroTimings = true;
      T.span("telemetry.render", [&] { return telemetry::renderCheckRecord(Rec, RO); });
      if (!P || Rec.Outcome != stringField(Core, "verdict") ||
          Out.States != numberField(Core, "states") ||
          Out.Transitions != numberField(Core, "transitions"))
        R.wrong("traced pipeline differs from runRequest on " + Req.Name);
      DupMs = msSince(D0);
      DupCpu = selfUsage() - DupCpu0;
    }
    std::string Resp = T.span("service.render", [&] {
      return service::renderCheckEnvelope(
          Hit ? service::CacheDisposition::Hit : service::CacheDisposition::Miss,
          0, Core);
    });
    std::string Back;
    T.span("service.frame", [&] { return Pipe.roundTrip(Resp, Back); });
    ServiceMs += msSince(T0) - DupMs;
    ServiceCpu += selfUsage() - Cpu0 - DupCpu;
    C[Hit ? "service_hits" : "service_misses"] += 1;
    C["service_response_bytes"] += static_cast<double>(Back.size());

    ++R.Attempted;
    const std::string &Want = Replies[I];
    if (!Parsed || replyCore(Want) != Core ||
        (stringField(Want, "cache") == "hit") != Hit)
      R.wrong("traced service path differs from kissd on op " +
              std::to_string(I));
  }
}

} // namespace

bool kb::runKissdStream(const RunOptions &O, RunResult &R) {
  if (Workers + Connections > O.Nproc) {
    std::fprintf(stderr,
                 "kissbench: kissd_stream needs %u workers + %u connections "
                 "<= nproc, but nproc is %u\n",
                 Workers, Connections, O.Nproc);
    return false;
  }
  if (O.KissdPath.empty() || ::access(O.KissdPath.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "kissbench: no kissd binary at '%s'\n",
                 O.KissdPath.c_str());
    return false;
  }
  std::vector<std::pair<std::string, const ExampleSpec *>> ExampleSrc;
  if (!loadExamples(O, ExampleSrc))
    return false;
  std::vector<drivers::DriverSpec> Corpus = drivers::getTable1Corpus();
  Stream S(mixSeed(O.Seed),
           buildPool(mixSeed(O.Seed ^ 0x6e6), Corpus, ExampleSrc));
  R.info("op", "one check request round trip to kissd over a Unix socket");
  R.info("concurrency", "closed loop, " + std::to_string(Connections) +
                            " connections (one client thread each), kissd "
                            "--workers=" + std::to_string(Workers));
  size_t NFields = 0;
  for (const drivers::DriverSpec &D : Corpus)
    NFields += D.Fields.size();
  R.info("stream", std::to_string(FreshPerMille / 10) +
                       "% of ops ask for the next request of a seeded "
                       "permutation of the pool (" + std::to_string(NFields) +
                       " fields, " +
                       std::to_string(std::size(Examples)) + " examples, " +
                       std::to_string(GenPrograms) +
                       " generator programs), the rest repeat an earlier "
                       "one uniformly");

  if (O.Trace) {
    settleMmapThreshold(); // As the daemon's allocator warm-up does.
    std::vector<const Item *> Ops;
    for (unsigned I = 0; I != TracedOps; ++I) {
      size_t Index = 0;
      Ops.push_back(&S.next(Index));
    }
    std::vector<std::string> Replies;
    double UntracedMs = 0;
    if (!daemonReplies(O, Ops, Replies, UntracedMs))
      return false;
    Tracer T;
    Counters C, First;
    double ServiceMs = 0;
    Usage ServiceCpu;
    unsigned Rounds = 0;
    auto Start = Clock::now();
    for (; Rounds == 0 || msSince(Start) < O.Seconds * 1000; ++Rounds) {
      Counters RoundC;
      composedRound(T, RoundC, Ops, Replies, Rounds * TracedOps, R, ServiceMs,
                    ServiceCpu);
      addRound(C, First, RoundC, Rounds, R);
    }
    R.info("traced rounds", std::to_string(Rounds) + " x " +
                                std::to_string(TracedOps) + " requests");
    R.info("input sizes", S.describe());
    saveSpans(O, T, R);
    addLayerMetrics(R, T, C, static_cast<double>(Rounds) * TracedOps,
                    ServiceCpu, ServiceMs / Rounds, UntracedMs);
    return true;
  }

  // Set up several times; the last daemon serves the timed stream.
  EndToEnd E;
  std::vector<std::vector<std::string>> Warmups = warmupRequests(Corpus);
  std::string AllocWarmup = allocatorWarmup();
  std::string Sock = O.WorkDir + "/kissd.sock";
  std::unique_ptr<Daemon> D;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    if (D) {
      Usage Ignored;
      D->shutdown(Ignored);
    }
    D = std::make_unique<Daemon>();
    std::string Err;
    auto T0 = Clock::now();
    if (!setUpDaemon(O, *D, Sock, AllocWarmup, Warmups, Err)) {
      std::fprintf(stderr, "kissbench: kissd set-up: %s\n", Err.c_str());
      return false;
    }
    E.SetupS.push_back(msSince(T0) / 1000.0);
  }

  struct PerConn {
    std::vector<double> LatencyMs, DoneMs;
    std::vector<std::string> Errors;
    std::map<std::string, std::vector<double>> MissMs; ///< By kind.
    uint64_t Ops = 0, Failed = 0, Hits = 0;
    std::string ConnectError;
  };
  std::vector<PerConn> Conns(Connections);
  std::vector<service::Client> Clients(Connections);
  for (unsigned I = 0; I != Connections; ++I)
    if (!D->connect(Clients[I], Conns[I].ConnectError)) {
      std::fprintf(stderr, "kissbench: connect: %s\n",
                   Conns[I].ConnectError.c_str());
      return false;
    }
  Verifier V;
  Usage Before = D->procUsage();
  auto Start = Clock::now();
  auto Deadline = Start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(O.Seconds));
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Connections; ++I)
    Threads.emplace_back([&, I] {
      PerConn &P = Conns[I];
      std::string Resp, Err;
      while (Clock::now() < Deadline) {
        size_t Index = 0;
        const Item &It = S.next(Index);
        auto T0 = Clock::now();
        bool Served = Clients[I].call(It.Wire, Resp, Err);
        auto T1 = Clock::now();
        P.LatencyMs.push_back(msBetween(T0, T1));
        P.DoneMs.push_back(msBetween(Start, T1));
        ++P.Ops;
        bool Hit = false;
        std::string Why = V.check(Index, It, Served, Resp, Hit);
        P.Hits += Hit;
        if (!Hit)
          P.MissMs[It.Kind].push_back(P.LatencyMs.back());
        if (!Why.empty()) {
          ++P.Failed;
          if (P.Errors.size() < 5)
            P.Errors.push_back(Why);
          if (!Served)
            break;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (service::Client &C : Clients)
    C.close();
  Usage After;
  bool Clean = D->shutdown(After);
  D.reset();

  uint64_t Hits = 0;
  std::vector<std::pair<double, double>> Done; // (completion, latency)
  std::map<std::string, std::vector<double>> MissMs;
  for (PerConn &P : Conns) {
    for (auto &[Kind, Ms] : P.MissMs)
      MissMs[Kind].insert(MissMs[Kind].end(), Ms.begin(), Ms.end());
    for (size_t I = 0; I != P.DoneMs.size(); ++I)
      Done.push_back({P.DoneMs[I], P.LatencyMs[I]});
    R.Attempted += P.Ops;
    R.Failed += P.Failed;
    Hits += P.Hits;
    for (std::string &Err : P.Errors)
      if (R.Errors.size() < 10)
        R.Errors.push_back(std::move(Err));
  }
  if (R.Failed)
    R.Correct = false;
  if (!Clean) {
    R.Correct = false;
    R.Errors.push_back("kissd did not shut down cleanly");
  }
  // Whole-run rate and percentiles: a run covers the pool several times,
  // so the share of heavy misses in it is nearly fixed, where a chunk of
  // it would catch a chance handful.
  std::sort(Done.begin(), Done.end());
  for (const auto &[At, Ms] : Done)
    E.LatencyMs.push_back(Ms);
  if (!Done.empty())
    E.OpsPerS = static_cast<double>(Done.size()) * 1000.0 / Done.back().first;
  E.Cpu = After - Before;
  E.PeakRssMb = After.MaxRssMb;
  R.info("input sizes", S.describe());
  R.info("cache hits", std::to_string(Hits) + " of " +
                           std::to_string(R.Attempted) + " ops");
  for (const auto &[Kind, Ms] : MissMs)
    R.info("misses " + Kind,
           std::to_string(Ms.size()) + ", p50 " +
               std::to_string(percentile(Ms, 0.5)) + " ms, p90 " +
               std::to_string(percentile(Ms, 0.9)) + " ms");
  R.info("cpu, faults, rss", "of the kissd child (wait4 minus /proc at the "
                             "timed start)");
  addEndToEnd(R, E);
  return true;
}
