//===- Service.cpp - The warm-session check service -----------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "kiss/Config.h"
#include "kiss/TraceMap.h"
#include "lower/Pipeline.h"
#include "seqcheck/Result.h"
#include "support/Cli.h"
#include "support/Hashing.h"
#include "support/Json.h"
#include "telemetry/Telemetry.h"

#include <future>

using namespace kiss;
using namespace kiss::service;

namespace {

/// Requests served before a worker rebuilds its Session. Reuse keeps the
/// allocator and tables warm; the limit bounds symbol/source-buffer
/// growth from a long-lived daemon compiling thousands of programs.
constexpr unsigned SessionReuseLimit = 256;

/// Renders the deterministic result core. \p Record is the rendered
/// schema-v5 check record, or null when the request never reached the
/// checker (compile/resolve rejections render "check": null).
std::string renderCore(int Code, std::string_view Verdict,
                       std::string_view Bound, std::string_view Message,
                       std::string_view Diagnostics, std::string_view Trace,
                       const std::string *Record) {
  std::string Out = "{\"code\": ";
  Out += std::to_string(Code);
  Out += ", \"verdict\": ";
  Out += json::quote(Verdict);
  Out += ", \"bound_reason\": ";
  Out += json::quote(Bound);
  Out += ", \"message\": ";
  Out += json::quote(Message);
  Out += ", \"diagnostics\": ";
  Out += json::quote(Diagnostics);
  Out += ", \"trace\": ";
  Out += json::quote(Trace);
  Out += ", \"check\": ";
  Out += Record ? *Record : "null";
  Out += '}';
  return Out;
}

/// Extracts the "code" member of a cached core. \returns false if the
/// bytes do not parse — a corrupt snapshot entry, treated as a miss.
bool parseCoreCode(const std::string &Core, int &Code) {
  json::Value V;
  std::string Error;
  if (!json::parse(Core, "cache", V, Error) || !V.isObject())
    return false;
  const json::Value *C = V.find("code");
  uint64_t N = 0;
  if (!C || !C->asU64(N) || N > 3)
    return false;
  Code = static_cast<int>(N);
  return true;
}

} // namespace

std::string service::requestCacheKey(const Request &R) {
  // The name participates because it reaches diagnostics, the trace, and
  // the record's "name" — renaming a program renames its result bytes.
  std::string Key = "name=";
  Key += R.Name;
  Key += '\n';
  Key += config::cacheKey(R.Source, R.Field, R.Cfg);
  return Key;
}

int service::runRequest(Session &S, const Request &R, std::string &Core,
                        bool &Cacheable) {
  Cacheable = true;
  auto Reject = [&](std::string_view Message, const std::string &Diags) {
    Core = renderCore(cli::ExitUsage, "rejected", "none", Message, Diags,
                      /*Trace=*/"", /*Record=*/nullptr);
    return cli::ExitUsage;
  };

  auto P = S.compile(R.Name, R.Source);
  if (!P)
    return Reject("compile failed", S.diagnostics());
  if (!R.Field.empty()) {
    S.config().M = CheckConfig::Mode::Race;
    std::string Error;
    if (!S.resolveRaceTarget(R.Field, *P, S.config().Race, Error))
      return Reject(Error, "");
  }

  CheckResult CR = S.check(*P);
  if (S.hasErrors())
    return Reject("check rejected", S.diagnostics());

  telemetry::ReportOptions RO;
  RO.ZeroTimings = true; // The core is cached; it must not carry clocks.
  std::string Record = telemetry::renderCheckRecord(
      core::makeCheckRecord(
          CR, R.Field.empty() ? R.Name : R.Name + ":" + R.Field, 0),
      RO);

  std::string Trace;
  if (CR.foundError())
    Trace = core::formatConcurrentTrace(CR.Trace, *P, &S.context().SM);

  bool Bound = CR.Verdict == core::KissVerdict::BoundExceeded;
  int Code = cli::exitCode(CR.foundError(), Bound);
  // Only the structural state bound is deterministic; clock, memory, and
  // cancellation trips depend on the machine of the moment.
  Cacheable = !Bound || CR.boundReason() == gov::BoundReason::States;
  Core = renderCore(Code, core::getVerdictName(CR.Verdict),
                    gov::getBoundReasonName(CR.boundReason()), CR.Message,
                    /*Diagnostics=*/"", Trace, &Record);
  return Code;
}

//===----------------------------------------------------------------------===//
// CheckService
//===----------------------------------------------------------------------===//

namespace kiss::service {

struct JobResult {
  int Code = cli::ExitUsage;
  std::string Core;
  bool Cacheable = false;
};

struct CheckService::Job {
  const Request *Req = nullptr;
  std::promise<JobResult> Promise;
};

struct CheckService::Shard {
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Job> Jobs;
  bool Stop = false;
};

} // namespace kiss::service

CheckService::CheckService(ServiceOptions O) : CachePath(O.CachePath) {
  if (!CachePath.empty()) {
    std::string Error;
    if (!Cache.load(CachePath, Error))
      CacheLoadError = Error;
  }
  unsigned N = O.Workers ? O.Workers : 1;
  Shards.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Shards.push_back(std::make_unique<Shard>());
  Threads.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([this, I] { workerLoop(*Shards[I]); });
}

CheckService::~CheckService() {
  for (auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mu);
    S->Stop = true;
  }
  for (auto &S : Shards)
    S->Cv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void CheckService::workerLoop(Shard &Sh) {
  std::unique_ptr<Session> Sess;
  unsigned Used = 0;
  bool Dirty = false;
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(Sh.Mu);
      Sh.Cv.wait(Lock, [&] { return Sh.Stop || !Sh.Jobs.empty(); });
      if (Sh.Jobs.empty())
        return; // Stop seen and the queue is drained.
      J = std::move(Sh.Jobs.front());
      Sh.Jobs.pop_front();
    }

    // Per-request isolation: the request's own budget knobs plus the
    // service shutdown token; never the caller's recorder or heartbeat.
    CheckConfig Cfg = J.Req->Cfg;
    gov::RunBudget B = Cfg.Common.Budget;
    B.Cancel = &Cancel;
    B.TripAtTick = J.Req->InjectTripTick;
    B.TripReason = J.Req->InjectTripReason;
    Cfg.Common.Budget = B;
    Cfg.Common.Recorder = nullptr;
    Cfg.Progress = nullptr;
    Cfg.M = CheckConfig::Mode::Assertions; // runRequest flips for races.

    if (!Sess || Dirty || Used >= SessionReuseLimit) {
      Sess = std::make_unique<Session>(Cfg);
      Used = 0;
      Dirty = false;
    } else {
      Sess->config() = Cfg;
      Sess->context().Diags.clear(); // A warm session must start clean.
    }
    ++Used;

    JobResult R;
    try {
      R.Code = runRequest(*Sess, *J.Req, R.Core, R.Cacheable);
      // Rejections leave error diagnostics behind; rebuild next time
      // rather than trusting clear() to undo every side effect.
      Dirty = Sess->hasErrors();
    } catch (const std::exception &E) {
      // Fault isolation: the request degrades to a bound response; the
      // worker (and its queue) survives. The session is suspect now.
      R.Code = cli::ExitBoundExceeded;
      R.Cacheable = false;
      R.Core = renderCore(R.Code, "bound exceeded",
                          gov::getBoundReasonName(gov::BoundReason::Fault),
                          E.what(), "", "", nullptr);
      Dirty = true;
    } catch (...) {
      R.Code = cli::ExitBoundExceeded;
      R.Cacheable = false;
      R.Core = renderCore(R.Code, "bound exceeded",
                          gov::getBoundReasonName(gov::BoundReason::Fault),
                          "unknown exception", "", "", nullptr);
      Dirty = true;
    }
    J.Promise.set_value(std::move(R));
  }
}

Reply CheckService::check(const Request &R) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  std::string Key = requestCacheKey(R);
  // Injected trips are test knobs for the degraded path; caching them
  // would let a sabotaged run shadow the real result.
  bool Bypass = R.NoCache || R.InjectTripTick != 0;

  Reply Out;
  if (Bypass) {
    Bypasses.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::string Cached;
    if (Cache.lookup(Key, Cached) && parseCoreCode(Cached, Out.Code)) {
      Out.Cache = CacheDisposition::Hit;
      Out.Core = std::move(Cached);
      return Out;
    }
  }

  // Shard by request key so identical requests land on the same warm
  // session and a mixed batch spreads across the pool.
  Shard &Sh = *Shards[stableHash(Key) % Shards.size()];
  std::future<JobResult> Fut;
  {
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    Sh.Jobs.emplace_back();
    Sh.Jobs.back().Req = &R;
    Fut = Sh.Jobs.back().Promise.get_future();
  }
  Sh.Cv.notify_one();
  JobResult JR = Fut.get();

  Out.Code = JR.Code;
  Out.Core = std::move(JR.Core);
  Out.Cache = Bypass ? CacheDisposition::Bypass : CacheDisposition::Miss;
  if (!Bypass && JR.Cacheable)
    Cache.insert(Key, Out.Core);
  return Out;
}

bool CheckService::saveCache(std::string &Error) {
  if (CachePath.empty())
    return true;
  return Cache.save(CachePath, Error);
}

std::string CheckService::statsJson() const {
  std::string Out = "{\"requests\": ";
  Out += std::to_string(Requests.load(std::memory_order_relaxed));
  Out += ", \"cache_hits\": ";
  Out += std::to_string(Cache.hits());
  Out += ", \"cache_misses\": ";
  Out += std::to_string(Cache.misses());
  Out += ", \"cache_bypasses\": ";
  Out += std::to_string(Bypasses.load(std::memory_order_relaxed));
  Out += ", \"cache_entries\": ";
  Out += std::to_string(Cache.size());
  Out += ", \"cache_sources\": ";
  Out += std::to_string(Cache.sources());
  Out += ", \"cache_bytes\": ";
  Out += std::to_string(Cache.bytes());
  Out += ", \"workers\": ";
  Out += std::to_string(Shards.size());
  Out += '}';
  return Out;
}
