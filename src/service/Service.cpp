//===- Service.cpp - The kissd check service ------------------------------===//
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
#include "support/Json.h"
#include "telemetry/Telemetry.h"

using namespace kiss;
using namespace kiss::service;

namespace {

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

/// Renders the uncached code-3 "fault" core of a request whose check
/// threw.
int renderFault(std::string_view Message, std::string &Core,
                bool &Cacheable) {
  Cacheable = false;
  Core = renderCore(cli::ExitBoundExceeded, "bound exceeded",
                    gov::getBoundReasonName(gov::BoundReason::Fault),
                    Message, "", "", nullptr);
  return cli::ExitBoundExceeded;
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

CheckService::CheckService(ServiceOptions O)
    : Workers(O.Workers ? O.Workers : 1), Slots(Workers),
      CachePath(O.CachePath) {
  if (!CachePath.empty()) {
    std::string Error;
    if (!Cache.load(CachePath, Error))
      CacheLoadError = Error;
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

  // Per-request isolation: the request's own budget knobs plus the
  // service shutdown token; never the caller's recorder or heartbeat.
  CheckConfig Cfg = R.Cfg;
  gov::RunBudget B = Cfg.Common.Budget;
  B.Cancel = &Cancel;
  B.TripAtTick = R.InjectTripTick;
  B.TripReason = R.InjectTripReason;
  Cfg.Common.Budget = B;
  Cfg.Common.Recorder = nullptr;
  Cfg.Progress = nullptr;
  Cfg.M = CheckConfig::Mode::Assertions; // runRequest flips for races.

  bool Cacheable = false;
  {
    Slots.acquire();
    struct SlotGuard {
      std::counting_semaphore<> &S;
      ~SlotGuard() { S.release(); }
    } Guard{Slots};
    try {
      Session S(Cfg);
      Out.Code = runRequest(S, R, Out.Core, Cacheable);
    } catch (const std::exception &E) {
      // Fault isolation: the request degrades to a bound response and
      // the daemon goes on serving.
      Out.Code = renderFault(E.what(), Out.Core, Cacheable);
    } catch (...) {
      Out.Code = renderFault("unknown exception", Out.Core, Cacheable);
    }
  }

  Out.Cache = Bypass ? CacheDisposition::Bypass : CacheDisposition::Miss;
  if (!Bypass && Cacheable)
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
  Out += std::to_string(Workers);
  Out += '}';
  return Out;
}
