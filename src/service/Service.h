//===- Service.h - The kissd check service ----------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket-free heart of kissd: the persistent result cache in front
/// of plain sequential checks. A miss runs on the calling thread, in a
/// fresh kiss::Session, once it holds one of Workers slots, so at most
/// Workers checks explore at once. The Server (Server.h) is framing and
/// connection plumbing on top of this class; tests drive it directly, so
/// every cache/budget behaviour is checkable in-process without sockets.
///
/// Determinism contract: a check's *result core* — code, verdict, trace,
/// diagnostics, and the embedded schema-v5 record rendered with zeroed
/// timings — depends only on (name, source, field, cache-relevant
/// config). runRequest() is the single implementation of that mapping;
/// the service, tests, and any other embedder call the same function, so a
/// cached core and a freshly computed one can never drift.
///
/// Caching policy: only deterministic outcomes are cached — verdicts
/// (codes 0/1), compile/transform rejections (code 2), and the structural
/// state-budget bound (code 3, reason "states"). Wall-clock, memory, and
/// cancellation trips depend on the machine of the moment and are never
/// cached; requests carrying an injected test trip bypass the cache
/// entirely.
///
/// Isolation contract: each request runs under its own gov::RunBudget
/// (the request's deadline/memory knobs plus the service's shutdown
/// token), so a tripping or throwing request degrades to a bound/error
/// response without harming the daemon; no session outlives its request.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SERVICE_SERVICE_H
#define KISS_SERVICE_SERVICE_H

#include "service/Protocol.h"
#include "service/ResultCache.h"

#include <atomic>
#include <semaphore>
#include <string>

namespace kiss::service {

/// Runs one check request on \p S — which must have been constructed (or
/// reconfigured) with the request's config — and renders the
/// deterministic result core. \p Cacheable reports whether the outcome
/// falls under the caching policy (injected trips excluded by the
/// caller). \returns the response code (the CLI exit-code contract:
/// 0 clean, 1 error found, 2 rejected, 3 bound exceeded).
int runRequest(Session &S, const Request &R, std::string &Core,
               bool &Cacheable);

/// The canonical cache key of one request: the program name folded onto
/// config::cacheKey (the name reaches diagnostics, traces, and the
/// record's "name" field, so it is part of the result bytes).
std::string requestCacheKey(const Request &R);

struct ServiceOptions {
  /// How many checks may explore at once (0 means 1).
  unsigned Workers = 1;
  /// Snapshot path; loaded at construction, written by saveCache().
  /// Empty = in-memory only.
  std::string CachePath;
};

/// One answered check request.
struct Reply {
  int Code = 2;
  CacheDisposition Cache = CacheDisposition::Miss;
  std::string Core; ///< The deterministic result JSON.
};

class CheckService {
public:
  explicit CheckService(ServiceOptions O);

  CheckService(const CheckService &) = delete;
  CheckService &operator=(const CheckService &) = delete;

  /// Serves one check request: cache lookup, or a check on the calling
  /// thread once a worker slot is free. Thread-safe; blocks until the
  /// result is ready.
  Reply check(const Request &R);

  /// The shutdown token, woven into every request's budget. Setting it
  /// (SIGTERM) trips in-flight explorations with reason "cancelled".
  gov::CancellationToken &cancelToken() { return Cancel; }

  /// Saves the cache snapshot if a path was configured. \returns false
  /// with \p Error set on I/O failure.
  bool saveCache(std::string &Error);

  /// Service counters as a JSON object (the "stats" response).
  std::string statsJson() const;

  unsigned workers() const { return Workers; }
  const ResultCache &cache() const { return Cache; }
  /// If nonzero on construction, load() failed; the daemon should report
  /// and exit instead of silently running cold.
  const std::string &cacheLoadError() const { return CacheLoadError; }

private:
  unsigned Workers;
  std::counting_semaphore<> Slots;
  gov::CancellationToken Cancel;
  ResultCache Cache;
  std::string CachePath;
  std::string CacheLoadError;
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Bypasses{0};
};

} // namespace kiss::service

#endif // KISS_SERVICE_SERVICE_H
