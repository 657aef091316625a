//===- Protocol.h - The kissd wire protocol ---------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed request/response protocol between kissd and its clients
/// (kissctl, the service bench, tests). A connection carries a sequence of
/// frames, each `[u32 little-endian payload length][payload]`, where the
/// payload is one JSON document. Requests follow the versioned schema of
/// docs/service.md ("api_version": 1); the check-configuration subobject
/// is exactly the config::toJson schema, so a request's knobs parse with
/// the same table (and the same diagnostics) as `kisscheck --config`.
///
/// Responses are an envelope — api_version, kind, cache disposition, live
/// serve time — around a *deterministic result core*. The core (verdict,
/// code, trace, embedded schema-v5 check record with zeroed timings) is
/// the unit the result cache stores: a cache hit replays the identical
/// core bytes, and only the envelope differs between hit and miss.
///
/// Framing I/O is cancellation-aware: readFrame polls the descriptor in
/// short slices and gives up cleanly once the server's shutdown token is
/// set, which is what lets a SIGTERM drain idle connections without
/// tearing down mid-frame.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SERVICE_PROTOCOL_H
#define KISS_SERVICE_PROTOCOL_H

#include "kiss/Kiss.h"
#include "support/Governor.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace kiss::service {

/// Version of the request/response schema (the "api_version" member).
/// Requests carrying any other version are rejected before dispatch.
inline constexpr unsigned ApiVersion = 1;

/// Upper bound on one frame's payload. Large enough for any real program
/// source plus its trace; small enough that a corrupt length prefix fails
/// fast instead of triggering a multi-gigabyte allocation.
inline constexpr uint32_t MaxFrameBytes = 64u << 20;

/// What a request asks the daemon to do.
enum class Action : uint8_t {
  Check,    ///< Compile + check a program; the workhorse.
  Ping,     ///< Liveness probe; answered inline with "pong".
  Stats,    ///< Service counters (requests, cache hits/misses, workers).
  Shutdown, ///< Acknowledge, then drain and stop the daemon.
};

/// One parsed request. For Action::Check, `Source` is the program text,
/// `Field` selects race mode ("g" / "S.f"; empty = assertion mode), and
/// `Cfg` carries the knobs (partial config applied over defaults). The
/// inject knobs are the deterministic budget-trip hooks of
/// `kisscheck --inject-trip`, carried per request so tests can exercise
/// the degraded-response path against a live daemon.
struct Request {
  Action A = Action::Check;
  std::string Name = "request.kiss"; ///< Display/diagnostic name.
  std::string Source;
  std::string Field;
  CheckConfig Cfg;
  bool NoCache = false; ///< Skip cache lookup *and* insertion.
  uint64_t InjectTripTick = 0;
  gov::BoundReason InjectTripReason = gov::BoundReason::Deadline;
};

/// Parses one request payload. Unknown keys, bad types, and version
/// mismatches are rejected with `<name>:<line>:<col>:` diagnostics, the
/// same contract as config files. \p Name labels diagnostics ("request").
bool parseRequest(std::string_view Text, std::string_view Name, Request &R,
                  std::string &Error);

/// Renders \p R as a request payload parseRequest accepts (the client
/// side). The config subobject is config::toJson — always complete, so a
/// rendered request pins every knob explicitly.
std::string renderRequest(const Request &R);

/// How the cache handled a check request (the envelope's "cache" member).
enum class CacheDisposition : uint8_t {
  Miss,   ///< Computed now; cached if the outcome was deterministic.
  Hit,    ///< Replayed from the cache, byte-identical core.
  Bypass, ///< Request said no_cache (or carried an injected trip).
};

const char *getCacheDispositionName(CacheDisposition D);

/// Builds the response envelope around a result core: `{"api_version": 1,
/// "kind": "check", "cache": "...", "served_ms": N, "result": <core>}`.
/// \p Core is embedded verbatim (it is already JSON).
std::string renderCheckEnvelope(CacheDisposition D, uint64_t ServedMs,
                                std::string_view Core);

/// Builds a non-check response: `{"api_version": 1, "kind": "<kind>"}`,
/// plus `"message"` / embedded `"stats"` when nonempty. Kinds: "pong",
/// "bye", "stats", "error" (errors also carry `"code": 2`).
std::string renderSimpleResponse(std::string_view Kind,
                                 std::string_view Message = {},
                                 std::string_view StatsJson = {});

/// Outcome of one framing read.
enum class IoStatus : uint8_t {
  Ok,        ///< A full frame arrived.
  Eof,       ///< Clean close before a new frame started.
  Cancelled, ///< The shutdown token fired while waiting.
  Error,     ///< I/O failure or protocol violation (see Error).
};

/// Reads one frame from \p Fd into \p Payload. Waits in 100ms poll slices
/// so a set \p Cancel token is honoured between frames (and mid-frame) —
/// but never splits an error from its cause: a short read after a valid
/// length prefix is IoStatus::Error, not Eof. A payload already queued
/// behind its prefix is taken without a poll.
IoStatus readFrame(int Fd, std::string &Payload, std::string &Error,
                   const gov::CancellationToken *Cancel = nullptr);

/// Writes one frame (length prefix + payload) in one writev, resuming
/// after a partial write.
/// \returns false on I/O failure with \p Error set.
bool writeFrame(int Fd, std::string_view Payload, std::string &Error);

} // namespace kiss::service

#endif // KISS_SERVICE_PROTOCOL_H
