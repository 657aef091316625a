//===- Protocol.cpp - The kissd wire protocol -----------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "kiss/Config.h"
#include "support/Json.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace kiss;
using namespace kiss::service;

//===----------------------------------------------------------------------===//
// Request parsing and rendering
//===----------------------------------------------------------------------===//

namespace {

std::string posPrefix(std::string_view Name, unsigned Line, unsigned Col) {
  std::string S(Name);
  S += ':';
  S += std::to_string(Line);
  S += ':';
  S += std::to_string(Col);
  S += ": ";
  return S;
}

bool parseAction(const std::string &Text, Action &Out) {
  if (Text == "check")
    Out = Action::Check;
  else if (Text == "ping")
    Out = Action::Ping;
  else if (Text == "stats")
    Out = Action::Stats;
  else if (Text == "shutdown")
    Out = Action::Shutdown;
  else
    return false;
  return true;
}

const char *getActionName(Action A) {
  switch (A) {
  case Action::Check:
    return "check";
  case Action::Ping:
    return "ping";
  case Action::Stats:
    return "stats";
  case Action::Shutdown:
    return "shutdown";
  }
  return "check";
}

} // namespace

bool service::parseRequest(std::string_view Text, std::string_view Name,
                           Request &R, std::string &Error) {
  json::Value V;
  if (!json::parse(Text, Name, V, Error))
    return false;
  if (!V.isObject()) {
    Error = posPrefix(Name, V.line(), V.col()) + "request must be a JSON "
                                                 "object";
    return false;
  }
  bool SawVersion = false;
  for (const json::Member &M : V.members()) {
    const json::Value &MV = V.memberValue(M);
    auto KeyErr = [&](std::string_view Msg) {
      Error = posPrefix(Name, M.KeyLine, M.KeyCol);
      Error += Msg;
      return false;
    };
    auto ValueErr = [&](std::string_view Msg) {
      Error = posPrefix(Name, MV.line(), MV.col());
      Error += "request key '";
      Error += M.Key;
      Error += "' ";
      Error += Msg;
      return false;
    };
    if (M.Key == "api_version") {
      uint64_t Ver = 0;
      if (!MV.asU64(Ver) || Ver != ApiVersion)
        return ValueErr("must be " + std::to_string(ApiVersion) +
                        " (unsupported api_version)");
      SawVersion = true;
    } else if (M.Key == "action") {
      if (!MV.isString() || !parseAction(MV.asString(), R.A))
        return ValueErr("needs check, ping, stats, or shutdown");
    } else if (M.Key == "name") {
      if (!MV.isString())
        return ValueErr("needs a string");
      R.Name = MV.asString();
    } else if (M.Key == "source") {
      if (!MV.isString())
        return ValueErr("needs a string");
      R.Source = MV.asString();
    } else if (M.Key == "field") {
      if (!MV.isString())
        return ValueErr("needs a string");
      R.Field = MV.asString();
    } else if (M.Key == "config") {
      // Delegates to the shared config table: same keys, same
      // file:line:col diagnostics as `kisscheck --config`.
      if (!config::fromJson(MV, Name, R.Cfg, Error))
        return false;
    } else if (M.Key == "no_cache") {
      if (!MV.isBool())
        return ValueErr("needs true or false");
      R.NoCache = MV.asBool();
    } else if (M.Key == "inject_trip_tick") {
      if (!MV.asU64(R.InjectTripTick))
        return ValueErr("needs an unsigned integer");
    } else if (M.Key == "inject_trip_reason") {
      if (!MV.isString() ||
          !gov::parseBoundReason(MV.asString(), R.InjectTripReason))
        return ValueErr("needs a bound-reason name "
                        "(deadline|memory|states|cancelled)");
    } else {
      return KeyErr("unknown request key '" + M.Key + "'");
    }
  }
  if (!SawVersion) {
    Error = posPrefix(Name, V.line(), V.col()) +
            "request is missing \"api_version\"";
    return false;
  }
  return true;
}

std::string service::renderRequest(const Request &R) {
  std::string Out = "{\n  \"api_version\": ";
  Out += std::to_string(ApiVersion);
  Out += ",\n  \"action\": \"";
  Out += getActionName(R.A);
  Out += '"';
  if (R.A != Action::Check) {
    Out += "\n}";
    return Out;
  }
  Out += ",\n  \"name\": ";
  Out += json::quote(R.Name);
  Out += ",\n  \"source\": ";
  Out += json::quote(R.Source);
  if (!R.Field.empty()) {
    Out += ",\n  \"field\": ";
    Out += json::quote(R.Field);
  }
  if (R.NoCache)
    Out += ",\n  \"no_cache\": true";
  if (R.InjectTripTick) {
    Out += ",\n  \"inject_trip_tick\": ";
    Out += std::to_string(R.InjectTripTick);
    Out += ",\n  \"inject_trip_reason\": \"";
    Out += gov::getBoundReasonName(R.InjectTripReason);
    Out += '"';
  }
  Out += ",\n  \"config\": ";
  Out += config::toJson(R.Cfg);
  Out += "\n}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Response envelopes
//===----------------------------------------------------------------------===//

const char *service::getCacheDispositionName(CacheDisposition D) {
  switch (D) {
  case CacheDisposition::Miss:
    return "miss";
  case CacheDisposition::Hit:
    return "hit";
  case CacheDisposition::Bypass:
    return "bypass";
  }
  return "miss";
}

std::string service::renderCheckEnvelope(CacheDisposition D, uint64_t ServedMs,
                                         std::string_view Core) {
  std::string Out = "{\"api_version\": ";
  Out += std::to_string(ApiVersion);
  Out += ", \"kind\": \"check\", \"cache\": \"";
  Out += getCacheDispositionName(D);
  Out += "\", \"served_ms\": ";
  Out += std::to_string(ServedMs);
  Out += ", \"result\": ";
  Out += Core;
  Out += '}';
  return Out;
}

std::string service::renderSimpleResponse(std::string_view Kind,
                                          std::string_view Message,
                                          std::string_view StatsJson) {
  std::string Out = "{\"api_version\": ";
  Out += std::to_string(ApiVersion);
  Out += ", \"kind\": ";
  Out += json::quote(Kind);
  if (Kind == "error")
    Out += ", \"code\": 2";
  if (!Message.empty()) {
    Out += ", \"message\": ";
    Out += json::quote(Message);
  }
  if (!StatsJson.empty()) {
    Out += ", \"stats\": ";
    Out += StatsJson;
  }
  Out += '}';
  return Out;
}

//===----------------------------------------------------------------------===//
// Framing I/O
//===----------------------------------------------------------------------===//

namespace {

/// Blocking read of exactly \p N bytes in poll slices. \p SawBytes
/// distinguishes a clean pre-frame EOF from a truncated frame. With
/// \p TryFirst, one non-blocking recv takes whatever is already queued
/// before the first poll (a payload usually arrives with its prefix); a
/// descriptor that is not a socket answers ENOTSOCK and is polled.
IoStatus readExact(int Fd, char *Buf, size_t N, bool &SawBytes,
                   std::string &Error, const gov::CancellationToken *Cancel,
                   bool TryFirst = false) {
  size_t Got = 0;
  while (Got != N) {
    if (Cancel && Cancel->isCancelled())
      return IoStatus::Cancelled;
    if (!TryFirst) {
      pollfd P = {Fd, POLLIN, 0};
      int Ready = ::poll(&P, 1, /*timeout_ms=*/100);
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        Error = std::string("poll: ") + std::strerror(errno);
        return IoStatus::Error;
      }
      if (Ready == 0)
        continue; // Timeout slice: loop to re-check the cancel token.
    }
    ssize_t K = TryFirst ? ::recv(Fd, Buf + Got, N - Got, MSG_DONTWAIT)
                         : ::read(Fd, Buf + Got, N - Got);
    TryFirst = false;
    if (K < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ENOTSOCK)
        continue;
      Error = std::string("read: ") + std::strerror(errno);
      return IoStatus::Error;
    }
    if (K == 0)
      return IoStatus::Eof;
    Got += static_cast<size_t>(K);
    SawBytes = true;
  }
  return IoStatus::Ok;
}

} // namespace

IoStatus service::readFrame(int Fd, std::string &Payload, std::string &Error,
                            const gov::CancellationToken *Cancel) {
  unsigned char Prefix[4];
  bool SawBytes = false;
  IoStatus S = readExact(Fd, reinterpret_cast<char *>(Prefix), sizeof(Prefix),
                         SawBytes, Error, Cancel);
  if (S == IoStatus::Eof && SawBytes) {
    Error = "connection closed inside a frame length prefix";
    return IoStatus::Error;
  }
  if (S != IoStatus::Ok)
    return S;
  uint32_t Len = static_cast<uint32_t>(Prefix[0]) |
                 static_cast<uint32_t>(Prefix[1]) << 8 |
                 static_cast<uint32_t>(Prefix[2]) << 16 |
                 static_cast<uint32_t>(Prefix[3]) << 24;
  if (Len > MaxFrameBytes) {
    Error = "frame length " + std::to_string(Len) + " exceeds the " +
            std::to_string(MaxFrameBytes) + "-byte limit";
    return IoStatus::Error;
  }
  Payload.resize(Len);
  if (Len == 0)
    return IoStatus::Ok;
  S = readExact(Fd, Payload.data(), Len, SawBytes, Error, Cancel,
                /*TryFirst=*/true);
  if (S == IoStatus::Eof) {
    Error = "connection closed inside a frame payload";
    return IoStatus::Error;
  }
  return S;
}

bool service::writeFrame(int Fd, std::string_view Payload,
                         std::string &Error) {
  if (Payload.size() > MaxFrameBytes) {
    Error = "frame payload exceeds the " + std::to_string(MaxFrameBytes) +
            "-byte limit";
    return false;
  }
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  unsigned char Prefix[4] = {static_cast<unsigned char>(Len),
                             static_cast<unsigned char>(Len >> 8),
                             static_cast<unsigned char>(Len >> 16),
                             static_cast<unsigned char>(Len >> 24)};
  // Prefix and payload leave in one writev, so a frame costs one system
  // call and one segment; a partial write resumes where it stopped.
  iovec Iov[2] = {{Prefix, sizeof(Prefix)},
                  {const_cast<char *>(Payload.data()), Payload.size()}};
  iovec *Next = Iov;
  int Left = 2;
  while (Left) {
    ssize_t K = ::writev(Fd, Next, Left);
    if (K < 0) {
      if (errno == EINTR || errno == EAGAIN)
        continue;
      Error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    size_t Done = static_cast<size_t>(K);
    for (; Left && Done >= Next->iov_len; ++Next, --Left)
      Done -= Next->iov_len;
    if (Left) {
      Next->iov_base = static_cast<char *>(Next->iov_base) + Done;
      Next->iov_len -= Done;
    }
  }
  return true;
}
