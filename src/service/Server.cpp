//===- Server.cpp - The kissd socket front end ----------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <system_error>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace kiss;
using namespace kiss::service;

Server::Server(const ServerOptions &O)
    : Opts(O), Svc({O.Workers, O.CachePath}) {}

Server::~Server() {
  requestShutdown();
  reapConnections(/*All=*/true);
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (!Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
}

bool Server::start(std::string &Error) {
  if (!Svc.cacheLoadError().empty()) {
    Error = Svc.cacheLoadError();
    return false;
  }
  if (!Opts.SocketPath.empty()) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
      Error = "socket path too long: " + Opts.SocketPath;
      return false;
    }
    std::strcpy(Addr.sun_path, Opts.SocketPath.c_str());
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    ::unlink(Opts.SocketPath.c_str()); // Replace a stale socket file.
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) < 0) {
      Error = Opts.SocketPath + ": bind: " + std::strerror(errno);
      return false;
    }
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // Local clients only.
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.Port));
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) < 0) {
      Error = std::string("bind: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound),
                      &Len) == 0)
      BoundPort = ntohs(Bound.sin_port);
  }
  if (::listen(ListenFd, 64) < 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  return true;
}

int Server::serve() {
  const gov::CancellationToken &Tok = Svc.cancelToken();
  while (!Tok.isCancelled()) {
    reapConnections(/*All=*/false);
    pollfd P = {ListenFd, POLLIN, 0};
    int Ready = ::poll(&P, 1, /*timeout_ms=*/100);
    if (Ready < 0) {
      if (errno == EINTR)
        continue; // A signal (SIGTERM) — the loop condition re-checks.
      break;
    }
    if (Ready == 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    auto C = std::make_unique<Connection>();
    try {
      C->Thread = std::thread([this, Fd, Done = &C->Done] {
        handleConnection(Fd);
        *Done = true;
      });
    } catch (const std::system_error &E) {
      // No thread (or no stack mapping) to spare: refuse this client
      // and keep serving the others.
      std::fprintf(stderr, "kissd: dropped a connection: %s\n", E.what());
      ::close(Fd);
      continue;
    }
    Connections.push_back(std::move(C));
    HeldThreads = Connections.size();
  }
  // Drain: every connection notices the token within one poll slice;
  // in-flight checks trip through their governors and still answer.
  reapConnections(/*All=*/true);
  std::string Error;
  if (!Svc.saveCache(Error)) {
    std::fprintf(stderr, "kissd: %s\n", Error.c_str());
    return 2;
  }
  return 0;
}

void Server::reapConnections(bool All) {
  std::erase_if(Connections, [All](const std::unique_ptr<Connection> &C) {
    if (!All && !C->Done)
      return false;
    C->Thread.join();
    return true;
  });
  HeldThreads = Connections.size();
}

void Server::handleConnection(int Fd) {
  const gov::CancellationToken &Tok = Svc.cancelToken();
  std::string Payload, Error;
  for (;;) {
    IoStatus S = readFrame(Fd, Payload, Error, &Tok);
    if (S != IoStatus::Ok) {
      // Eof/Cancelled close silently; a protocol violation gets one
      // best-effort error frame before the close.
      if (S == IoStatus::Error)
        writeFrame(Fd, renderSimpleResponse("error", Error), Error);
      break;
    }
    Request Req;
    std::string Response;
    if (!parseRequest(Payload, "request", Req, Error)) {
      Response = renderSimpleResponse("error", Error);
    } else if (Req.A == Action::Ping) {
      Response = renderSimpleResponse("pong");
    } else if (Req.A == Action::Stats) {
      Response = renderSimpleResponse("stats", {}, Svc.statsJson());
    } else if (Req.A == Action::Shutdown) {
      Response = renderSimpleResponse("bye");
      writeFrame(Fd, Response, Error);
      requestShutdown();
      break;
    } else {
      auto Start = std::chrono::steady_clock::now();
      Reply R = Svc.check(Req);
      auto ServedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - Start)
                          .count();
      Response = renderCheckEnvelope(
          R.Cache, static_cast<uint64_t>(ServedMs), R.Core);
    }
    if (!writeFrame(Fd, Response, Error))
      break;
  }
  ::close(Fd);
}
