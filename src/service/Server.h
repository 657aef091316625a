//===- Server.h - The kissd socket front end --------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Connection plumbing around CheckService: bind a Unix-domain or local
/// TCP socket, accept connections, run one thread per connection that
/// reads frames, answers control actions (ping/stats/shutdown) inline,
/// and blocks on the service for check requests. The accept loop joins
/// finished connection threads as it goes, so a long-lived daemon holds
/// threads (and their stacks) only for open connections; a connection
/// whose thread cannot start is closed and serving goes on. Shutdown —
/// the shutdown action, SIGTERM via requestShutdown(), or destruction —
/// is a drain: the cancel token trips in-flight explorations (they
/// complete with degraded bound responses that still reach their
/// clients), idle connections close at their next poll slice, and the
/// cache snapshot is written before serve() returns.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SERVICE_SERVER_H
#define KISS_SERVICE_SERVER_H

#include "service/Service.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace kiss::service {

struct ServerOptions {
  /// Unix-domain socket path. Takes precedence over Port when set; an
  /// existing file at the path is replaced.
  std::string SocketPath;
  /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (read it back with port()). Ignored when SocketPath is set.
  int Port = 0;
  unsigned Workers = 1;
  std::string CachePath; ///< Result-cache snapshot; empty = memory only.
};

class Server {
public:
  explicit Server(const ServerOptions &O);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens. \returns false with \p Error set on failure
  /// (including a failed cache-snapshot load — never run silently cold).
  bool start(std::string &Error);

  /// The resolved TCP port (after start(); 0 for Unix sockets).
  int port() const { return BoundPort; }

  /// Serves until shutdown is requested, then drains: joins connection
  /// threads, saves the cache snapshot. \returns a process exit code
  /// (0 clean, 2 on I/O failure during the final snapshot save).
  int serve();

  /// Async-signal-tolerant shutdown trigger (only sets an atomic token).
  void requestShutdown() { Svc.cancelToken().requestCancel(); }

  CheckService &service() { return Svc; }

  /// Connection threads started and not yet joined.
  size_t connectionThreads() const { return HeldThreads; }

private:
  struct Connection {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };

  void handleConnection(int Fd);
  /// Joins the connection threads that have finished, or all of them.
  void reapConnections(bool All);

  ServerOptions Opts;
  CheckService Svc;
  int ListenFd = -1;
  int BoundPort = 0;
  std::vector<std::unique_ptr<Connection>> Connections;
  std::atomic<size_t> HeldThreads{0};
};

} // namespace kiss::service

#endif // KISS_SERVICE_SERVER_H
