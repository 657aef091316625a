//===- kissd.cpp - The KISS checking daemon -------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checking as a service: a long-lived daemon running sequential checks
/// behind the framed request protocol of docs/service.md, with a
/// persistent result cache that survives restarts.
///
///   kissd --socket=/tmp/kiss.sock                 serve on a Unix socket
///   kissd --port=0 --port-file=port.txt           ephemeral TCP port,
///                                                 written for clients
///   kissd --workers=4 --cache=results.bin ...     4 checks at once +
///                                                 snapshot
///
/// SIGINT/SIGTERM drain: in-flight checks trip their governors and still
/// answer (degraded bound responses), idle connections close, the cache
/// snapshot is saved, and the daemon exits 0. Exit 2 covers startup and
/// final-snapshot I/O failures.
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/Cli.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace kiss;

namespace {

service::Server *ActiveServer = nullptr;

/// Only sets the service's atomic cancel token; every poll loop notices
/// within one 100ms slice.
extern "C" void handleTerminationSignal(int) {
  if (ActiveServer)
    ActiveServer->requestShutdown();
}

struct DaemonOptions {
  std::string SocketPath;
  int Port = -1; ///< -1 = not requested; 0 = ephemeral.
  std::string PortFile;
  unsigned Workers = 1;
  std::string CachePath;
};

cli::ArgParser makeParser(DaemonOptions &Opts) {
  cli::ArgParser P("usage: kissd (--socket=<path> | --port=<n>) [options]");
  P.flag("socket", Opts.SocketPath, "<path>",
         "serve on a Unix-domain socket at <path> (replaces a\n"
         "stale socket file; removed on exit)");
  P.custom("port", "<n>",
           "serve on TCP 127.0.0.1:<n>; 0 picks an ephemeral port\n"
           "(see --port-file)",
           [&Opts](const std::string &V, std::string &E) {
             char *End = nullptr;
             unsigned long N = std::strtoul(V.c_str(), &End, 10);
             if (V.empty() || End == V.c_str() || *End != '\0' ||
                 N > 65535) {
               E = "--port needs a port number (0-65535)";
               return false;
             }
             Opts.Port = static_cast<int>(N);
             return true;
           });
  P.flag("port-file", Opts.PortFile, "<path>",
         "write the resolved TCP port to <path> once listening\n"
         "(atomic rename; the handshake for --port=0)");
  P.flagPositive("workers", Opts.Workers, "<n>",
                 "how many checks may explore at once (default 1);\n"
                 "each runs on its connection's thread");
  P.flag("cache", Opts.CachePath, "<path>",
         "persistent result cache: load the snapshot at startup,\n"
         "save it on shutdown (see docs/service.md for the\n"
         "caching policy)");
  P.footer("exit codes: 0 clean shutdown (including signal drain); 2\n"
           "usage/startup/IO problem");
  return P;
}

bool writePortFile(const std::string &Path, int Port) {
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fprintf(F, "%d\n", Port) > 0;
  Ok &= std::fclose(F) == 0;
  Ok &= std::rename(Tmp.c_str(), Path.c_str()) == 0;
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Opts;
  cli::ArgParser Parser = makeParser(Opts);
  if (!Parser.parse(Argc, Argv) ||
      (Opts.SocketPath.empty() && Opts.Port < 0)) {
    std::fprintf(stderr, "%s", Parser.usage().c_str());
    return cli::ExitUsage;
  }

  service::ServerOptions SO;
  SO.SocketPath = Opts.SocketPath;
  SO.Port = Opts.Port < 0 ? 0 : Opts.Port;
  SO.Workers = Opts.Workers;
  SO.CachePath = Opts.CachePath;

  service::Server Server(SO);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "kissd: %s\n", Error.c_str());
    return cli::ExitUsage;
  }

  if (!Opts.PortFile.empty() &&
      !writePortFile(Opts.PortFile, Server.port())) {
    std::fprintf(stderr, "kissd: cannot write port file '%s'\n",
                 Opts.PortFile.c_str());
    return cli::ExitUsage;
  }

  ActiveServer = &Server;
  std::signal(SIGINT, handleTerminationSignal);
  std::signal(SIGTERM, handleTerminationSignal);
  std::signal(SIGPIPE, SIG_IGN); // A vanished client is its own problem.

  if (!Opts.SocketPath.empty())
    std::fprintf(stderr, "kissd: listening on %s (%u workers)\n",
                 Opts.SocketPath.c_str(), Server.service().workers());
  else
    std::fprintf(stderr, "kissd: listening on 127.0.0.1:%d (%u workers)\n",
                 Server.port(), Server.service().workers());

  int Code = Server.serve();
  ActiveServer = nullptr;
  return Code;
}
