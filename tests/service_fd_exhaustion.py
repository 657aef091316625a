#!/usr/bin/env python3
"""Descriptor exhaustion must not make kissd's accept loop spin.

    service_fd_exhaustion.py <kissd> <workdir>

Starts kissd with a descriptor limit of FD_LIMIT and connects FD_LIMIT
idle clients, more than the daemon can accept: once its descriptors run
out, accept() fails with EMFILE while the pending connections keep the
listening socket readable. The daemon must back off rather than poll
again at once, so over QUIET_SECONDS it may use at most MAX_CPU_SECONDS
of CPU (utime + stime from /proc/<pid>/stat). Then the clients close and
SIGTERM must still drain the daemon to exit 0. Exits 0 when all of that
holds, 1 otherwise.
"""

import os
import signal
import socket
import subprocess
import sys
import time

FD_LIMIT = 14
QUIET_SECONDS = 2.0
MAX_CPU_SECONDS = 0.2


def cpu_seconds(pid):
    with open("/proc/%d/stat" % pid) as f:
        # Fields after the parenthesised command name start at field 3;
        # utime and stime are fields 14 and 15, in clock ticks.
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def limit_descriptors():
    import resource
    resource.setrlimit(resource.RLIMIT_NOFILE, (FD_LIMIT, FD_LIMIT))


def main():
    kissd, workdir = sys.argv[1], sys.argv[2]
    os.makedirs(workdir, exist_ok=True)
    sock_path = os.path.join(workdir, "fd_exhaustion.sock")
    if os.path.exists(sock_path):
        os.unlink(sock_path)
    daemon = subprocess.Popen([kissd, "--socket=" + sock_path],
                              preexec_fn=limit_descriptors)
    clients = []
    try:
        for _ in range(100):
            if os.path.exists(sock_path) or daemon.poll() is not None:
                break
            time.sleep(0.1)
        if not os.path.exists(sock_path):
            print("service_fd_exhaustion: daemon never listened")
            return 1
        if not os.path.exists("/proc/%d/stat" % daemon.pid):
            print("service_fd_exhaustion: no /proc; skipping")
            return 0

        for _ in range(FD_LIMIT):
            c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            c.connect(sock_path)  # Queued in the backlog if not accepted.
            clients.append(c)
        time.sleep(0.5)  # Let the daemon accept what it can.

        before = cpu_seconds(daemon.pid)
        time.sleep(QUIET_SECONDS)
        used = cpu_seconds(daemon.pid) - before
        print("service_fd_exhaustion: %.2f CPU-s in %.0f s with %d idle "
              "clients under a limit of %d descriptors (gate: < %.2f)"
              % (used, QUIET_SECONDS, len(clients), FD_LIMIT,
                 MAX_CPU_SECONDS))
        ok = used < MAX_CPU_SECONDS

        for c in clients:
            c.close()
        clients = []
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(timeout=30)
        if code != 0:
            print("service_fd_exhaustion: daemon exited %d after SIGTERM"
                  % code)
            ok = False
        return 0 if ok else 1
    finally:
        for c in clients:
            c.close()
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    sys.exit(main())
