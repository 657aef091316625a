#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload <paper_tables|kissd_stream> --seed <n> --seconds <s> --trace <0|1>

Builds the checker libraries, the kissd daemon and the kissbench harness
from this checkout (CMake, into $CARGO_TARGET_DIR or .bench_build; a no-op
once built), then runs the workload. Every metric is printed by name and
unit; the last stdout line is the result JSON. Build output goes to stderr.
Exit status: 0 all answers right, 1 a wrong answer, 2 the run could not be
made (no sources, build failure, more load than nproc).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_tables", "kissd_stream")


def build(build_dir):
    """Configures (once) and builds kissbench and kissd; False on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "kissbench",
           "kissd"]
    return subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2

    # Spans, the kissd log and its socket live here; relative to the
    # checkout so the socket path stays short.
    work = os.path.join(build_dir, "runs",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(build_dir, "kissbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--repo-root", ".", "--work-dir", os.path.relpath(work, ROOT),
           "--kissd", os.path.join(build_dir, "kissd")]
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
