#!/usr/bin/env python3
"""Pins the check records of `kisscheck --zero-timings --report` byte for byte.

    check_records_golden.py <kisscheck> <samples-dir> <golden> <workdir>

Runs kisscheck once per case below, from inside <samples-dir> so record
names are bare file names, and compares the report's check-record lines
(exactly what telemetry::renderCheckRecord emits, one per line) with the
"== <case>" blocks of <golden>. On a mismatch every case's records are
written to <workdir>/kisscheck_records.actual.txt, which is what the golden
file is re-recorded from. Exits 0 when every block matches, 1 otherwise.
"""

import os
import subprocess
import sys
import tempfile

# (block name, kisscheck arguments). Each case's expected exit code is
# kisscheck's contract for that verdict; the golden only pins the records.
CASES = [
    ("assert", ["--max-ts=1", "bank.kiss"]),
    # The delta store moves only arena_bytes: these two pin that --store
    # reaches both the sequential and the conc exploration.
    ("assert_delta", ["--store=delta", "--max-ts=1", "bank.kiss"]),
    ("assert_interp_sampled",
     ["--exec=interp", "--max-ts=1", "--sample-every=64", "--profile",
      "bank.kiss"]),
    ("race_field", ["--race=ACCOUNT.balance", "bank.kiss"]),
    ("race_all", ["--race-all", "bank.kiss"]),
    ("bebop", ["--engine=bebop", "handshake.kiss"]),
    ("conc", ["--engine=conc", "--sample-every=16", "--profile",
              "pingpong.kiss"]),
    ("conc_delta", ["--engine=conc", "--store=delta", "pingpong.kiss"]),
    ("max_states", ["--max-ts=1", "--max-states=100", "bank_fixed.kiss"]),
]


def check_records(kisscheck, samples, args, workdir):
    """Runs one case and returns its report's check-record lines."""
    fd, report = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    try:
        subprocess.run([kisscheck, "--zero-timings", "--report=" + report]
                       + args, cwd=samples, stdout=subprocess.DEVNULL,
                       check=False)
        with open(report, encoding="utf-8") as f:
            lines = f.read().splitlines()
    finally:
        os.remove(report)
    start = lines.index('  "checks": [') + 1
    records = []
    for line in lines[start:]:
        if line.strip() == "]":
            break
        records.append(line.strip().rstrip(","))
    return records


def main(argv):
    if len(argv) != 5:
        sys.stderr.write(__doc__)
        return 2
    kisscheck, samples, golden, workdir = argv[1:]
    kisscheck = os.path.abspath(kisscheck)
    workdir = os.path.abspath(workdir)

    expected, block = {}, None
    with open(golden, encoding="utf-8") as f:
        for line in f.read().splitlines():
            if line.startswith("== "):
                block = line[3:]
                expected[block] = []
            else:
                expected[block].append(line)

    actual, ok = [], True
    for name, args in CASES:
        got = check_records(kisscheck, samples, args, workdir)
        actual += ["== " + name] + got
        if got != expected.get(name):
            ok = False
            print("mismatch in block '%s' (kisscheck %s)" %
                  (name, " ".join(args)))
    if not ok:
        dump = os.path.join(workdir, "kisscheck_records.actual.txt")
        with open(dump, "w", encoding="utf-8") as f:
            f.write("\n".join(actual) + "\n")
        print("wrote " + dump)
        return 1
    print("%d cases match %s" % (len(CASES), golden))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
