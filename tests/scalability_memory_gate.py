#!/usr/bin/env python3
"""Gates the scalability bench's peak RSS against what its governor counts.

    scalability_memory_gate.py <scalability> <workdir> <max-ratio>

Runs the scalability bench inside <workdir>, reads the "conc k=6" check
record of the BENCH_scalability.json it writes and the max_rss_mb of its
last stdout line (getrusage), and requires

    peak RSS <= <max-ratio> x (arena_bytes + index_bytes + 16 x states)

where the right-hand factor is the memory the resource governor counts
for that check: the visited-set store plus one 16-byte parent link per
state. conc k=6 is by far the largest search of the run, so the process
peak is its peak. Exits 0 when the gate holds, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

CHECK = "conc k=6"
PARENT_LINK_BYTES = 16


def main():
    bench, workdir, max_ratio = sys.argv[1], sys.argv[2], float(sys.argv[3])
    os.makedirs(workdir, exist_ok=True)
    out = subprocess.run([bench], cwd=workdir, check=True,
                         capture_output=True, text=True).stdout
    rss_mb = float(re.search(r"max_rss_mb=([0-9.]+)",
                             out.strip().splitlines()[-1]).group(1))
    with open(os.path.join(workdir, "BENCH_scalability.json")) as f:
        checks = json.load(f)["checks"]
    c = next(c for c in checks if c["name"] == CHECK)
    governed = (c["arena_bytes"] + c["index_bytes"] +
                PARENT_LINK_BYTES * c["states"])
    ratio = rss_mb * 1024 * 1024 / governed
    print("%s: %d states, governor %.1f MiB, peak RSS %.1f MiB, "
          "ratio %.3f (gate: <= %.2f)"
          % (CHECK, c["states"], governed / 2**20, rss_mb, ratio, max_ratio))
    return 0 if ratio <= max_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
