#!/usr/bin/env python3
"""Compare two kiss-telemetry bench reports and flag regressions.

The bench binaries (microbench --json-only, table1_races, table2_refined,
scalability) all emit the same envelope through telemetry::writeReport:

    {"schema_version": 5, "kind": "kiss-telemetry-report",
     "interrupted": false, "meta": {...}, "counters": {...},
     "phases": [{"name", "wall_ms", "counters"}, ...],
     "checks": [{"name", "outcome", "wall_ms", "states", ...,
                 "exec_engine", "engine", "states_per_sec", "series",
                 "profile", "bound_reason"}, ...]}

Only schema v5 (docs/observability.md) is accepted; every field above is
required on every check. Besides the exploration counts, a check carries
the visited-set index statistics ("hash_probes", "key_verifies",
"hash_collisions"), the summary engine's saturation counts ("path_edges",
"summary_edges"; 0 under the explicit-state engines), the execution
engine and check backend that produced it ("exec_engine", "engine"), the
"series" exploration time-series and the "profile" per-line hot-path
table.
"states_per_sec" is timing-derived and is never diffed against a baseline;
it is gated through --check-floor / --check-speed-ratio instead. "series"
is validated for shape but never diffed (its sampling stride is a run
setting, not a behavior). "profile" rows are matched by (file, line) and
their counts diffed like any other deterministic field; wall clock never
enters the profile comparison.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [--threshold=0.20] [--counts-only]
    bench_diff.py --validate REPORT.json
    bench_diff.py --gate REPORT.json [GATE]...
    bench_diff.py --selftest

Default mode diffs both wall-clock phase timings and the deterministic
exploration counts, exiting 1 if anything regressed by more than the
threshold (20% by default). --counts-only restricts the comparison to the
deterministic fields (states, transitions, dedup hits, counter values) so
it is safe to run on shared CI machines where timings are noisy; the CTest
guard uses this mode. --validate checks a single report against the
envelope expected by this script (used to gate kisscheck --report output),
including that a check which explored states or path edges names its
check backend ("engine" is not "none").
--selftest exercises the comparison logic on built-in fixtures.

--gate evaluates absolute/relative assertions against ONE report's checks
(matched by check name, which must not contain ':'):

    --check-floor 'NAME:MIN'         states_per_sec of NAME >= MIN
    --check-speed-ratio 'A:B:MIN'    states_per_sec(A) >= MIN * states_per_sec(B)
    --check-arena-ratio 'A:B:MAX'    arena_bytes(A) <= MAX * arena_bytes(B)
    --check-wall-ratio 'A:B:MAX'     wall_ms(A) <= MAX * wall_ms(B)
    --check-states-equal 'A:B'       states(A) == states(B)

Ratio gates compare two checks of the same run, so they self-normalize
machine-speed drift; the floor gate is an absolute tripwire and should be
set with generous margin for shared hardware.

Exit codes: 0 ok, 1 regression/validation/gate failure, 2 usage/IO error.
"""

import json
import sys

SCHEMA_VERSION = 5
KIND = "kiss-telemetry-report"

# Deterministic per-check fields: identical across runs and --jobs settings
# for the same binary, so any change is a real behavior change, not noise.
COUNT_FIELDS = ("states", "transitions", "dedup_hits", "hash_probes",
                "key_verifies", "hash_collisions", "arena_bytes",
                "index_bytes", "frontier_peak", "depth_max", "path_edges",
                "summary_edges")

# Per-check identities: a silent change on a named check (outcome, bound
# reason, execution engine, check backend) is a behavior change, not noise.
IDENTITY_FIELDS = ("outcome", "bound_reason", "exec_engine", "engine")

# Shape of one "series" point (wall_ms is timing and never diffed) and
# one "profile" row (the counts are deterministic and diffed by
# (file, line)).
SERIES_INT_FIELDS = ("states", "transitions", "dedup_hits", "frontier",
                     "arena_bytes", "index_bytes", "depth_max")
PROFILE_COUNT_FIELDS = ("states", "transitions", "dedup_hits")


def fail_usage(msg):
    sys.stderr.write("bench_diff: %s\n" % msg)
    sys.stderr.write("usage: bench_diff.py BASELINE.json CURRENT.json "
                     "[--threshold=F] [--counts-only]\n"
                     "       bench_diff.py --validate REPORT.json\n"
                     "       bench_diff.py --selftest\n")
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write("bench_diff: cannot read %s: %s\n" % (path, e))
        sys.exit(2)


def validate(report, where="report"):
    """Checks the envelope; returns a list of problems (empty if valid)."""
    problems = []
    if not isinstance(report, dict):
        return ["%s: not a JSON object" % where]
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append("%s: schema_version is %r, expected %d"
                        % (where, report.get("schema_version"),
                           SCHEMA_VERSION))
    if not isinstance(report.get("interrupted"), bool):
        problems.append("%s: 'interrupted' is not a bool" % where)
    if report.get("kind") != KIND:
        problems.append("%s: kind is %r, expected %r"
                        % (where, report.get("kind"), KIND))
    for key in ("meta", "counters"):
        if not isinstance(report.get(key), dict):
            problems.append("%s: missing object field %r" % (where, key))
    for key in ("phases", "checks"):
        if not isinstance(report.get(key), list):
            problems.append("%s: missing array field %r" % (where, key))
    for i, p in enumerate(report.get("phases") or []):
        for field, ty in (("name", str), ("wall_ms", (int, float)),
                          ("counters", dict)):
            if not isinstance(p.get(field), ty):
                problems.append("%s: phases[%d] bad field %r" % (where, i, field))
    for i, c in enumerate(report.get("checks") or []):
        typed = ([("name", str), ("wall_ms", (int, float)),
                  ("states_per_sec", int)] +
                 [(f, int) for f in COUNT_FIELDS] +
                 [(f, str) for f in IDENTITY_FIELDS])
        for field, ty in typed:
            if not isinstance(c.get(field), ty):
                problems.append("%s: checks[%d] bad field %r" % (where, i, field))
        if not isinstance(c.get("series"), list):
            problems.append("%s: checks[%d] 'series' is not an array"
                            % (where, i))
        else:
            for j, s in enumerate(c["series"]):
                for field in SERIES_INT_FIELDS:
                    if not isinstance(s.get(field), int):
                        problems.append(
                            "%s: checks[%d] series[%d] bad field %r"
                            % (where, i, j, field))
                if not isinstance(s.get("wall_ms"), (int, float)):
                    problems.append(
                        "%s: checks[%d] series[%d] bad field 'wall_ms'"
                        % (where, i, j))
        if not isinstance(c.get("profile"), list):
            problems.append("%s: checks[%d] 'profile' is not an array"
                            % (where, i))
        else:
            for j, row in enumerate(c["profile"]):
                if not isinstance(row.get("file"), str):
                    problems.append(
                        "%s: checks[%d] profile[%d] bad field 'file'"
                        % (where, i, j))
                for field in ("line",) + PROFILE_COUNT_FIELDS:
                    if not isinstance(row.get(field), int):
                        problems.append(
                            "%s: checks[%d] profile[%d] bad field %r"
                            % (where, i, j, field))
        # Only records that explore nothing (fuzz findings, synthetic
        # latency records) may lack a check backend.
        if c.get("engine") == "none" and any(
                isinstance(c.get(f), int) and c[f] > 0
                for f in ("states", "path_edges")):
            problems.append("%s: checks[%d] explored states under engine "
                            "'none'" % (where, i))
    return problems


def ratio_regressed(base, cur, threshold):
    """True if cur regressed (grew) past base by more than threshold."""
    if base == 0:
        return cur > 0
    return (cur - base) / base > threshold


def compare(base, cur, threshold, counts_only):
    """Returns (regressions, notes): lists of human-readable lines."""
    regressions = []
    notes = []

    # Top-level counters: deterministic, any growth past threshold flags.
    bc, cc = base.get("counters", {}), cur.get("counters", {})
    for name in sorted(set(bc) & set(cc)):
        if ratio_regressed(bc[name], cc[name], threshold):
            regressions.append("counter %s: %d -> %d" % (name, bc[name], cc[name]))
    for name in sorted(set(bc) ^ set(cc)):
        notes.append("counter %s only in %s" %
                     (name, "baseline" if name in bc else "current"))

    # Per-check deterministic counts, matched by check name.
    bchecks = {c["name"]: c for c in base.get("checks", [])}
    cchecks = {c["name"]: c for c in cur.get("checks", [])}
    for name in sorted(set(bchecks) & set(cchecks)):
        b, c = bchecks[name], cchecks[name]
        for field in IDENTITY_FIELDS:
            if b[field] != c[field]:
                regressions.append("check %s: %s %s -> %s"
                                   % (name, field, b[field], c[field]))
        for field in COUNT_FIELDS:
            if ratio_regressed(b[field], c[field], threshold):
                regressions.append("check %s: %s %d -> %d"
                                   % (name, field, b[field], c[field]))
        # Profiles: counts only, matched by (file, line). Rows present on
        # one side only are noted, not flagged (a new hot line is usually
        # a workload change, which the states diff already sees).
        if b["profile"] and c["profile"]:
            brows = {(r["file"], r["line"]): r for r in b["profile"]}
            crows = {(r["file"], r["line"]): r for r in c["profile"]}
            for key in sorted(set(brows) & set(crows)):
                for field in PROFILE_COUNT_FIELDS:
                    if ratio_regressed(brows[key][field], crows[key][field],
                                       threshold):
                        regressions.append(
                            "check %s: profile %s:%d %s %d -> %d"
                            % (name, key[0], key[1], field,
                               brows[key][field], crows[key][field]))
            for key in sorted(set(brows) ^ set(crows)):
                notes.append("check %s: profile row %s:%d only in %s"
                             % (name, key[0], key[1],
                                "baseline" if key in brows else "current"))
        if not counts_only and ratio_regressed(b["wall_ms"], c["wall_ms"],
                                               threshold):
            regressions.append("check %s: wall_ms %.3f -> %.3f"
                               % (name, b["wall_ms"], c["wall_ms"]))
    for name in sorted(set(bchecks) ^ set(cchecks)):
        notes.append("check %s only in %s" %
                     (name, "baseline" if name in bchecks else "current"))

    # Phase wall times: timing-noise-prone, skipped under --counts-only.
    if not counts_only:
        bphases = {p["name"]: p for p in base.get("phases", [])}
        cphases = {p["name"]: p for p in cur.get("phases", [])}
        for name in sorted(set(bphases) & set(cphases)):
            if ratio_regressed(bphases[name].get("wall_ms", 0.0),
                               cphases[name].get("wall_ms", 0.0), threshold):
                regressions.append(
                    "phase %s: wall_ms %.3f -> %.3f"
                    % (name, bphases[name]["wall_ms"], cphases[name]["wall_ms"]))
        for name in sorted(set(bphases) ^ set(cphases)):
            notes.append("phase %s only in %s" %
                         (name, "baseline" if name in bphases else "current"))

    return regressions, notes


def split_gate(spec, nparts, flag):
    """Splits 'A:B[:N]' on ':'; check names must not contain ':'."""
    parts = spec.split(":")
    if len(parts) != nparts:
        fail_usage("%s expects %d ':'-separated parts, got %r"
                   % (flag, nparts, spec))
    return parts


def run_gates(report, gates):
    """Evaluates (kind, spec) gates against one report's checks. Returns a
    list of human-readable failures (empty if every gate holds)."""
    checks = {c["name"]: c for c in report.get("checks", [])}
    failures = []

    def get(name, field, flag):
        if name not in checks:
            failures.append("%s: no check named %r in report" % (flag, name))
            return None
        if field not in checks[name]:
            failures.append("%s: check %r has no %r field"
                            % (flag, name, field))
            return None
        return checks[name][field]

    for kind, spec in gates:
        if kind == "floor":
            name, floor = split_gate(spec, 2, "--check-floor")
            got = get(name, "states_per_sec", "--check-floor")
            if got is not None and got < float(floor):
                failures.append("--check-floor %s: states_per_sec %d < %s"
                                % (name, got, floor))
        elif kind == "speed-ratio":
            a, b, ratio = split_gate(spec, 3, "--check-speed-ratio")
            va = get(a, "states_per_sec", "--check-speed-ratio")
            vb = get(b, "states_per_sec", "--check-speed-ratio")
            if va is not None and vb is not None and va < float(ratio) * vb:
                failures.append(
                    "--check-speed-ratio %s vs %s: %d < %s * %d"
                    % (a, b, va, ratio, vb))
        elif kind == "arena-ratio":
            a, b, ratio = split_gate(spec, 3, "--check-arena-ratio")
            va = get(a, "arena_bytes", "--check-arena-ratio")
            vb = get(b, "arena_bytes", "--check-arena-ratio")
            if va is not None and vb is not None and va > float(ratio) * vb:
                failures.append(
                    "--check-arena-ratio %s vs %s: %d > %s * %d"
                    % (a, b, va, ratio, vb))
        elif kind == "wall-ratio":
            # Same-run wall-clock ratio: both sides move with machine
            # speed, so the gate is stable on shared hardware (used for
            # the kissd cache-hit-vs-cold-check latency bound).
            a, b, ratio = split_gate(spec, 3, "--check-wall-ratio")
            va = get(a, "wall_ms", "--check-wall-ratio")
            vb = get(b, "wall_ms", "--check-wall-ratio")
            if va is not None and vb is not None and va > float(ratio) * vb:
                failures.append(
                    "--check-wall-ratio %s vs %s: %.3f > %s * %.3f"
                    % (a, b, va, ratio, vb))
        elif kind == "states-equal":
            a, b = split_gate(spec, 2, "--check-states-equal")
            va = get(a, "states", "--check-states-equal")
            vb = get(b, "states", "--check-states-equal")
            if va is not None and vb is not None and va != vb:
                failures.append("--check-states-equal %s vs %s: %d != %d"
                                % (a, b, va, vb))
    return failures


def selftest():
    def report(states, wall, counters=None):
        return {
            "schema_version": SCHEMA_VERSION, "kind": KIND,
            "interrupted": False, "meta": {}, "counters": counters or {},
            "phases": [{"name": "explore", "wall_ms": wall, "counters": {}}],
            "checks": [{
                "name": "c", "outcome": "safe", "wall_ms": wall,
                "states": states, "transitions": states * 2,
                "dedup_hits": 1, "hash_probes": 2000, "key_verifies": 1500,
                "hash_collisions": 2, "arena_bytes": 64, "index_bytes": 32,
                "frontier_peak": 4, "depth_max": 8, "path_edges": 0,
                "summary_edges": 0, "exec_engine": "threaded",
                "engine": "seq", "states_per_sec": 1000000,
                "series": [
                    {"states": 512, "transitions": 1000, "dedup_hits": 0,
                     "frontier": 40, "arena_bytes": 32, "index_bytes": 16,
                     "depth_max": 6, "wall_ms": 1.5}],
                "profile": [
                    {"file": "a.kiss", "line": 3, "states": 600,
                     "transitions": 1200, "dedup_hits": 1},
                    {"file": "<synthetic>", "line": 0, "states": 400,
                     "transitions": 800, "dedup_hits": 0}],
                "bound_reason": "none"}],
        }

    def check(r):
        return r["checks"][0]

    base = report(1000, 10.0)
    cases = [
        # (current, counts_only, expect_regressions)
        (report(1000, 10.0), False, False),   # identical
        (report(1100, 10.0), False, False),   # +10% states, under threshold
        (report(1300, 10.0), True, True),     # +30% states regresses
        (report(1000, 14.0), False, True),    # +40% time regresses
        (report(1000, 14.0), True, False),    # ... unless counts-only
        (report(1000, 10.0, {"races": 40}), True, True),  # counter growth
    ]
    base["counters"] = {"races": 30}
    ok = True
    for i, (cur, counts_only, expect) in enumerate(cases):
        cur.setdefault("counters", {})
        if "races" not in cur["counters"]:
            cur["counters"]["races"] = 30
        regs, _ = compare(base, cur, 0.20, counts_only)
        got = bool(regs)
        if got != expect:
            ok = False
            sys.stderr.write("selftest case %d: expected %s, got %s (%s)\n"
                             % (i, expect, got, regs))

    def expect_invalid(r, what):
        nonlocal ok
        if not validate(r):
            ok = False
            sys.stderr.write("selftest: %s accepted\n" % what)

    probs = validate(report(1, 1.0))
    if probs:
        ok = False
        sys.stderr.write("selftest: valid report rejected: %s\n" % probs)
    expect_invalid({"schema_version": 99}, "invalid report")
    old = report(1, 1.0)
    old["schema_version"] = 4
    expect_invalid(old, "schema v4 report")
    bad = report(1, 1.0)
    check(bad)["series"][0]["frontier"] = "forty"
    expect_invalid(bad, "malformed series")
    bad = report(1, 1.0)
    del check(bad)["profile"][0]["line"]
    expect_invalid(bad, "malformed profile")
    bad = report(1, 1.0)
    check(bad)["summary_edges"] = "eight"
    expect_invalid(bad, "malformed summary_edges")
    bad = report(1, 1.0)
    del check(bad)["engine"]
    expect_invalid(bad, "check without an engine")
    bad = report(1, 1.0)
    check(bad).update(engine="none", exec_engine="none")
    expect_invalid(bad, "states under engine 'none'")
    bad = report(0, 1.0)
    check(bad).update(engine="none", exec_engine="none", path_edges=3)
    expect_invalid(bad, "path edges under engine 'none'")
    finding = report(0, 1.0)
    check(finding).update(engine="none", exec_engine="none")
    probs = validate(finding)
    if probs:
        ok = False
        sys.stderr.write("selftest: record without exploration under "
                         "engine 'none' rejected: %s\n" % probs)

    def expect_diff(mutate, flagged, what):
        nonlocal ok
        cur = report(1000, 10.0)
        mutate(check(cur))
        regs, _ = compare(report(1000, 10.0), cur, 0.20, True)
        if bool(regs) != flagged:
            ok = False
            sys.stderr.write("selftest: %s %s: %s\n"
                             % (what, "not flagged" if flagged else "flagged",
                                regs))

    # Identity swaps and deterministic-count growth flag; throughput
    # swings (gated, not diffed) and series changes (a sampling-stride
    # artifact) never do.
    expect_diff(lambda c: c.update(bound_reason="deadline"), True,
                "bound_reason change")
    expect_diff(lambda c: c.update(exec_engine="interp"), True,
                "exec_engine change")
    expect_diff(lambda c: c.update(engine="bebop"), True, "engine change")
    expect_diff(lambda c: c.update(hash_probes=4000), True,
                "hash_probes growth")
    expect_diff(lambda c: c.update(path_edges=1300), True,
                "path_edges growth")
    expect_diff(lambda c: c["profile"][0].update(states=900), True,
                "profile count growth")
    expect_diff(lambda c: c.update(states_per_sec=10), False,
                "states_per_sec swing")
    expect_diff(lambda c: c.update(series=[]), False, "series change")
    # A profile row on one side only is a note, not a regression.
    cur = report(1000, 10.0)
    check(cur)["profile"].append(
        {"file": "b.kiss", "line": 9, "states": 1, "transitions": 1,
         "dedup_hits": 0})
    regs, nts = compare(report(1000, 10.0), cur, 0.20, True)
    if regs or not any("only in current" in n for n in nts):
        ok = False
        sys.stderr.write("selftest: one-sided profile row mishandled\n")
    # Gates: floor, same-run ratios, and state-count equality.
    g = report(1000, 10.0)
    g["checks"].append(dict(g["checks"][0], name="c [interp]",
                            exec_engine="interp", states_per_sec=400000))
    g["checks"].append(dict(g["checks"][0], name="c [delta]",
                            arena_bytes=24, states_per_sec=900000))
    g["checks"].append(dict(g["checks"][0], name="c [hot]", wall_ms=0.5))
    gate_cases = [
        ([("floor", "c:500000")], False),
        ([("floor", "c:2000000")], True),
        ([("floor", "missing:1")], True),
        ([("speed-ratio", "c:c [interp]:2.0")], False),
        ([("speed-ratio", "c:c [interp]:3.0")], True),
        ([("arena-ratio", "c [delta]:c:0.5")], False),
        ([("arena-ratio", "c [delta]:c:0.25")], True),
        ([("states-equal", "c [delta]:c")], False),
        ([("wall-ratio", "c [hot]:c:0.1")], False),
        ([("wall-ratio", "c [hot]:c:0.01")], True),
        ([("wall-ratio", "c [hot]:missing:0.1")], True),
    ]
    for i, (gates, expect_fail) in enumerate(gate_cases):
        fails = run_gates(g, gates)
        if bool(fails) != expect_fail:
            ok = False
            sys.stderr.write("selftest gate case %d: expected %s, got %s\n"
                             % (i, expect_fail, fails))
    print("selftest %s" % ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if "--selftest" in argv:
        return selftest()

    if argv and argv[0] == "--validate":
        if len(argv) != 2:
            fail_usage("--validate takes exactly one report")
        problems = validate(load(argv[1]), argv[1])
        for p in problems:
            sys.stderr.write("bench_diff: %s\n" % p)
        if not problems:
            print("%s: valid %s (schema v%r)"
                  % (argv[1], KIND, load(argv[1]).get("schema_version")))
        return 1 if problems else 0

    if argv and argv[0] == "--gate":
        if len(argv) < 2:
            fail_usage("--gate needs a report and at least one check")
        report = load(argv[1])
        problems = validate(report, argv[1])
        if problems:
            for p in problems:
                sys.stderr.write("bench_diff: %s\n" % p)
            return 1
        gates = []
        rest = argv[2:]
        flags = {"--check-floor": "floor",
                 "--check-speed-ratio": "speed-ratio",
                 "--check-arena-ratio": "arena-ratio",
                 "--check-wall-ratio": "wall-ratio",
                 "--check-states-equal": "states-equal"}
        i = 0
        while i < len(rest):
            if rest[i] in flags:
                if i + 1 == len(rest):
                    fail_usage("%s needs an argument" % rest[i])
                gates.append((flags[rest[i]], rest[i + 1]))
                i += 2
            else:
                fail_usage("unknown gate flag %r" % rest[i])
        if not gates:
            fail_usage("--gate needs at least one check")
        failures = run_gates(report, gates)
        for f in failures:
            print("GATE FAILED: %s" % f)
        if not failures:
            print("ok: %d gate(s) hold" % len(gates))
        return 1 if failures else 0

    threshold = 0.20
    counts_only = False
    paths = []
    for a in argv:
        if a.startswith("--threshold="):
            try:
                threshold = float(a.split("=", 1)[1])
            except ValueError:
                fail_usage("bad threshold %r" % a)
            if threshold <= 0:
                fail_usage("threshold must be positive")
        elif a == "--counts-only":
            counts_only = True
        elif a.startswith("-"):
            fail_usage("unknown flag %r" % a)
        else:
            paths.append(a)
    if len(paths) != 2:
        fail_usage("expected BASELINE.json and CURRENT.json")

    base, cur = load(paths[0]), load(paths[1])
    problems = validate(base, paths[0]) + validate(cur, paths[1])
    if problems:
        for p in problems:
            sys.stderr.write("bench_diff: %s\n" % p)
        return 1

    regressions, notes = compare(base, cur, threshold, counts_only)
    for n in notes:
        print("note: %s" % n)
    if regressions:
        print("REGRESSIONS (> %d%%):" % round(threshold * 100))
        for r in regressions:
            print("  %s" % r)
        return 1
    print("ok: no regression past %d%% (%s)"
          % (round(threshold * 100),
             "counts only" if counts_only else "counts + timings"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
