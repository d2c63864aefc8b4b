#!/usr/bin/env python3
"""bench_compare: gate a capsim-bench report against a committed baseline.

Compares a current BENCH_*.json (see tools/capsim_bench.cpp) with a baseline
(normally the committed BENCH_seed.json) and fails when:

  * total wall-clock regressed by more than --max-ratio (default 2.0), or
  * any simulated cycle count differs (cycle counts are machine-independent,
    so a mismatch is a determinism regression, not a perf one), or
  * any run's signature digest differs, when both reports carry digests
    (the digest covers every counter and RunningStat of the run; a note is
    printed when the baseline predates digests), or
  * the current report recorded failed runs.

The wall-clock gate is deliberately loose (2x): CI machines differ from the
machine that produced the seed, and the gate exists to catch order-of-
magnitude regressions (an accidental O(n^2) scan, a de-allocation fix
reverted), not small scheduling noise.

Exit status: 0 pass, 1 fail, 2 usage/format error.
Dependency-free: Python 3 standard library only.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print("bench_compare: cannot read %s: %s" % (path, e),
              file=sys.stderr)
        sys.exit(2)


def field_map(report, field):
    """(workload, prefetcher) -> field, for the runs that carry it."""
    return {
        (r["workload"], r["prefetcher"]): r[field]
        for r in report.get("runs_detail", [])
        if field in r
    }


def main(argv):
    ap = argparse.ArgumentParser(prog="bench_compare", description=__doc__)
    ap.add_argument("baseline", help="committed baseline (BENCH_seed.json)")
    ap.add_argument("current", help="freshly produced BENCH_*.json")
    ap.add_argument("--max-ratio", type=float, default=2.0,
                    help="fail when current wall > ratio * baseline wall "
                         "(default: 2.0)")
    args = ap.parse_args(argv)

    base = load(args.baseline)
    cur = load(args.current)
    failures = []

    if base.get("quick") != cur.get("quick") or base.get("runs") != cur.get("runs"):
        failures.append(
            "sweep shape differs: baseline %s/%s runs vs current %s/%s — "
            "regenerate the baseline with the same capsim-bench flags"
            % (base.get("runs"), "quick" if base.get("quick") else "full",
               cur.get("runs"), "quick" if cur.get("quick") else "full"))

    if cur.get("failed_runs", 0):
        failures.append("current report has %d failed run(s)"
                        % cur["failed_runs"])

    base_wall = float(base.get("total_wall_seconds", 0.0))
    cur_wall = float(cur.get("total_wall_seconds", 0.0))
    ratio = (cur_wall / base_wall) if base_wall > 0 else float("inf")
    print("wall-clock: baseline %.2fs (%s threads), current %.2fs "
          "(%s threads), ratio %.2f (gate %.2f)"
          % (base_wall, base.get("threads"), cur_wall, cur.get("threads"),
             ratio, args.max_ratio))
    print("throughput: baseline %.3g sim cycles/s, current %.3g sim cycles/s"
          % (float(base.get("sim_cycles_per_sec", 0.0)),
             float(cur.get("sim_cycles_per_sec", 0.0))))
    if base_wall > 0 and ratio > args.max_ratio:
        failures.append("wall-clock regression: %.2fs -> %.2fs (ratio %.2f "
                        "> %.2f)" % (base_wall, cur_wall, ratio,
                                     args.max_ratio))

    if not any("sweep shape" in f for f in failures):
        bmap, cmap = field_map(base, "cycles"), field_map(cur, "cycles")
        for key in sorted(bmap):
            if key not in cmap:
                failures.append("run %s/%s missing from current report"
                                % key)
            elif bmap[key] != cmap[key]:
                failures.append(
                    "determinism drift: %s/%s simulated %d cycles, baseline "
                    "recorded %d" % (key[0], key[1], cmap[key], bmap[key]))
        bdig, cdig = field_map(base, "digest"), field_map(cur, "digest")
        if bdig and cdig:
            for key in sorted(bdig):
                if key in cdig and bdig[key] != cdig[key]:
                    failures.append(
                        "determinism drift: %s/%s signature digest %s, "
                        "baseline recorded %s"
                        % (key[0], key[1], cdig[key], bdig[key]))
        else:
            print("note: %s report carries no signature digests; only "
                  "cycle counts were compared"
                  % ("baseline" if not bdig else "current"))

    if failures:
        for f in failures:
            print("FAIL: %s" % f, file=sys.stderr)
        return 1
    print("bench_compare: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
