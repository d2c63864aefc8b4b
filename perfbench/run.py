#!/usr/bin/env python3
"""The CAPSim benchmark: Fig. 10 sweeps timed end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload fig10-irregular --seed 1 --seconds 50 --trace 0

It builds the simulator and the capsim-perfbench program (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR (default .bench_build), runs the workload through the
public sweep path, checks every simulation, and prints the metrics. The
last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exit status: 0 when every simulation was ok and every signature agreed,
1 when one was not, 2 when the benchmark could not run at all.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fig10-regular", "fig10-irregular", "fig10-parallel")
SETUP_PROBES = 25
# Every run must end within 180 s; leave room for set-up and teardown.
RUN_DEADLINE_S = 170.0
PAPER_CAPS_MEAN = 1.08


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_threads():
    return len(os.sched_getaffinity(0))


def sweep_workers():
    """Workers of fig10-parallel (and of the serial workloads' re-check):
    one per core but one, at least two. The spare core keeps the OS and this
    process from preempting workers, which made per-simulation times on
    every core a measure of the host scheduler."""
    return max(2, host_threads() - 1)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(samples, beyond=10):
    """(value, percentile, samples beyond) at the highest percentile that
    still has at least `beyond` samples above it."""
    xs = sorted(samples)
    if len(xs) <= beyond:
        raise ValueError("need more than %d samples for a tail, got %d"
                         % (beyond, len(xs)))
    i = len(xs) - beyond - 1
    return xs[i], math.floor(100.0 * (i + 1) / len(xs)), beyond


def ratio(num, den):
    return num / den if den else 0.0


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


# ---------------------------------------------------------------------------
# Metrics from capsim-perfbench's raw output
# ---------------------------------------------------------------------------

def scaled(seconds, ref_s, nominal):
    """Host seconds at nominal host speed (perfbench/host_ref.hpp): measured
    seconds x nominal reference time / reference time measured beside them."""
    return seconds * nominal / ref_s


def host_ref(rep):
    """The reference time of one repetition: the mean of the references
    timed before its simulations, each weighted by the simulation's time, so
    every second of the sweep counts alike."""
    walls = rep["run_wall_s"]
    return sum(r * w for r, w in zip(rep["ref_s"], walls)) / sum(walls)


def scaled_runs(rep, nominal):
    """Each simulation's host seconds in one repetition, scaled by the
    repetition's reference time. (A simulation's own reference alone is a
    noisier estimate: over five seeds of fig10-parallel it spread run_p50_s
    twice as wide.)"""
    ref = host_ref(rep)
    return [scaled(w, ref, nominal) for w in rep["run_wall_s"]]


def scaled_wall(rep, nominal):
    """Sweep seconds of one repetition at nominal speed: the busiest
    worker's summed scaled simulation time. Workers claim jobs until none is
    left, so the busiest worker ends the sweep."""
    busy = {}
    for w, t in zip(rep["worker"], scaled_runs(rep, nominal)):
        busy[w] = busy.get(w, 0.0) + t
    return max(busy.values())


def run_times(reps, nominal):
    """Scaled host seconds of each simulation: its median over the timed
    repetitions (one sample per configuration, whatever the repetition
    count)."""
    return [statistics.median(ts)
            for ts in zip(*(scaled_runs(r, nominal) for r in reps))]


def setup_seconds(probes):
    """Scaled set-up time over (setup_s, ref_s, ref_nominal_s) probes: the
    median set-up time scaled by the median reference."""
    med = statistics.median
    return scaled(med(p[0] for p in probes), med(p[1] for p in probes),
                  probes[0][2])


def end_to_end_metrics(sweep, setup_s):
    """Metrics of one `--mode sweep` result. Every host time is scaled to
    nominal host speed. Sweep figures are medians over the timed
    repetitions, each repetition one whole sweep; per-simulation
    percentiles are taken over run_times()."""
    reps = sweep["reps"]
    nominal = sweep["ref_nominal_s"]
    med = statistics.median
    walls = [scaled_wall(r, nominal) for r in reps]
    runs = run_times(reps, nominal)
    return {
        "wall_s": (med(walls), "s"),
        "warp_insts_per_s":
            (med(r["warp_insts"] / w for r, w in zip(reps, walls)), "1/s"),
        "sim_cycles_per_s":
            (med(r["sim_cycles"] / w for r, w in zip(reps, walls)), "1/s"),
        "run_p50_s": (med(runs), "s"),
        "run_tail_s": (tail(runs)[0], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (sweep["peak_rss_kb"] / 1024.0, "MB"),
    }


def layer_metrics(trace):
    """Per-layer metrics of one `--mode trace` result. Every ratio names its
    base in the comment beside it; counts are sums over all simulations."""
    c = trace["counters"]
    step = c["time.step_s"]
    sched = c["time.sched_s"]
    pf = c["time.prefetch_s"]
    useful = c["sm.pf_useful"] + c["sm.pf_useful_late"]
    caps_norm = [r["caps_ipc"] / r["base_ipc"] for r in trace["caps_vs_base"]
                 if r["base_ipc"] > 0]
    m = {
        # gpu: SM issue, coalescer, LD/ST+L1, CTA dispatch, memory system.
        "gpu.step_s": (step, "s"),
        "gpu.step_self_s": (step - sched - pf, "s"),  # minus child spans
        "gpu.step_ns_per_sim_cycle":
            (1e9 * ratio(step, c["gpu.cycles"]), "ns"),  # per simulated cycle
        "gpu.done_poll_s": (c["time.done_poll_s"], "s"),
        "gpu.construct_s": (c["time.construct_s"], "s"),
        "sm.active_cycles": (c["sm.active_cycles"], "cycles"),
        # issued warp instructions / issue slots
        "sm.issue_slot_use":
            (ratio(c["sm.issued_instructions"], c["sm.issue_slots"]), "ratio"),
        "sm.ldst_full_retries": (c["sm.stall_ldst_full"], "count"),
        # LD/ST-full retries / issued warp instructions
        "sm.retries_per_issue":
            (ratio(c["sm.stall_ldst_full"], c["sm.issued_instructions"]),
             "ratio"),
        # whole-SM memory stall cycles / active SM cycles
        "sm.all_mem_stall_frac":
            (ratio(c["sm.stall_cycles_all_mem"], c["sm.active_cycles"]),
             "ratio"),
        "l1.accesses": (c["sm.l1_accesses"], "count"),
        "l1.miss_rate": (ratio(c["sm.l1_misses"], c["sm.l1_accesses"]),
                         "ratio"),  # misses / accesses
        "l1.mshr_merges": (c["sm.l1_mshr_merges"], "count"),
        "l1.stall_mshr_full": (c["sm.stall_mshr_full"], "count"),
        "l1.stall_xbar_full": (c["sm.stall_xbar_full"], "count"),
        # summed miss latency / demand misses observed
        "l1.demand_miss_latency_mean":
            (ratio(c["sm.demand_miss_latency_sum"],
                   c["sm.demand_miss_latency_count"]), "cycles"),
        # sched: TLV/ORCH in gpu, PAS in core.
        "sched.s": (sched, "s"),
        "sched.pick_calls": (c["calls.pick"], "count"),
        "sched.ns_per_pick": (1e9 * ratio(sched, c["calls.pick"]), "ns"),
        # prefetch: engines in prefetch, CAPS in core.
        "prefetch.s": (pf, "s"),
        "prefetch.calls": (c["calls.prefetch"], "count"),
        "pf.issued": (c["sm.pf_issued_to_mem"], "count"),
        # consumed prefetches / prefetches issued
        "pf.accuracy": (ratio(useful, c["sm.pf_issued_to_mem"]), "ratio"),
        # prefetches issued / (demand misses to memory + consumed prefetches)
        "pf.coverage":
            (ratio(c["sm.pf_issued_to_mem"], c["sm.demand_to_mem"] + useful),
             "ratio"),
        # evicted unused / (consumed + evicted unused)
        "pf.early_ratio":
            (ratio(c["sm.pf_early_evicted"], useful + c["sm.pf_early_evicted"]),
             "ratio"),
        "pf.wakeups": (c["sm.pf_wakeups"], "count"),
        # geometric mean over kernels of CAPS IPC / BASE IPC
        "core.caps_norm_ipc": (geomean(caps_norm), "ratio"),
        # mem: request crossbar, L2, DRAM.
        "xbar.messages": (c["xbar.messages"], "count"),
        "xbar.queue_delay_per_msg":
            (ratio(c["xbar.total_queue_delay"], c["xbar.messages"]), "cycles"),
        "xbar.inject_stalls": (c["xbar.inject_stalls"], "count"),
        "l2.accesses": (c["l2.accesses"], "count"),
        "l2.hit_rate": (ratio(c["l2.hits"], c["l2.accesses"]), "ratio"),
        "dram.reads": (c["dram.reads"], "count"),
        "dram.writes": (c["dram.writes"], "count"),
        # row hits / (row hits + row misses)
        "dram.row_hit_rate":
            (ratio(c["dram.row_hits"], c["dram.row_hits"] + c["dram.row_misses"]),
             "ratio"),
        "dram.busy_cycles": (c["dram.busy_cycles"], "cycles"),
        "dram.queue_full_stalls": (c["dram.queue_full_stalls"], "count"),
        # harness
        "harness.audit_s": (c["time.audit_s"], "s"),
        # summed per-run wall / (workers x sweep wall), untraced sweep
        "harness.worker_busy_frac":
            (ratio(trace["untraced_run_wall_s"],
                   trace["threads"] * trace["untraced_wall_s"]), "ratio"),
        # (traced sweep wall - untraced sweep wall) / untraced sweep wall
        "trace.overhead_frac":
            (ratio(trace["traced_wall_s"], trace["untraced_wall_s"]) - 1.0,
             "ratio"),
        # simulated totals
        "gpu.sim_cycles": (c["gpu.cycles"], "cycles"),
        "gpu.warp_insts": (c["sm.issued_instructions"], "count"),
    }
    return m


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure and build capsim-perfbench; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources not found under %s" % (ROOT / "src"))
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "capsim-perfbench",
                  "-j", str(host_threads())])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return out / "capsim-perfbench"


def drive(exe, args, deadline):
    """Run capsim-perfbench; return (exit code, its last stdout line as JSON)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before %s" % " ".join(args))
    try:
        p = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("capsim-perfbench timed out: %s" % " ".join(args))
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        raise BenchError("capsim-perfbench exited %d without a result: %s"
                         % (p.returncode, " ".join(args)))
    return p.returncode, json.loads(lines[-1])


def probe_setup(exe, common, deadline):
    """One set-up probe of a fresh capsim-perfbench process: (host seconds
    from main() to its first simulated cycle, the reference time it took
    next, the nominal reference time). Process creation and loading are the
    OS's work; they spread 38% between probes and are left out."""
    code, out = drive(exe, ["--mode", "probe"] + common, deadline)
    if code != 0:
        raise BenchError("setup probe failed")
    return out["setup_s"], out["ref_s"], out["ref_nominal_s"]


def report(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_end_to_end(exe, args, common, deadline):
    setup = [probe_setup(exe, common, deadline) for _ in range(SETUP_PROBES)]
    code, sweep = drive(exe, ["--mode", "sweep", "--seconds", str(args.seconds)]
                        + common, deadline)
    m = end_to_end_metrics(sweep, setup_seconds(setup))
    reps = sweep["reps"]
    print("%s: %d simulations x %d timed sweep(s) on %d worker(s); "
          "re-check of %d on %d worker(s)"
          % (args.workload, sweep["configs"], len(reps), sweep["threads"],
             sweep["check_configs"], sweep["check_threads"]))
    print("  sim_digest = %s (every repetition and re-check agreed: %s)"
          % (sweep["sim_digest"], "yes" if code == 0 else "NO"))
    runs = run_times(reps, sweep["ref_nominal_s"])
    print("  host speed: reference %.1f ms (median over repetitions; nominal "
          "%.1f ms); measured sweep wall %.4g s (median)"
          % (1e3 * statistics.median(host_ref(r) for r in reps),
             1e3 * sweep["ref_nominal_s"],
             statistics.median(r["wall_s"] for r in reps)))
    for name, (value, unit) in m.items():
        note = ""
        if name == "run_tail_s":
            _, pct, beyond = tail(runs)
            note = "  (p%d of %d samples, %d beyond)" % (pct, len(runs), beyond)
        elif name == "run_p50_s":
            note = "  (%d samples, each a median of %d)" % (len(runs), len(reps))
        elif name == "setup_s":
            note = "  (median of %d probes)" % len(setup)
        print("  %-18s = %.6g %s%s" % (name, value, unit, note))
    print("  %-18s = %.6g ratio  (%d of %d simulations failed)"
          % ("fail_frac", ratio(sweep["failed"], sweep["attempted"]),
             sweep["failed"], sweep["attempted"]))
    for line in sweep["failures"]:
        print("  FAIL " + line)
    return code == 0 and sweep["failed"] == 0, sweep, m


def run_traced(exe, args, common, deadline):
    code, trace = drive(exe, ["--mode", "trace"] + common, deadline)
    m = layer_metrics(trace)
    print("%s traced: %d simulations on %d worker(s); sim_digest = %s; "
          "every traced signature matched the untraced run: %s"
          % (args.workload, trace["configs"], trace["threads"],
             trace["sim_digest"], "yes" if code == 0 else "NO"))
    for name, (value, unit) in m.items():
        note = ""
        if name == "core.caps_norm_ipc":
            note = "  (paper mean %.2f)" % PAPER_CAPS_MEAN
        print("  %-28s = %.6g %s%s" % (name, value, unit, note))
    for line in trace["failures"]:
        print("  FAIL " + line)
    return code == 0 and trace["failed"] == 0, trace, m


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        exe = build()
        deadline = time.monotonic() + RUN_DEADLINE_S
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--threads", str(sweep_workers())]
        run = run_traced if args.trace else run_end_to_end
        correct, out, metrics = run(exe, args, common, deadline)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2
    report(correct, out["attempted"], out["failed"], metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
