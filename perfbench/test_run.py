#!/usr/bin/env python3
"""Tests of perfbench/run.py: the percentile rule, the base of every ratio,
and the contract between run.py and BENCHMARK.json.

    python3 perfbench/test_run.py -v
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def counters(**over):
    """Synthetic trace counters, each a distinct value so a ratio taken
    against the wrong base cannot pass by accident."""
    c = {
        "gpu.cycles": 1000.0, "time.step_s": 10.0, "time.sched_s": 3.0,
        "time.prefetch_s": 0.5, "time.done_poll_s": 0.01,
        "time.construct_s": 0.02, "time.audit_s": 0.003,
        "calls.pick": 3000.0, "calls.prefetch": 70.0,
        "sm.active_cycles": 900.0, "sm.issued_instructions": 400.0,
        "sm.issue_slots": 1800.0, "sm.stall_ldst_full": 1200.0,
        "sm.stall_cycles_all_mem": 450.0, "sm.l1_accesses": 300.0,
        "sm.l1_misses": 120.0, "sm.l1_mshr_merges": 11.0,
        "sm.stall_mshr_full": 13.0, "sm.stall_xbar_full": 17.0,
        "sm.demand_miss_latency_sum": 5000.0,
        "sm.demand_miss_latency_count": 40.0,
        "sm.pf_issued_to_mem": 50.0, "sm.pf_useful": 20.0,
        "sm.pf_useful_late": 5.0, "sm.pf_early_evicted": 15.0,
        "sm.demand_to_mem": 75.0, "sm.pf_wakeups": 7.0,
        "xbar.messages": 200.0, "xbar.total_queue_delay": 900.0,
        "xbar.inject_stalls": 19.0, "l2.accesses": 200.0, "l2.hits": 60.0,
        "dram.reads": 140.0, "dram.writes": 23.0, "dram.row_hits": 30.0,
        "dram.row_misses": 90.0, "dram.busy_cycles": 600.0,
        "dram.queue_full_stalls": 0.0,
    }
    c.update(over)
    return c


def trace(c=None):
    return {
        "counters": c or counters(), "threads": 4, "untraced_wall_s": 5.0,
        "untraced_run_wall_s": 18.0, "traced_wall_s": 6.0,
        "caps_vs_base": [{"kernel": "A", "base_ipc": 100.0, "caps_ipc": 200.0},
                         {"kernel": "B", "base_ipc": 100.0, "caps_ipc": 50.0}],
    }


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        for n in (11, 32, 96, 128):
            xs = list(range(n))
            value, pct, beyond = run.tail(xs)
            self.assertEqual(beyond, 10)
            self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_percentile_label(self):
        self.assertEqual(run.tail(range(96))[1], 89)   # 86/96
        self.assertEqual(run.tail(range(128))[1], 92)  # 118/128
        self.assertEqual(run.tail(range(32))[1], 68)   # 22/32

    def test_order_of_samples_does_not_matter(self):
        xs = [0.5, 0.1, 0.9] * 10 + [2.0, 1.0]
        self.assertEqual(run.tail(xs), run.tail(sorted(xs)))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail(range(10))


class RatioBases(unittest.TestCase):
    def test_layer_ratios(self):
        m = {k: v for k, (v, _) in run.layer_metrics(trace()).items()}
        self.assertAlmostEqual(m["gpu.step_self_s"], 10.0 - 3.0 - 0.5)
        self.assertAlmostEqual(m["gpu.step_ns_per_sim_cycle"], 1e9 * 10 / 1000)
        self.assertAlmostEqual(m["sm.issue_slot_use"], 400 / 1800)
        self.assertAlmostEqual(m["sm.retries_per_issue"], 1200 / 400)
        self.assertAlmostEqual(m["sm.all_mem_stall_frac"], 450 / 900)
        self.assertAlmostEqual(m["l1.miss_rate"], 120 / 300)
        self.assertAlmostEqual(m["l1.demand_miss_latency_mean"], 5000 / 40)
        self.assertAlmostEqual(m["sched.ns_per_pick"], 1e9 * 3 / 3000)
        self.assertAlmostEqual(m["pf.accuracy"], 25 / 50)
        self.assertAlmostEqual(m["pf.coverage"], 50 / (75 + 25))
        self.assertAlmostEqual(m["pf.early_ratio"], 15 / (25 + 15))
        self.assertAlmostEqual(m["core.caps_norm_ipc"], 1.0)  # sqrt(2 * 0.5)
        self.assertAlmostEqual(m["xbar.queue_delay_per_msg"], 900 / 200)
        self.assertAlmostEqual(m["l2.hit_rate"], 60 / 200)
        self.assertAlmostEqual(m["dram.row_hit_rate"], 30 / 120)
        self.assertAlmostEqual(m["harness.worker_busy_frac"], 18 / (4 * 5))
        self.assertAlmostEqual(m["trace.overhead_frac"], 6 / 5 - 1)

    def test_empty_bases_give_zero(self):
        c = counters(**{"sm.l1_accesses": 0.0, "calls.pick": 0.0})
        m = {k: v for k, (v, _) in run.layer_metrics(trace(c)).items()}
        self.assertEqual(m["l1.miss_rate"], 0.0)
        self.assertEqual(m["sched.ns_per_pick"], 0.0)

    def test_end_to_end_medians(self):
        # Three repetitions on hosts 1x, 2x and 4x slower than nominal: every
        # measured time and reference grows alike, so scaled times agree.
        walls = [0.1 * i for i in range(1, 21)]
        sweep = {"peak_rss_kb": 2048.0, "ref_nominal_s": 0.03, "reps": [
            {"wall_s": 99.0 * slow, "sim_cycles": 600.0, "warp_insts": 300.0,
             "run_wall_s": [w * slow for w in walls],
             "ref_s": [0.03 * slow] * 20, "worker": [0, 1] * 10}
            for slow in (1.0, 2.0, 4.0)]}
        m = {k: v for k, (v, _) in run.end_to_end_metrics(sweep, 0.2).items()}
        busiest = sum(walls[1::2])  # worker 1 ran 0.2, 0.4, ..., 2.0 s
        self.assertAlmostEqual(m["wall_s"], busiest)
        self.assertAlmostEqual(m["sim_cycles_per_s"], 600.0 / busiest)
        self.assertAlmostEqual(m["warp_insts_per_s"], 300.0 / busiest)
        self.assertAlmostEqual(m["run_p50_s"], 1.05)
        self.assertAlmostEqual(m["run_tail_s"], 1.0)   # 10 samples beyond
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 2.0)

    def test_repetition_is_scaled_by_its_time_weighted_reference(self):
        rep = {"run_wall_s": [1.0, 1.0, 2.0], "ref_s": [0.03, 0.06, 0.03],
               "worker": [0, 1, 1]}
        # (0.03 x 1 + 0.06 x 1 + 0.03 x 2) / 4 s = 0.0375
        self.assertAlmostEqual(run.host_ref(rep), 0.0375)
        for got, want in zip(run.scaled_runs(rep, 0.03), [0.8, 0.8, 1.6]):
            self.assertAlmostEqual(got, want)
        self.assertAlmostEqual(run.scaled_wall(rep, 0.03), 2.4)  # worker 1

    def test_setup_is_the_median_scaled_by_the_median_reference(self):
        probes = [(0.004, 0.06, 0.03), (0.001, 0.03, 0.03),
                  (0.002, 0.09, 0.03)]
        self.assertAlmostEqual(run.setup_seconds(probes), 0.002 * 0.03 / 0.06)

    def test_run_percentiles_use_each_simulations_median(self):
        # Simulation i takes i seconds, except in one of three repetitions,
        # where it is 100x slower; per-simulation medians hide that outlier.
        n = 21
        reps = [{"run_wall_s": [float(i) for i in range(n)],
                 "ref_s": [1.0] * n, "worker": [0] * n} for _ in range(3)]
        reps[1]["run_wall_s"] = [100.0 * i for i in range(n)]
        self.assertEqual(run.run_times(reps, 1.0), [float(i) for i in range(n)])
        sweep = {"peak_rss_kb": 1.0, "ref_nominal_s": 1.0, "reps": [
            dict(r, wall_s=1.0, sim_cycles=1.0, warp_insts=1.0) for r in reps]}
        m = {k: v for k, (v, _) in run.end_to_end_metrics(sweep, 1.0).items()}
        self.assertEqual(m["run_p50_s"], 10.0)
        self.assertEqual(m["run_tail_s"], 10.0)  # 10 of 21 samples beyond


class Workers(unittest.TestCase):
    def test_one_core_is_left_free_but_two_workers_remain(self):
        real = run.host_threads
        try:
            for cores, workers in ((1, 2), (2, 2), (3, 2), (4, 3), (16, 15)):
                run.host_threads = lambda: cores
                self.assertEqual(run.sweep_workers(), workers)
        finally:
            run.host_threads = real


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))
        sweep = {"peak_rss_kb": 1.0, "ref_nominal_s": 1.0, "reps": [
            {"wall_s": 1.0, "sim_cycles": 1.0, "warp_insts": 1.0,
             "run_wall_s": [1.0] * 11, "ref_s": [1.0] * 11,
             "worker": [0] * 11}]}
        e2e = run.end_to_end_metrics(sweep, 1.0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: u for k, (_, u) in e2e.items()})
        layers = run.layer_metrics(trace())
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: u for k, (_, u) in layers.items()})

    def test_fails_without_printing_when_sources_are_absent(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            shutil.copy(run.HERE / "run.py", bench / "run.py")
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / "build"))
            p = subprocess.run(
                [sys.executable, str(bench / "run.py"), "--workload",
                 run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=60)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
