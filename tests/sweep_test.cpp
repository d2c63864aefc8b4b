// Tests for the parallel sweep executor (DESIGN.md §13): submission-order
// results, bit-identical statistics across worker counts — including under
// fault injection — per-run exception isolation, and the signature helpers
// the determinism gate is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"

namespace caps {
namespace {

GpuConfig small_cfg() {
  GpuConfig cfg;
  cfg.num_sms = 2;
  return cfg;
}

/// A small mixed sweep: two workloads under BASE, a hardware-style baseline
/// prefetcher, and the full CAPS+PAS stack (the three most distinct
/// simulation paths).
std::vector<RunConfig> mixed_cfgs() {
  std::vector<RunConfig> cfgs;
  for (const char* wl : {"SCN", "MM"}) {
    for (PrefetcherKind pf : {PrefetcherKind::kNone, PrefetcherKind::kNlp,
                              PrefetcherKind::kCaps}) {
      RunConfig rc;
      rc.workload = wl;
      rc.prefetcher = pf;
      rc.base = small_cfg();
      cfgs.push_back(rc);
    }
  }
  return cfgs;
}

TEST(SweepThreadsTest, ResolveClampsToJobsAndHost) {
  EXPECT_EQ(resolve_sweep_threads(8, 3), 3u);   // never more workers than jobs
  EXPECT_EQ(resolve_sweep_threads(2, 10), 2u);  // explicit request honoured
  EXPECT_EQ(resolve_sweep_threads(5, 0), 1u);   // empty sweep degenerates
  const u32 def = resolve_sweep_threads(0, 4);  // 0 = one per hardware thread
  EXPECT_GE(def, 1u);
  EXPECT_LE(def, 4u);
}

// The determinism contract: the same configurations run serially through
// run_experiment, on a one-worker sweep, and on a four-worker sweep must
// produce byte-identical signatures (every counter of every run equal).
TEST(SweepDeterminismTest, SerialOneWorkerAndFourWorkerSweepsAreBitIdentical) {
  const std::vector<RunConfig> cfgs = mixed_cfgs();

  std::vector<RunResult> serial;
  serial.reserve(cfgs.size());
  for (const RunConfig& rc : cfgs) serial.push_back(run_experiment(rc));

  SweepOptions one;
  one.threads = 1;
  SweepOptions four;
  four.threads = 4;
  const std::vector<RunResult> t1 = run_sweep(cfgs, one);
  const std::vector<RunResult> t4 = run_sweep(cfgs, four);

  for (const RunResult& r : serial)
    ASSERT_EQ(r.status, RunStatus::kOk)
        << r.cfg.workload << '/' << to_string(r.cfg.prefetcher) << ": "
        << r.error;
  const std::string sig = sweep_signature(serial);
  ASSERT_FALSE(sig.empty());
  EXPECT_EQ(sig, sweep_signature(t1));
  EXPECT_EQ(sig, sweep_signature(t4));
}

// Fault injection must not break determinism: a sweep with one config wedged
// by dropped replies reaches the same statuses, error strings, and partial
// statistics whatever the worker count. (The injected state lives inside the
// run's own Gpu, so it is as thread-confined as the healthy state.)
TEST(SweepDeterminismTest, FaultInjectedSweepIsDeterministicAcrossWorkers) {
  std::vector<RunConfig> cfgs;
  for (PrefetcherKind pf : {PrefetcherKind::kNone, PrefetcherKind::kNlp,
                            PrefetcherKind::kCaps}) {
    RunConfig rc;
    rc.workload = "SCN";
    rc.prefetcher = pf;
    rc.base = small_cfg();
    rc.base.watchdog_cycles = 2'000;
    if (pf == PrefetcherKind::kNlp) {
      rc.pre_run_hook = [](Gpu& gpu) {
        gpu.memory_for_test().set_reply_drop_for_test(10);
      };
    }
    cfgs.push_back(rc);
  }

  SweepOptions one;
  one.threads = 1;
  SweepOptions four;
  four.threads = 4;
  const std::vector<RunResult> t1 = run_sweep(cfgs, one);
  const std::vector<RunResult> t4 = run_sweep(cfgs, four);

  ASSERT_EQ(t1.size(), cfgs.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    const bool faulted = t1[i].cfg.prefetcher == PrefetcherKind::kNlp;
    EXPECT_EQ(t1[i].status,
              faulted ? RunStatus::kDeadlock : RunStatus::kOk)
        << t1[i].error;
    EXPECT_EQ(t4[i].status, t1[i].status);
    EXPECT_EQ(t4[i].error, t1[i].error);
  }
  EXPECT_EQ(sweep_signature(t1), sweep_signature(t4));
}

// bench/paper_figures runs identical resolved configurations once: a config
// that spells out run_experiment's defaults (the paired scheduler, Table
// III's CTA limit, the eager wake-up) must run the same machine as the bare
// config it is merged with.
TEST(SweepDeterminismTest, ExplicitDefaultsMatchTheBareConfig) {
  std::vector<RunConfig> cfgs;
  for (const char* wl : {"MM", "BFS"}) {
    for (PrefetcherKind pf : {PrefetcherKind::kNone, PrefetcherKind::kCaps}) {
      RunConfig bare;
      bare.workload = wl;
      bare.prefetcher = pf;
      RunConfig expl = bare;
      expl.scheduler = default_scheduler_for(pf);
      expl.max_ctas_per_sm = GpuConfig{}.max_ctas_per_sm;
      expl.caps_eager_wakeup = true;
      cfgs.push_back(std::move(bare));
      cfgs.push_back(std::move(expl));
    }
  }
  const std::vector<RunResult> runs = run_sweep(cfgs);
  ASSERT_EQ(runs.size(), cfgs.size());
  for (std::size_t i = 0; i < runs.size(); i += 2) {
    const RunResult& bare = runs[i];
    SCOPED_TRACE(bare.cfg.workload + '/' + to_string(bare.cfg.prefetcher));
    ASSERT_TRUE(bare.ok()) << bare.outcome() << ": " << bare.error;
    EXPECT_EQ(signature_digest(bare), signature_digest(runs[i + 1]));
  }
}

TEST(SweepExecutorTest, ResultsArriveInSubmissionOrder) {
  // Cheap truncated runs: order is what matters here, not completion.
  std::vector<RunConfig> cfgs;
  for (PrefetcherKind pf :
       {PrefetcherKind::kCaps, PrefetcherKind::kNone, PrefetcherKind::kNlp,
        PrefetcherKind::kLap, PrefetcherKind::kIntra}) {
    RunConfig rc;
    rc.workload = "MM";
    rc.prefetcher = pf;
    rc.base = small_cfg();
    rc.max_cycles = 500;
    rc.watchdog_cycles = 0;
    cfgs.push_back(rc);
  }
  SweepOptions opt;
  opt.threads = 4;
  const std::vector<RunResult> results = run_sweep(cfgs, opt);
  ASSERT_EQ(results.size(), cfgs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].cfg.prefetcher, cfgs[i].prefetcher) << "index " << i;
    EXPECT_EQ(results[i].cfg.workload, cfgs[i].workload);
    EXPECT_GE(results[i].wall_seconds, 0.0);
  }
}

// An exception run_experiment does not catch (here: a throwing pre_run_hook)
// must be confined to its own run; the rest of the sweep completes.
TEST(SweepExecutorTest, UnhandledWorkerExceptionIsIsolatedToItsRun) {
  std::vector<RunConfig> cfgs;
  for (int i = 0; i < 3; ++i) {
    RunConfig rc;
    rc.workload = "MM";
    rc.base = small_cfg();
    rc.max_cycles = 2'000;
    rc.watchdog_cycles = 0;
    cfgs.push_back(rc);
  }
  cfgs[1].pre_run_hook = [](Gpu&) {
    throw std::runtime_error("hook exploded");
  };

  SweepOptions opt;
  opt.threads = 2;
  const std::vector<RunResult> results = run_sweep(cfgs, opt);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, RunStatus::kOk) << results[0].error;
  EXPECT_EQ(results[2].status, RunStatus::kOk) << results[2].error;
  EXPECT_EQ(results[1].status, RunStatus::kInvariantViolation);
  EXPECT_NE(results[1].error.find("unhandled exception"), std::string::npos)
      << results[1].error;
  EXPECT_NE(results[1].error.find("hook exploded"), std::string::npos)
      << results[1].error;
}

// A per-job trace sink runs only on the worker executing that job, so a
// job-local counter needs no synchronization — and the event count must
// match the serial run exactly.
TEST(SweepExecutorTest, PerJobTraceSinksSeeSerialEventCounts) {
  RunConfig rc;
  rc.workload = "SCN";
  rc.base = small_cfg();

  u64 serial_events = 0;
  const RunResult serial = run_experiment(
      rc, [&serial_events](const TraceEvent&) { ++serial_events; });
  ASSERT_EQ(serial.status, RunStatus::kOk) << serial.error;
  ASSERT_GT(serial_events, 0u);

  auto c0 = std::make_shared<u64>(0);
  auto c1 = std::make_shared<u64>(0);
  std::vector<SweepJob> jobs;
  jobs.emplace_back(rc, [c0](const TraceEvent&) { ++*c0; });
  jobs.emplace_back(rc, [c1](const TraceEvent&) { ++*c1; });
  SweepOptions opt;
  opt.threads = 2;
  const std::vector<RunResult> results = run_sweep(std::move(jobs), opt);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(*c0, serial_events);
  EXPECT_EQ(*c1, serial_events);
}

TEST(ParallelOrderedMapTest, PreservesItemOrder) {
  std::vector<int> items;
  for (int i = 0; i < 100; ++i) items.push_back(i);
  SweepOptions opt;
  opt.threads = 4;
  const std::vector<int> out = parallel_ordered_map(
      items, [](const int& v) { return v * 3 + 1; }, opt);
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 3 + 1);
}

TEST(SignatureTest, CoversEveryCounterGroupAndExcludesWallClock) {
  RunConfig rc;
  rc.workload = "MM";
  rc.base = small_cfg();
  std::vector<RunResult> results = run_sweep(std::vector<RunConfig>{rc});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].status, RunStatus::kOk) << results[0].error;
  EXPECT_GT(results[0].wall_seconds, 0.0);

  const std::string sig = stats_signature(results[0].stats);
  for (const char* key : {"cycles=", "ctas_launched=", "hit_cycle_limit=",
                          "sm.", "pf_engine.", "dram.", "l2.",
                          "sm.pf_distance=n ", "sm.demand_miss_latency=n "})
    EXPECT_NE(sig.find(key), std::string::npos) << "missing " << key;

  // wall_seconds is harness annotation: two results differing only in wall
  // time must have identical sweep signatures.
  std::vector<RunResult> copy = results;
  copy[0].wall_seconds = results[0].wall_seconds + 123.0;
  EXPECT_EQ(sweep_signature(results), sweep_signature(copy));
}

}  // namespace
}  // namespace caps
