// End-to-end tests for the simulation integrity layer: the forward-progress
// watchdog (fault injection via dropped replies and wedged warps), the
// end-of-run invariant auditor, and the fault-tolerant experiment harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gpu/gpu.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "workloads/workload.hpp"

namespace caps {
namespace {

GpuConfig tiny_cfg() {
  GpuConfig cfg;
  cfg.num_sms = 2;
  cfg.max_cycles = 2'000'000;
  cfg.watchdog_cycles = 2'000;
  return cfg;
}

Gpu make_gpu(const GpuConfig& cfg, const std::string& wl) {
  return Gpu(cfg, find_workload(wl).kernel,
             make_policies(PrefetcherKind::kNone, SchedulerKind::kTwoLevel,
                           /*caps_eager_wakeup=*/true));
}

// A simulation whose memory system silently swallows replies must be caught
// by the watchdog, and the SimError must name a stalled SM and carry per-warp
// state plus queue occupancies — the acceptance scenario for the layer.
TEST(WatchdogTest, DroppedRepliesRaiseDeadlockWithSnapshot) {
  const GpuConfig cfg = tiny_cfg();
  Gpu gpu = make_gpu(cfg, "MM");
  gpu.memory_for_test().set_reply_drop_for_test(10);

  try {
    gpu.run();
    FAIL() << "watchdog did not fire on a reply-dropping memory system";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kDeadlock);
    EXPECT_GE(e.sm_id(), 0);
    EXPECT_GT(e.cycle(), 0u);
    const std::string what = e.what();
    EXPECT_NE(what.find("no forward progress"), std::string::npos) << what;

    const MachineSnapshot& snap = e.snapshot();
    EXPECT_NE(snap.find("memory system"), nullptr);
    // Per-warp state for the stalled SM: the snapshot must name warps with
    // their outstanding loads so the user can see *what* is stuck.
    const std::string dump = snap.to_string();
    EXPECT_NE(dump.find("warp "), std::string::npos) << dump;
    EXPECT_NE(dump.find("outstanding_loads"), std::string::npos) << dump;
    // Queue occupancies from the LD/ST unit (demand queue, MSHR).
    EXPECT_NE(dump.find("ld/st"), std::string::npos) << dump;
    EXPECT_NE(dump.find("mshr"), std::string::npos) << dump;
    EXPECT_NE(dump.find("dropped"), std::string::npos) << dump;
  }
}

// A single permanently-unready warp must eventually starve the machine
// (its CTA never retires) and trip the watchdog even though the memory
// system is healthy.
TEST(WatchdogTest, WedgedWarpRaisesDeadlock) {
  const GpuConfig cfg = tiny_cfg();
  Gpu gpu = make_gpu(cfg, "SCN");

  // Step until SM 0 has resident warps, then wedge its first slot.
  while (gpu.sm(0).resident_warps() == 0 && !gpu.done()) gpu.step();
  ASSERT_GT(gpu.sm(0).resident_warps(), 0u);
  gpu.sm_for_test(0).wedge_warp_for_test(0);

  try {
    gpu.run();
    FAIL() << "watchdog did not fire on a wedged warp";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kDeadlock);
    EXPECT_EQ(e.sm_id(), 0);  // SM 0 holds the only remaining warps
    const std::string dump = e.snapshot().to_string();
    EXPECT_NE(dump.find("[sm 0]"), std::string::npos) << dump;
    EXPECT_NE(dump.find("warp 0"), std::string::npos) << dump;
  }
}

TEST(WatchdogTest, ZeroDisablesWatchdog) {
  GpuConfig cfg = tiny_cfg();
  cfg.watchdog_cycles = 0;      // disabled: the run must fall through to
  cfg.max_cycles = 30'000;      // the cycle budget instead of throwing
  Gpu gpu = make_gpu(cfg, "MM");
  gpu.memory_for_test().set_reply_drop_for_test(0);
  GpuStats s{};
  EXPECT_NO_THROW(s = gpu.run());
  EXPECT_TRUE(s.hit_cycle_limit);
}

// The harness converts watchdog SimErrors into a tagged RunResult and the
// prefetcher sweep keeps going: exactly the wedged config reports kDeadlock,
// every other config completes normally.
TEST(HarnessFaultToleranceTest, SweepSkipsDeadlockedConfigAndContinues) {
  GpuConfig base;
  base.num_sms = 2;
  base.watchdog_cycles = 2'000;

  std::vector<RunConfig> cfgs = fig10_matrix({"SCN"});
  for (RunConfig& rc : cfgs) {
    rc.base = base;
    if (rc.prefetcher != PrefetcherKind::kNlp) continue;
    rc.pre_run_hook = [](Gpu& gpu) {
      gpu.memory_for_test().set_reply_drop_for_test(10);
    };
  }
  const auto results = run_sweep(std::move(cfgs));

  // BASE plus the seven legend prefetchers.
  ASSERT_EQ(results.size(), prefetcher_legend().size() + 1);
  int deadlocks = 0;
  for (const RunResult& r : results) {
    if (r.cfg.prefetcher == PrefetcherKind::kNlp) {
      ++deadlocks;
      EXPECT_EQ(r.status, RunStatus::kDeadlock);
      EXPECT_FALSE(r.error.empty());
      EXPECT_FALSE(r.snapshot.empty());
      EXPECT_NE(r.snapshot.find("memory system"), nullptr);
    } else {
      EXPECT_EQ(r.status, RunStatus::kOk)
          << to_string(r.cfg.prefetcher) << ": " << r.error;
      EXPECT_GT(r.stats.sm.issued_instructions, 0u);
      EXPECT_TRUE(r.stats.audit_clean());
    }
  }
  EXPECT_EQ(deadlocks, 1);
}

TEST(HarnessFaultToleranceTest, UnknownWorkloadIsConfigError) {
  RunConfig rc;
  rc.workload = "NOPE";
  const RunResult r = run_experiment(rc);
  EXPECT_EQ(r.status, RunStatus::kConfigError);
  EXPECT_FALSE(r.error.empty());
}

TEST(HarnessFaultToleranceTest, InvalidGpuConfigIsConfigError) {
  RunConfig rc;
  rc.workload = "MM";
  rc.base.l1d.mshr_max_merged = rc.base.l1d.mshr_entries + 1;
  const RunResult r = run_experiment(rc);
  EXPECT_EQ(r.status, RunStatus::kConfigError);
  EXPECT_NE(r.error.find("merge"), std::string::npos) << r.error;
}

/// current_run_fault() classifies the exception in flight.
RunFault fault_of(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (...) {
    return current_run_fault();
  }
  ADD_FAILURE() << "thrower did not throw";
  return {};
}

TEST(HarnessFaultToleranceTest, OneFaultToStatusMapping) {
  const auto sim = [](SimErrorKind k) {
    return fault_of([k] { throw SimError(k, "boom"); });
  };
  EXPECT_EQ(sim(SimErrorKind::kDeadlock).status, RunStatus::kDeadlock);
  EXPECT_EQ(sim(SimErrorKind::kConfigError).status, RunStatus::kConfigError);
  EXPECT_EQ(sim(SimErrorKind::kCheckFailed).status,
            RunStatus::kInvariantViolation);
  EXPECT_EQ(sim(SimErrorKind::kInvariantViolation).status,
            RunStatus::kInvariantViolation);
  EXPECT_NE(sim(SimErrorKind::kDeadlock).error.find("boom"),
            std::string::npos);

  const RunFault bad_arg =
      fault_of([] { throw std::invalid_argument("bad config"); });
  EXPECT_EQ(bad_arg.status, RunStatus::kConfigError);
  EXPECT_EQ(bad_arg.error, "bad config");

  // Anything else is not a simulator fault and keeps propagating.
  EXPECT_THROW(fault_of([] { throw std::runtime_error("other"); }),
               std::runtime_error);
}

TEST(HarnessFaultToleranceTest, RunConfigOverridesApply) {
  RunConfig rc;
  rc.workload = "MM";
  rc.base.num_sms = 2;
  rc.max_cycles = 500;  // far too small: must stop at the budget, still kOk
  rc.watchdog_cycles = 0;
  const RunResult r = run_experiment(rc);
  EXPECT_EQ(r.status, RunStatus::kOk) << r.error;
  EXPECT_TRUE(r.stats.hit_cycle_limit);
  EXPECT_LE(r.stats.cycles, 600u);
}

TEST(HarnessFaultToleranceTest, ACutOffRunIsNotOk) {
  // A run stopped by max_cycles keeps status kOk, which its digest renders,
  // but its counters are partial: it is no result.
  RunConfig rc;
  rc.workload = "MM";
  rc.max_cycles = 100;
  const RunResult cut = run_experiment(rc);
  EXPECT_EQ(cut.status, RunStatus::kOk);
  EXPECT_TRUE(cut.stats.hit_cycle_limit);
  EXPECT_FALSE(cut.ok());
  EXPECT_STREQ(cut.outcome(), "cycle_limit");
  EXPECT_TRUE(cut.error.empty());
  rc.max_cycles.reset();
  const RunResult full = run_experiment(rc);
  EXPECT_TRUE(full.ok()) << full.error;
  EXPECT_STREQ(full.outcome(), "ok");
}

// The auditor must pass on every seed workload under the default machine —
// the conservation laws hold on healthy runs.
TEST(AuditorTest, CleanOnAllSeedWorkloads) {
  GpuConfig cfg;
  cfg.num_sms = 2;
  for (const Workload& wl : workload_suite()) {
    RunConfig rc;
    rc.workload = wl.abbr;
    rc.base = cfg;
    const RunResult r = run_experiment(rc);
    EXPECT_EQ(r.status, RunStatus::kOk) << wl.abbr << ": " << r.error;
    EXPECT_TRUE(r.stats.audit_clean())
        << wl.abbr << ": " << (r.stats.audit_violations.empty()
                                   ? std::string("-")
                                   : r.stats.audit_violations.front());
  }
}

// Tampered counters must be caught: the identity checks in the auditor are
// not vacuous.
TEST(AuditorTest, DetectsCounterTampering) {
  const GpuConfig cfg = tiny_cfg();
  Gpu gpu = make_gpu(cfg, "MM");
  const GpuStats clean = gpu.run();
  ASSERT_TRUE(clean.audit_clean());

  GpuStats bad = gpu.collect_stats();
  bad.sm.l1_misses += 1;  // break hits + misses == accesses
  const auto violations = gpu.audit(bad);
  EXPECT_FALSE(violations.empty());
}

// The underflow sweep covers the top-level counters and every group that
// GpuStats::for_each_group visits, each named by its group.
TEST(AuditorTest, UnderflowSweepNamesEveryGroup) {
  const GpuConfig cfg = tiny_cfg();
  Gpu gpu = make_gpu(cfg, "MM");
  ASSERT_TRUE(gpu.run().audit_clean());
  const GpuStats clean = gpu.collect_stats();
  const u64 huge = (u64{1} << 62) + 1;
  const auto expect_named = [&gpu](const GpuStats& bad,
                                   const std::string& prefix) {
    const std::vector<std::string> v = gpu.audit(bad);
    EXPECT_TRUE(std::any_of(v.begin(), v.end(), [&](const std::string& s) {
      return s.starts_with(prefix);
    })) << prefix;
  };

  GpuStats bad = clean;
  bad.cycles = huge;
  expect_named(bad, "gpu.cycles = ");

  std::size_t groups = 0;
  for (std::size_t k = 0;; ++k) {
    bad = clean;
    std::string prefix;
    std::size_t i = 0;
    bad.for_each_group([&](const char* g, const auto& st) {
      if (i++ != k) return;
      using Group = std::remove_cvref_t<decltype(st)>;
      // The visit hands out const references; `bad` itself is mutable.
      auto& group = const_cast<Group&>(st);
      Group::for_each_counter_member([&](const char* name, auto m) {
        if (!prefix.empty()) return;
        group.*m = huge;
        prefix = std::string(g) + "." + name + " = ";
      });
    });
    if (prefix.empty()) break;
    expect_named(bad, prefix);
    ++groups;
  }
  EXPECT_EQ(groups, 4u);
}

}  // namespace
}  // namespace caps
