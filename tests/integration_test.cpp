// Whole-GPU integration and property tests: determinism, conservation
// invariants, every (workload x prefetcher) combination completing, and
// randomized kernels executing exactly their expected instruction counts.
#include <gtest/gtest.h>

#include <random>

#include "harness/experiment.hpp"
#include "workloads/workload.hpp"

namespace caps {
namespace {

GpuConfig small_cfg() {
  GpuConfig cfg;
  cfg.num_sms = 4;
  cfg.max_cycles = 5'000'000;
  return cfg;
}

TEST(IntegrationTest, SimulationIsDeterministic) {
  RunConfig rc;
  rc.workload = "MM";
  rc.prefetcher = PrefetcherKind::kCaps;
  rc.base = small_cfg();
  const RunResult a = run_experiment(rc);
  const RunResult b = run_experiment(rc);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.sm.issued_instructions, b.stats.sm.issued_instructions);
  EXPECT_EQ(a.stats.sm.pf_issued_to_mem, b.stats.sm.pf_issued_to_mem);
  EXPECT_EQ(a.stats.dram.reads, b.stats.dram.reads);
}

TEST(IntegrationTest, DefaultSchedulerPairing) {
  EXPECT_EQ(default_scheduler_for(PrefetcherKind::kCaps), SchedulerKind::kPas);
  EXPECT_EQ(default_scheduler_for(PrefetcherKind::kOrch), SchedulerKind::kOrch);
  EXPECT_EQ(default_scheduler_for(PrefetcherKind::kInter),
            SchedulerKind::kTwoLevel);
  EXPECT_EQ(default_scheduler_for(PrefetcherKind::kNone),
            SchedulerKind::kTwoLevel);
}

/// Every prefetcher must run every-workload-class to completion with sane
/// invariants. Parameterized over the Fig. 10 legend.
class AllPrefetchersTest : public ::testing::TestWithParam<PrefetcherKind> {};

TEST_P(AllPrefetchersTest, CompletesWithConsistentStats) {
  for (const char* wl : {"MM", "BFS"}) {  // one regular, one irregular
    RunConfig rc;
    rc.workload = wl;
    rc.prefetcher = GetParam();
    rc.base = small_cfg();
    const RunResult r = run_experiment(rc);
    const GpuStats& s = r.stats;

    EXPECT_FALSE(s.hit_cycle_limit) << wl;
    EXPECT_GT(s.cycles, 0u) << wl;
    EXPECT_GT(s.ipc(), 0.0) << wl;

    // Every CTA launched and completed.
    const Kernel& k = find_workload(wl).kernel;
    EXPECT_EQ(s.ctas_launched, k.num_ctas()) << wl;
    EXPECT_EQ(s.sm.ctas_completed, k.num_ctas()) << wl;

    // Instruction conservation: every warp retires its whole program.
    EXPECT_EQ(s.sm.issued_instructions,
              k.dynamic_warp_instructions() * k.warps_per_cta() * k.num_ctas())
        << wl;

    // Cache accounting.
    EXPECT_EQ(s.sm.l1_hits + s.sm.l1_misses, s.sm.l1_accesses) << wl;
    EXPECT_LE(s.sm.demand_to_mem, s.sm.l1_misses) << wl;
    EXPECT_EQ(s.l2.hits + s.l2.misses, s.l2.accesses) << wl;

    // Prefetch accounting.
    EXPECT_LE(s.sm.pf_useful + s.sm.pf_useful_late, s.sm.pf_issued_to_mem) << wl;
    EXPECT_LE(s.sm.pf_early_evicted, s.sm.pf_issued_to_mem) << wl;
    EXPECT_LE(s.sm.pf_issued_to_mem, s.sm.pf_generated) << wl;
    EXPECT_LE(s.pf_accuracy(), 1.0) << wl;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig10Legend, AllPrefetchersTest,
    ::testing::Values(PrefetcherKind::kNone, PrefetcherKind::kIntra,
                      PrefetcherKind::kInter, PrefetcherKind::kMta,
                      PrefetcherKind::kNlp, PrefetcherKind::kLap,
                      PrefetcherKind::kOrch, PrefetcherKind::kCaps),
    [](const auto& param_info) { return to_string(param_info.param); });

TEST(IntegrationTest, BaselineHasNoPrefetchTraffic) {
  RunConfig rc;
  rc.workload = "CNV";
  rc.base = small_cfg();
  const RunResult r = run_experiment(rc);
  EXPECT_EQ(r.stats.sm.pf_generated, 0u);
  EXPECT_EQ(r.stats.sm.pf_issued_to_mem, 0u);
}

TEST(IntegrationTest, CapsAccuracyIsHighOnStrideFriendlyKernels) {
  // The paper's headline: >97% accuracy. Check the stride-friendly subset.
  for (const char* wl : {"MM", "LPS", "CNV"}) {
    RunConfig rc;
    rc.workload = wl;
    rc.prefetcher = PrefetcherKind::kCaps;
    const RunResult r = run_experiment(rc);
    EXPECT_GT(r.stats.sm.pf_issued_to_mem, 100u) << wl;
    EXPECT_GT(r.stats.pf_accuracy(), 0.9) << wl;
  }
}

TEST(IntegrationTest, CapsExcludesIndirectLoads) {
  RunConfig rc;
  rc.workload = "BFS";
  rc.prefetcher = PrefetcherKind::kCaps;
  rc.base = small_cfg();
  const RunResult r = run_experiment(rc);
  EXPECT_GT(r.stats.pf_engine.excluded_indirect, 0u);
}

TEST(IntegrationTest, InterIsLessAccurateThanCaps) {
  // Fig. 12's central contrast on the Fig. 1 subject.
  RunConfig rc;
  rc.workload = "MM";
  rc.prefetcher = PrefetcherKind::kInter;
  const double inter = run_experiment(rc).stats.pf_accuracy();
  rc.prefetcher = PrefetcherKind::kCaps;
  const double caps = run_experiment(rc).stats.pf_accuracy();
  EXPECT_GT(caps, inter);
}

TEST(IntegrationTest, CtaLimitReducesParallelism) {
  // Fig. 11 mechanism: capping concurrent CTAs must not break execution
  // and single-CTA runs are slower than the 8-CTA default.
  RunConfig rc;
  rc.workload = "LPS";
  rc.base = small_cfg();
  rc.max_ctas_per_sm = 1;
  const RunResult one = run_experiment(rc);
  rc.max_ctas_per_sm = 8;
  const RunResult eight = run_experiment(rc);
  EXPECT_FALSE(one.stats.hit_cycle_limit);
  EXPECT_GT(one.stats.cycles, eight.stats.cycles);
}

TEST(IntegrationTest, SchedulerOverrideIsHonored) {
  RunConfig rc;
  rc.workload = "MM";
  rc.prefetcher = PrefetcherKind::kCaps;
  rc.scheduler = SchedulerKind::kLrr;
  rc.base = small_cfg();
  const RunResult r = run_experiment(rc);
  EXPECT_EQ(r.scheduler_used, SchedulerKind::kLrr);
  EXPECT_FALSE(r.stats.hit_cycle_limit);
}

// ------------------------------------------------------ property tests ----

/// Random kernels: arbitrary mixes of ALU/SFU/loads/stores/loops/barriers
/// must terminate and retire exactly the computed instruction count, under
/// every scheduler.
class RandomKernelTest : public ::testing::TestWithParam<u32> {};

TEST_P(RandomKernelTest, ExecutesExactInstructionCount) {
  std::mt19937 rng(GetParam());
  auto rnd = [&](u32 lo, u32 hi) {
    return lo + static_cast<u32>(rng() % (hi - lo + 1));
  };

  const Dim3 block{32 * rnd(1, 4), 1, 1};
  const Dim3 grid{rnd(1, 6), rnd(1, 3), 1};
  KernelBuilder b("random", grid, block);
  u32 depth = 0;
  for (u32 i = 0, n = rnd(4, 18); i < n; ++i) {
    switch (rng() % 6) {
      case 0:
        b.alu(rnd(1, 4), rng() % 2 == 0);
        break;
      case 1:
        b.sfu(1, rng() % 2 == 0);
        break;
      case 2: {
        AddressPattern p = linear_pattern(
            0x1000'0000ULL * rnd(1, 4), 4 * rnd(1, 2), block.x);
        if (rng() % 4 == 0) p = indirect_pattern(0x7000'0000, 1 << 18, rng());
        if (rng() % 2 == 0)
          b.load(p, rng() % 2 == 0);
        else
          b.store(p);
        break;
      }
      case 3:
        b.barrier();
        break;
      case 4:
        if (depth < 2) {
          b.loop(rnd(2, 5));
          ++depth;
          b.alu(1);
        }
        break;
      case 5:
        if (depth > 0) {
          b.end_loop();
          --depth;
        }
        break;
    }
  }
  while (depth-- > 0) b.end_loop();
  const Kernel k = b.build();

  for (SchedulerKind sched : {SchedulerKind::kTwoLevel, SchedulerKind::kLrr,
                              SchedulerKind::kGto, SchedulerKind::kPas}) {
    GpuConfig cfg = small_cfg();
    SmPolicyFactories pol = make_policies(PrefetcherKind::kCaps, sched, true);
    Gpu gpu(cfg, k, pol);
    const GpuStats s = gpu.run();
    ASSERT_FALSE(s.hit_cycle_limit)
        << "seed " << GetParam() << " sched " << to_string(sched);
    EXPECT_EQ(s.sm.issued_instructions,
              k.dynamic_warp_instructions() * k.warps_per_cta() * k.num_ctas())
        << "seed " << GetParam() << " sched " << to_string(sched);
    EXPECT_EQ(s.sm.ctas_completed, k.num_ctas());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelTest,
                         ::testing::Range(1u, 13u));

}  // namespace
}  // namespace caps
