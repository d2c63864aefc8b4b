// Property-based suites: randomized inputs checked against ground truth or
// invariants, parameterized across configurations (TEST_P sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <set>
#include <vector>

#include "core/caps_prefetcher.hpp"
#include "core/pas_gto_scheduler.hpp"
#include "gpu/coalescer.hpp"
#include "harness/experiment.hpp"
#include "mem/dram.hpp"
#include "workloads/workload.hpp"

namespace caps {
namespace {

// ---------------------------------------------------- coalescer property ---

/// The coalescer as it was before its incremental walk: per lane, unflatten
/// the thread id, evaluate the address (indirect patterns hash every lane),
/// and append the line unless an earlier lane produced it; then sort. Kept
/// as the reference Coalescer::coalesce_into must match exactly.
std::vector<Addr> reference_coalesce(const AddressPattern& p, const Dim3& block,
                                     const Dim3& cta_id, u32 cta_flat,
                                     u32 warp_in_cta, u32 iter,
                                     u32 line_size) {
  std::vector<Addr> out;
  const u32 threads = block.count();
  const u32 first_thread = warp_in_cta * kWarpSize;
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    const u32 t = first_thread + lane;
    if (t >= threads) break;  // inactive lane
    const Dim3 tid = unflatten(t, block);
    const u64 gtid = static_cast<u64>(cta_flat) * threads + t;
    Addr a;
    if (p.indirect) {
      const u64 h = hash_combine(p.seed, gtid / p.indirect_group, iter);
      const u64 lane_off = (gtid % p.indirect_group) * 4;
      a = p.base + (p.region_bytes == 0 ? 0 : (h % p.region_bytes) + lane_off);
    } else {
      a = p.evaluate(tid, cta_id, iter, gtid);
    }
    const Addr line = line_base(a, line_size);
    if (std::find(out.begin(), out.end(), line) == out.end())
      out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// For random affine and indirect patterns the lines are exactly the
/// reference set: every lane covered, no extra line, sorted, unique, and
/// never more than the active lane count.
class CoalescerPropertyTest : public ::testing::TestWithParam<u32> {};

TEST_P(CoalescerPropertyTest, LinesAreExactlyTheLanesLines) {
  std::mt19937_64 rng(GetParam());
  Coalescer co(128);
  std::vector<Addr> lines;  // reused across trials, as the SM reuses it
  for (int trial = 0; trial < 200; ++trial) {
    AddressPattern p;
    p.base = (rng() % 1024) * 64 + 0x1000'0000;
    p.c_tid_x = static_cast<i64>(rng() % 64);
    p.c_tid_y = static_cast<i64>(rng() % 4096);
    p.c_cta_x = static_cast<i64>(rng() % 512);
    p.c_iter = static_cast<i64>(rng() % 8192);
    if (rng() % 4 == 0) p = indirect_pattern(0x5000'0000, 1 << 20, rng());
    const Dim3 block{32, 1 + static_cast<u32>(rng() % 8), 1};
    const u32 warp = static_cast<u32>(rng() % ((block.count() + 31) / 32));
    const u32 iter = static_cast<u32>(rng() % 4);
    const Dim3 cta{static_cast<u32>(rng() % 16), static_cast<u32>(rng() % 16)};

    co.coalesce_into(p, block, cta, 7, warp, iter, lines);
    ASSERT_FALSE(lines.empty());
    EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
    EXPECT_TRUE(std::adjacent_find(lines.begin(), lines.end()) == lines.end());
    const u32 active =
        std::min(kWarpSize, block.count() - warp * kWarpSize);
    EXPECT_LE(lines.size(), active);

    std::set<Addr> want;
    for (u32 lane = 0; lane < active; ++lane) {
      const u32 t = warp * kWarpSize + lane;
      const Addr a = p.evaluate(unflatten(t, block), cta, iter,
                                static_cast<u64>(7) * block.count() + t);
      want.insert(line_base(a, 128));
    }
    EXPECT_EQ(lines, std::vector<Addr>(want.begin(), want.end()))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescerPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

/// Every load and store of every suite kernel, for every warp of a spread
/// of CTAs (first, second, middle, last and random ones) at several loop
/// iterations, coalesces exactly as the reference does.
TEST(CoalescerDifferentialTest, EverySuiteMemoryInstruction) {
  Coalescer co(128);
  std::vector<Addr> lines;
  std::mt19937_64 rng(17);
  u64 checked = 0;
  for (const Workload& w : workload_suite()) {
    const Kernel& k = w.kernel;
    const u32 ctas = k.num_ctas();
    const u32 warps = (k.threads_per_cta() + kWarpSize - 1) / kWarpSize;
    std::vector<u32> cta_flats{0, ctas / 2, ctas - 1};
    if (ctas > 1) cta_flats.push_back(1);
    for (int i = 0; i < 4; ++i)
      cta_flats.push_back(static_cast<u32>(rng() % ctas));
    for (const Instruction& ins : k.instructions()) {
      if (ins.op != Opcode::kMem) continue;
      for (const u32 cf : cta_flats) {
        const Dim3 cta = unflatten(cf, k.grid());
        for (u32 warp = 0; warp < warps; ++warp) {
          for (const u32 iter : {0u, 1u, 2u, 7u, 63u}) {
            co.coalesce_into(ins.addr, k.block(), cta, cf, warp, iter, lines);
            ASSERT_EQ(lines, reference_coalesce(ins.addr, k.block(), cta, cf,
                                                warp, iter, 128))
                << w.abbr << " pc " << ins.pc << " cta " << cf << " warp "
                << warp << " iter " << iter;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000u);
}

/// Synthetic patterns at the edges of the incremental walk: every block.x
/// in 1..64 with y and z extents (row and plane wraps inside a warp),
/// partial last warps, every indirect_group in 1..32 with and without a
/// region, wrap_bytes crossings and negative coefficients.
TEST(CoalescerDifferentialTest, SyntheticPatterns) {
  std::mt19937_64 rng(23);
  std::vector<Addr> lines;
  u64 checked = 0;
  const auto check = [&](const Coalescer& co, u32 line_size,
                         const AddressPattern& p, const Dim3& block) {
    const u32 warps = (block.count() + kWarpSize - 1) / kWarpSize;
    for (int i = 0; i < 3; ++i) {
      const Dim3 cta{static_cast<u32>(rng() % 64), static_cast<u32>(rng() % 8)};
      const u32 cta_flat = static_cast<u32>(rng() % 4096);
      const u32 iter = static_cast<u32>(rng() % 100);
      for (u32 warp = 0; warp <= warps; ++warp) {  // one past: no lanes
        co.coalesce_into(p, block, cta, cta_flat, warp, iter, lines);
        ASSERT_EQ(lines, reference_coalesce(p, block, cta, cta_flat, warp,
                                            iter, line_size))
            << "block " << block.x << "x" << block.y << "x" << block.z
            << " warp " << warp << " indirect " << p.indirect << " group "
            << p.indirect_group;
        ++checked;
      }
    }
  };
  const auto coef = [&](u64 range) {
    return static_cast<i64>(rng() % (2 * range)) - static_cast<i64>(range);
  };
  for (const u32 line_size : {32u, 128u}) {
    const Coalescer co(line_size);
    for (u32 bx = 1; bx <= 64; ++bx) {
      for (const Dim3 extent : {Dim3{1, 1, 1}, Dim3{1, 3, 1}, Dim3{1, 2, 3}}) {
        const Dim3 block{bx, extent.y, extent.z};
        AddressPattern p;
        p.base = 0x1000'0000 + (rng() % 512) * 4;
        p.c_tid_x = coef(16);  // negative strides included
        p.c_tid_y = coef(8192);
        p.c_cta_x = coef(4096);
        p.c_cta_y = coef(65536);
        p.c_iter = coef(2048);
        check(co, line_size, p, block);
        p.wrap_bytes = u64{1} << (7 + rng() % 6);  // 128 B..4 KiB: crossings
        check(co, line_size, p, block);
      }
    }
    for (u32 g = 1; g <= kWarpSize; ++g) {
      for (const u64 region : {u64{0}, u64{1} << 20, u64{12345}}) {
        AddressPattern p = indirect_pattern(0x5000'0000, region, rng());
        p.indirect_group = g;
        check(co, line_size, p, {1 + static_cast<u32>(rng() % 64), 1, 1});
        check(co, line_size, p, {16, 3, 2});
        check(co, line_size, p, {256, 1, 1});
      }
    }
  }
  EXPECT_GT(checked, 10000u);
}

// -------------------------------------------------------- CAPS property ---

/// Ground-truth check: for a perfectly strided load arriving in a random
/// warp order, every prefetch CAPS emits must equal base + warp*stride, and
/// no (CTA, warp) pair may be prefetched twice.
class CapsPropertyTest : public ::testing::TestWithParam<u32> {};

TEST_P(CapsPropertyTest, AllPrefetchesMatchGroundTruth) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    GpuConfig cfg;
    CapsPrefetcher pf(cfg);
    const u32 num_ctas = 1 + static_cast<u32>(rng() % 8);
    const u32 warps = 2 + static_cast<u32>(rng() % 7);
    const i64 stride = static_cast<i64>(1 + rng() % 64) * 128;
    std::vector<Addr> cta_base(num_ctas);
    for (u32 c = 0; c < num_ctas; ++c) {
      cta_base[c] = 0x1000'0000 + (rng() % 4096) * 0x10000;
      pf.on_cta_launch(c, {c, 0}, c * warps, warps);
    }

    // Random arrival order of (cta, warp) load issues.
    std::vector<std::pair<u32, u32>> order;
    for (u32 c = 0; c < num_ctas; ++c)
      for (u32 w = 0; w < warps; ++w) order.emplace_back(c, w);
    std::shuffle(order.begin(), order.end(), rng);

    std::set<std::pair<u32, Addr>> prefetched;  // (target slot, line)
    std::vector<PrefetchRequest> out;
    for (auto [c, w] : order) {
      LoadIssueInfo info;
      info.pc = 0x80;
      info.cta_slot = c;
      info.cta_id = {c, 0};
      info.warp_slot = c * warps + w;
      info.warp_in_cta = w;
      info.warps_in_cta = warps;
      std::vector<Addr> lines{
          static_cast<Addr>(static_cast<i64>(cta_base[c]) + stride * w)};
      info.lines = lines;
      out.clear();
      pf.on_load_issue(info, out);
      for (const PrefetchRequest& r : out) {
        ASSERT_NE(r.target_warp_slot, kNoWarp);
        const u32 tc = static_cast<u32>(r.target_warp_slot) / warps;
        const u32 tw = static_cast<u32>(r.target_warp_slot) % warps;
        ASSERT_LT(tc, num_ctas);
        // Ground truth address for the targeted warp.
        const Addr expect = static_cast<Addr>(
            static_cast<i64>(cta_base[tc]) + stride * tw);
        EXPECT_EQ(r.line, expect)
            << "trial " << trial << " cta " << tc << " warp " << tw;
        // No duplicate prefetch for the same target line.
        EXPECT_TRUE(prefetched.insert({*&tc * warps + tw, r.line}).second);
      }
    }
    EXPECT_EQ(pf.engine_stats().mispredictions, 0u) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapsPropertyTest, ::testing::Values(11, 22, 33));

// ------------------------------------------------------- DRAM properties ---

/// Work conservation: every submitted request completes exactly once, for
/// random address streams and read/write mixes.
class DramPropertyTest : public ::testing::TestWithParam<u32> {};

TEST_P(DramPropertyTest, EveryRequestCompletesOnce) {
  std::mt19937_64 rng(GetParam());
  GpuConfig cfg;
  std::multiset<u64> completed;
  DramChannel ch(cfg);
  const auto step = [&](Cycle now) {
    MemRequest r;
    while (ch.pop_done(now, r)) completed.insert(r.created);
    ch.cycle(now);
  };
  std::vector<Cycle> submitted;  // a request's identity: at most one a cycle
  Cycle t = 0;
  while (submitted.size() < 500) {
    if (ch.can_accept() && rng() % 2 == 0) {
      MemRequest r;
      r.line = (rng() % 512) * 128;
      r.is_write = rng() % 4 == 0;
      r.created = t;
      ch.submit(r);
      submitted.push_back(t);
    }
    step(t++);
  }
  for (Cycle end = t + 50000; t < end && completed.size() < submitted.size();
       ++t)
    step(t);
  ASSERT_EQ(completed.size(), submitted.size());
  for (const Cycle c : submitted)
    EXPECT_EQ(completed.count(c), 1u) << "request submitted at " << c;
  EXPECT_EQ(ch.stats().reads + ch.stats().writes, submitted.size());
  EXPECT_EQ(ch.stats().row_hits + ch.stats().row_misses, submitted.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramPropertyTest,
                         ::testing::Values(5, 6, 7, 8));

TEST(DramTimingPropertyTest, SlowerTimingNeverFaster) {
  // Doubling CAS latency must not reduce total service time for a fixed
  // request stream.
  auto run = [](u32 tcl) {
    GpuConfig cfg;
    cfg.dram_timing.tCL = tcl;
    u64 done = 0;
    DramChannel ch(cfg);
    const auto step = [&](Cycle now) {
      MemRequest r;
      while (ch.pop_done(now, r)) ++done;
      ch.cycle(now);
    };
    Cycle t = 0;
    for (u32 i = 0; i < 16; ++i) {
      MemRequest r;
      r.line = static_cast<Addr>(i) * 4096;
      while (!ch.can_accept()) step(t++);
      ch.submit(r);
    }
    while (done < 16) step(t++);
    return t;
  };
  EXPECT_LE(run(12), run(24));
}

// ------------------------------------------------- full-suite smoke runs ---

/// Every Table IV workload completes under CAPS with invariants intact
/// (parameterized: one test per benchmark).
class WorkloadSmokeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadSmokeTest, RunsToCompletionUnderCaps) {
  RunConfig rc;
  rc.workload = GetParam();
  rc.prefetcher = PrefetcherKind::kCaps;
  rc.base.num_sms = 4;
  const RunResult r = run_experiment(rc);
  const Kernel& k = find_workload(GetParam()).kernel;
  EXPECT_FALSE(r.stats.hit_cycle_limit);
  EXPECT_EQ(r.stats.sm.ctas_completed, k.num_ctas());
  EXPECT_EQ(r.stats.sm.issued_instructions,
            k.dynamic_warp_instructions() * k.warps_per_cta() * k.num_ctas());
  EXPECT_EQ(r.stats.sm.l1_hits + r.stats.sm.l1_misses, r.stats.sm.l1_accesses);
  // A prefetcher may be quiet on irregular kernels but must never be
  // "more useful than issued".
  EXPECT_LE(r.stats.sm.pf_useful + r.stats.sm.pf_useful_late,
            r.stats.sm.pf_issued_to_mem);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadSmokeTest,
                         ::testing::Values("CP", "LPS", "BPR", "HSP", "MRQ",
                                           "STE", "CNV", "HST", "JC1", "FFT",
                                           "SCN", "MM", "PVR", "CCL", "BFS",
                                           "KM"));

// -------------------------------------------------------- PAS-GTO (ext) ---

class PasGtoTest : public ::testing::Test {
 protected:
  GpuConfig cfg_;
  std::vector<WarpContext> warps_;

  void SetUp() override {
    cfg_.max_warps_per_sm = 8;
    warps_.resize(8);
    for (u32 w = 0; w < 8; ++w) {
      warps_[w].status = WarpStatus::kActive;
      warps_[w].launch_order = w;
    }
  }

  std::unique_ptr<PasGtoScheduler> make() {
    return std::make_unique<PasGtoScheduler>(cfg_, warps_);
  }
};

TEST_F(PasGtoTest, LeadingWarpsScheduledFirst) {
  auto s = make();
  s->on_cta_launch(0, 0, 4);
  s->on_cta_launch(1, 4, 4);
  // Both leading warps outrank everything; oldest (slot 0) first.
  EXPECT_EQ(s->pick(0), 0);
  s->on_global_access(0);  // computed its base: the scheduler clears it
  EXPECT_EQ(s->pick(0), 4);
  s->on_global_access(4);
  // Now plain GTO: greedy on the last scheduled warp.
  EXPECT_EQ(s->pick(0), 4);
}

TEST_F(PasGtoTest, FallsBackToGreedyOldest) {
  auto s = make();  // no CTA launches: no leading warps
  const i32 first = s->pick(0);
  EXPECT_EQ(first, 0);  // oldest
  EXPECT_EQ(s->pick(0), 0);  // greedy
  warps_[0].status = WarpStatus::kDone;
  s->on_warp_done(0);
  EXPECT_EQ(s->pick(0), 1);
}

TEST_F(PasGtoTest, RunsAFullKernel) {
  GpuConfig cfg;
  cfg.num_sms = 2;
  const Kernel& k = find_workload("SCN").kernel;
  SmPolicyFactories pol;
  pol.make_prefetcher = [](const GpuConfig& c) {
    return std::make_unique<CapsPrefetcher>(c);
  };
  pol.make_scheduler = [](const GpuConfig& c, std::vector<WarpContext>& w,
                          auto&&...) -> std::unique_ptr<Scheduler> {
    return std::make_unique<PasGtoScheduler>(c, w);
  };
  Gpu gpu(cfg, k, pol);
  const GpuStats s = gpu.run();
  EXPECT_FALSE(s.hit_cycle_limit);
  EXPECT_EQ(s.sm.ctas_completed, k.num_ctas());
}

/// Starvation property: a leading warp that stays runnable but ineligible
/// (scoreboard stall, issue-port conflict) must not block the slot — the
/// greedy leading pass skips it, and trailing warps keep issuing. Randomized
/// per-cycle stall patterns over both leaders and trailers.
class PasGtoStarvationTest : public ::testing::TestWithParam<u32> {};

TEST_P(PasGtoStarvationTest, IneligibleLeaderNeverStarvesTrailers) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    GpuConfig cfg;
    cfg.max_warps_per_sm = 8;
    std::vector<WarpContext> warps(8);
    for (u32 w = 0; w < 8; ++w) {
      warps[w].status = WarpStatus::kActive;
      warps[w].launch_order = w;
    }

    // Per-cycle eligibility: leaders (slots 0 and 4) are stalled most of
    // the time; trailers stall independently.
    constexpr Cycle kCycles = 256;
    std::vector<std::array<bool, 8>> elig(kCycles);
    for (auto& row : elig)
      for (u32 w = 0; w < 8; ++w)
        row[w] = (w % 4 == 0) ? (rng() % 8 == 0) : (rng() % 2 == 0);

    PasGtoScheduler s(cfg, warps);
    s.on_cta_launch(0, 0, 4);
    s.on_cta_launch(1, 4, 4);  // markers never cleared: leaders stay marked

    u64 blocked_opportunities = 0;  // cycles: no leader eligible, trailer is
    u64 trailer_picks_when_blocked = 0;
    for (Cycle t = 0; t < kCycles; ++t) {
      const auto& row = elig[static_cast<std::size_t>(t)];
      for (u32 w = 0; w < 8; ++w) warps[w].ready_at = row[w] ? t : t + 1;
      const i32 p = s.pick(t);

      bool any_eligible = false, leader_eligible = false;
      i32 oldest_leader = kNoWarp;
      for (u32 w = 0; w < 8; ++w) {
        if (!row[w]) continue;
        any_eligible = true;
        if (warps[w].leading && oldest_leader == kNoWarp) {
          leader_eligible = true;
          oldest_leader = static_cast<i32>(w);
        }
      }

      if (!any_eligible) {
        EXPECT_EQ(p, kNoWarp) << "trial " << trial << " cycle " << t;
        continue;
      }
      ASSERT_NE(p, kNoWarp) << "trial " << trial << " cycle " << t;
      EXPECT_TRUE(row[static_cast<u32>(p)])
          << "picked a stalled warp, trial " << trial << " cycle " << t;
      if (leader_eligible) {
        // Oldest eligible leading warp wins the greedy pass.
        EXPECT_EQ(p, oldest_leader) << "trial " << trial << " cycle " << t;
      } else {
        // The runnable-but-ineligible leaders must not hold the slot.
        ++blocked_opportunities;
        if (!warps[static_cast<u32>(p)].leading) ++trailer_picks_when_blocked;
      }
    }
    // Trailers ran on every single cycle the leaders were stalled.
    EXPECT_EQ(trailer_picks_when_blocked, blocked_opportunities);
    EXPECT_GT(blocked_opportunities, 0u) << "degenerate stall pattern";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PasGtoStarvationTest,
                         ::testing::Values(101, 202, 303, 404));

// ----------------------------------------------------- determinism sweep ---

class DeterminismTest : public ::testing::TestWithParam<PrefetcherKind> {};

TEST_P(DeterminismTest, RepeatRunsBitIdentical) {
  RunConfig rc;
  rc.workload = "LPS";
  rc.prefetcher = GetParam();
  rc.base.num_sms = 3;
  const RunResult a = run_experiment(rc);
  const RunResult b = run_experiment(rc);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.sm.l1_hits, b.stats.sm.l1_hits);
  EXPECT_EQ(a.stats.dram.row_hits, b.stats.dram.row_hits);
  EXPECT_EQ(a.stats.sm.pf_generated, b.stats.sm.pf_generated);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DeterminismTest,
                         ::testing::Values(PrefetcherKind::kNone,
                                           PrefetcherKind::kMta,
                                           PrefetcherKind::kLap,
                                           PrefetcherKind::kCaps),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

}  // namespace
}  // namespace caps
