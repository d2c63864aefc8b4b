// Tests for the SM substrate: coalescer, schedulers, CTA distributor, and
// single-SM execution behaviour (barriers, loops, CTA lifecycle).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "core/pas_gto_scheduler.hpp"
#include "core/pas_scheduler.hpp"
#include "gpu/coalescer.hpp"
#include "gpu/cta_distributor.hpp"
#include "gpu/gpu.hpp"
#include "gpu/scheduler.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "isa/kernel.hpp"
#include "workloads/workload.hpp"

namespace caps {
namespace {

// ------------------------------------------------------------ Coalescer ---

TEST(CoalescerTest, FullyCoalescedWarpIsOneLine) {
  Coalescer co(128);
  // 32 lanes * 4B, line-aligned base -> exactly one 128B line.
  AddressPattern p = linear_pattern(0x1000, 4, 32);
  std::vector<Addr> lines;
  co.coalesce_into(p, {32, 1, 1}, {0, 0}, 0, 0, 0, lines);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 0x1000u);
}

TEST(CoalescerTest, MisalignedBaseSplitsIntoTwoLines) {
  Coalescer co(128);
  AddressPattern p = linear_pattern(0x1040, 4, 32);  // 64B into a line
  std::vector<Addr> lines;
  co.coalesce_into(p, {32, 1, 1}, {0, 0}, 0, 0, 0, lines);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 0x1000u);
  EXPECT_EQ(lines[1], 0x1080u);
}

TEST(CoalescerTest, EightByteElementsUseTwoLines) {
  Coalescer co(128);
  AddressPattern p = linear_pattern(0x2000, 8, 32);
  std::vector<Addr> lines;
  co.coalesce_into(p, {32, 1, 1}, {0, 0}, 0, 0, 0, lines);
  EXPECT_EQ(lines.size(), 2u);
}

TEST(CoalescerTest, TwoDimensionalBlockSpansRows) {
  Coalescer co(128);
  // Block (16,8): a warp covers two rows of 16 threads; rows are 1024B
  // apart -> two distinct lines.
  AddressPattern p;
  p.base = 0x4000;
  p.c_tid_x = 4;
  p.c_tid_y = 1024;
  std::vector<Addr> lines;
  co.coalesce_into(p, {16, 8, 1}, {0, 0}, 0, /*warp=*/1, 0, lines);
  // Warp 1 = threads 32..63 = rows y=2,3.
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 0x4000u + 2048);
  EXPECT_EQ(lines[1], 0x4000u + 3072);
}

TEST(CoalescerTest, PartialWarpSkipsInactiveLanes) {
  Coalescer co(128);
  AddressPattern p = linear_pattern(0x1000, 4, 48);
  // Block of 48 threads: warp 1 has only 16 active lanes.
  std::vector<Addr> lines;
  co.coalesce_into(p, {48, 1, 1}, {0, 0}, 0, 1, 0, lines);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 0x1080u);  // threads 32..47 -> bytes 128..191
}

TEST(CoalescerTest, ResultIsSortedAndDeduplicated) {
  Coalescer co(128);
  AddressPattern p;  // all lanes at the same address
  p.base = 0x9000;
  std::vector<Addr> lines;
  co.coalesce_into(p, {32, 1, 1}, {0, 0}, 0, 0, 0, lines);
  EXPECT_EQ(lines.size(), 1u);
  AddressPattern strided = linear_pattern(0x9000, 4, 32);
  std::vector<Addr> l2;
  co.coalesce_into(strided, {256, 1, 1}, {0, 0}, 0, 2, 0, l2);
  EXPECT_TRUE(std::is_sorted(l2.begin(), l2.end()));
}

TEST(CoalescerTest, IterationAdvancesAddresses) {
  Coalescer co(128);
  AddressPattern p = linear_pattern(0x1000, 4, 32);
  p.c_iter = 4096;
  std::vector<Addr> it0;
  co.coalesce_into(p, {32, 1, 1}, {0, 0}, 0, 0, 0, it0);
  std::vector<Addr> it3;
  co.coalesce_into(p, {32, 1, 1}, {0, 0}, 0, 0, 3, it3);
  EXPECT_EQ(it3[0] - it0[0], 3u * 4096);
}

// ----------------------------------------------------------- Schedulers ---

class SchedulerFixture : public ::testing::Test {
 protected:
  GpuConfig cfg_;
  std::vector<WarpContext> warps_;

  void SetUp() override {
    cfg_.max_warps_per_sm = 8;
    cfg_.ready_queue_size = 4;
    warps_.resize(cfg_.max_warps_per_sm);
  }

  void activate(u32 first, u32 n) {
    for (u32 w = first; w < first + n; ++w) {
      warps_[w].status = WarpStatus::kActive;
      warps_[w].launch_order = w;
      warps_[w].warp_in_cta = w - first;
    }
  }

  /// Exactly the warps in `slots` wait on their loads, as the SM keeps
  /// the bit; a waiting warp is not eligible.
  void set_waiting(const std::set<u32>& slots) {
    for (u32 w = 0; w < warps_.size(); ++w)
      warps_[w].mem_wait = slots.contains(w);
  }

  /// The warps in `slots` are not ready in any cycle these tests pick in.
  void set_unready(const std::set<u32>& slots) {
    for (u32 w : slots) warps_[w].ready_at = kNever;
  }

  template <typename S>
  std::unique_ptr<S> make() {
    return std::make_unique<S>(cfg_, warps_);
  }
};

TEST_F(SchedulerFixture, LrrRotatesThroughWarps) {
  activate(0, 4);
  auto s = make<LrrScheduler>();
  std::vector<i32> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(s->pick(0));
  EXPECT_EQ(picks, (std::vector<i32>{1, 2, 3, 0, 1, 2, 3, 0}));
}

TEST_F(SchedulerFixture, LrrSkipsIneligible) {
  activate(0, 4);
  set_unready({1, 2});
  auto s = make<LrrScheduler>();
  EXPECT_EQ(s->pick(0), 3);
  EXPECT_EQ(s->pick(0), 0);
  EXPECT_EQ(s->pick(0), 3);
}

TEST_F(SchedulerFixture, LrrReturnsNoWarpWhenAllBlocked) {
  activate(0, 2);
  set_unready({0, 1});
  auto s = make<LrrScheduler>();
  EXPECT_EQ(s->pick(0), kNoWarp);
}

TEST_F(SchedulerFixture, GtoStaysGreedy) {
  activate(0, 4);
  auto s = make<GtoScheduler>();
  const i32 first = s->pick(0);
  EXPECT_EQ(s->pick(0), first);
  EXPECT_EQ(s->pick(0), first);
}

TEST_F(SchedulerFixture, GtoFallsBackToOldest) {
  activate(0, 4);
  auto s = make<GtoScheduler>();
  const i32 greedy = s->pick(0);
  ASSERT_EQ(greedy, 0);  // oldest by launch order
  set_unready({0});
  EXPECT_EQ(s->pick(0), 1);  // next oldest
  set_unready({0, 1});
  EXPECT_EQ(s->pick(0), 2);
}

TEST_F(SchedulerFixture, TwoLevelKeepsReadySetBounded) {
  activate(0, 8);
  auto s = make<TwoLevelScheduler>();
  s->on_cta_launch(0, 0, 8);
  EXPECT_EQ(s->ready_queue().size(), 4u);  // ready_queue_size
  EXPECT_EQ(s->pending_queue().size(), 4u);
}

TEST_F(SchedulerFixture, TwoLevelDemotesMemoryStalledWarps) {
  activate(0, 8);
  auto s = make<TwoLevelScheduler>();
  s->on_cta_launch(0, 0, 8);
  set_waiting({0, 1});
  s->pick(0);  // triggers maintenance
  const auto ready = s->ready_queue();
  EXPECT_EQ(ready.size(), 4u);
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 0u) == ready.end());
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 1u) == ready.end());
  // Warps 4 and 5 were promoted from pending.
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 4u) != ready.end());
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 5u) != ready.end());
}

TEST_F(SchedulerFixture, TwoLevelPromotesWhenLoadsReturn) {
  activate(0, 8);
  auto s = make<TwoLevelScheduler>();
  s->on_cta_launch(0, 0, 8);
  set_waiting({0, 1, 2, 3});
  s->pick(0);
  // Loads return for warp 0; meanwhile ready warp 4 stalls, freeing a
  // slot. Warp 0 must be promoted ahead of the still-blocked 1..3.
  set_waiting({1, 2, 3, 4});
  s->on_loads_complete(0);
  for (int i = 0; i < 4; ++i) s->pick(0);
  const auto ready = s->ready_queue();
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 0u) != ready.end());
}

TEST_F(SchedulerFixture, TwoLevelDemotesBarrierWarps) {
  activate(0, 8);
  auto s = make<TwoLevelScheduler>();
  s->on_cta_launch(0, 0, 8);
  // Warps 0-3 (the ready set) park at a barrier.
  for (u32 w = 0; w < 4; ++w) warps_[w].status = WarpStatus::kAtBarrier;
  s->pick(0);
  const auto ready = s->ready_queue();
  for (u32 w = 0; w < 4; ++w)
    EXPECT_TRUE(std::find(ready.begin(), ready.end(), w) == ready.end())
        << "barrier warp " << w << " still holds a ready slot";
  // The pending warps took their places: no deadlock.
  EXPECT_EQ(ready.size(), 4u);
}

TEST_F(SchedulerFixture, TwoLevelRemovesFinishedWarps) {
  activate(0, 6);
  auto s = make<TwoLevelScheduler>();
  s->on_cta_launch(0, 0, 6);
  warps_[0].status = WarpStatus::kDone;
  s->on_warp_done(0);
  const auto ready = s->ready_queue();
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 0u) == ready.end());
}

// The two-level scheduler re-checks demotion only for the warp it last
// picked and for warps a hook put into ready, and looks for a promotion only
// after an event that can make a pending warp promotable (DESIGN.md §13).
// Each test below pins one of those events. An issue is modelled as the SM
// does it: the issued warp's ready_at moves past the pick cycle.

TEST_F(SchedulerFixture, TwoLevelDemotesAPickedWarpThatStartsWaiting) {
  activate(0, 8);
  auto s = make<TwoLevelScheduler>();
  s->on_cta_launch(0, 0, 8);  // ready: 0..3; pending: 4..7
  ASSERT_EQ(s->pick(0), 0);
  // Warp 0 issued a load; its next instruction consumes it.
  warps_[0].ready_at = 1;
  set_waiting({0});
  s->pick(1);
  const auto ready = s->ready_queue();
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 0u) == ready.end());
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 4u) != ready.end());
}

TEST_F(SchedulerFixture, TwoLevelPromotesAPendingWarpWhenItsLastLoadReturns) {
  cfg_.ready_queue_size = 2;
  activate(0, 4);
  auto s = make<TwoLevelScheduler>();
  // Every warp waits on memory before it enters a queue: a pending warp
  // never starts waiting.
  set_waiting({0, 1, 2, 3});
  s->on_cta_launch(0, 0, 4);  // ready: 0, 1; pending: 2, 3
  // 0 and 1 are demoted, and no pending warp is promotable.
  ASSERT_EQ(s->pick(0), kNoWarp);
  ASSERT_EQ(s->pending_queue().size(), 4u);
  set_waiting({0, 1, 3});
  s->on_loads_complete(2);
  EXPECT_EQ(s->pick(1), 2);
}

TEST_F(SchedulerFixture, TwoLevelPromotesPendingWarpsABarrierReleases) {
  cfg_.ready_queue_size = 2;
  activate(0, 3);
  auto s = make<TwoLevelScheduler>();
  s->on_cta_launch(0, 0, 3);  // ready: 0, 1; pending: 2
  const auto arrive = [&](u32 w, Cycle now) {
    warps_[w].status = WarpStatus::kAtBarrier;
    warps_[w].ready_at = now + 1;
  };
  ASSERT_EQ(s->pick(0), 0);
  arrive(0, 0);
  ASSERT_EQ(s->pick(1), 1);  // 0 demoted, 2 promoted
  arrive(1, 1);
  ASSERT_EQ(s->pick(2), 2);  // 1 demoted; 0 and 1 are not promotable
  ASSERT_EQ(s->pending_queue().size(), 2u);
  // Warp 2 arrives last and releases the barrier; its next instruction
  // waits on a load it issued before the barrier.
  for (u32 w : {0u, 1u}) warps_[w].status = WarpStatus::kActive;
  for (u32 w : {0u, 1u, 2u}) warps_[w].ready_at = 3;
  set_waiting({2});
  EXPECT_EQ(s->pick(3), 0);
  const auto ready = s->ready_queue();
  EXPECT_EQ(ready.size(), 2u);
  for (u32 w : {0u, 1u})
    EXPECT_TRUE(std::find(ready.begin(), ready.end(), w) != ready.end())
        << "released warp " << w;
}

TEST_F(SchedulerFixture, TwoLevelPromotesALaunchOverflowWhenRoomOpens) {
  cfg_.ready_queue_size = 2;
  activate(0, 4);
  auto s = make<TwoLevelScheduler>();
  s->on_cta_launch(0, 0, 2);  // fills the ready queue
  ASSERT_EQ(s->pick(0), 0);
  s->on_cta_launch(1, 2, 2);  // no room: 2 and 3 wait in pending
  ASSERT_EQ(s->pending_queue().size(), 2u);
  warps_[0].status = WarpStatus::kDone;
  s->on_warp_done(0);
  s->pick(1);
  const auto ready = s->ready_queue();
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 2u) != ready.end());
}

TEST_F(SchedulerFixture, OrchPromotesEvenWarpsFirst) {
  cfg_.ready_queue_size = 2;  // only two promotion slots
  activate(0, 8);
  auto s = make<OrchScheduler>();
  s->on_cta_launch(0, 0, 8);  // ready: 0,1; pending: 2..7
  // Demote everything in ready.
  set_waiting({0, 1});
  s->pick(0);
  // Promotion must have preferred even warp-in-CTA ids: 2 and 4 (the two
  // scheduling groups stay interleaved). pick() rotates the deque, so
  // check membership rather than position.
  const auto ready = s->ready_queue();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 2u) != ready.end());
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 4u) != ready.end());
}

TEST_F(SchedulerFixture, OrchPromotesOddWarpsWhenNoEvenWarpCan) {
  cfg_.ready_queue_size = 2;
  activate(0, 8);
  auto s = make<OrchScheduler>();
  // Demote the ready set; every even warp is blocked on memory, the pending
  // ones since before they entered the pending queue.
  set_waiting({0, 1, 2, 4, 6});
  s->on_cta_launch(0, 0, 8);  // ready: 0,1; pending: 2..7
  s->pick(0);
  // With no even warp promotable, promotion falls back to FIFO: 3, then 5.
  const auto ready = s->ready_queue();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 3u) != ready.end());
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 5u) != ready.end());
}

// make_policies is the one kind-to-class mapping; each name() identifies
// the class it built.
TEST_F(SchedulerFixture, MakePoliciesBuildsEveryKind) {
  const std::pair<PrefetcherKind, const char*> engines[] = {
      {PrefetcherKind::kNone, "BASE"}, {PrefetcherKind::kIntra, "INTRA"},
      {PrefetcherKind::kInter, "INTER"}, {PrefetcherKind::kMta, "MTA"},
      {PrefetcherKind::kNlp, "NLP"},     {PrefetcherKind::kLap, "LAP"},
      {PrefetcherKind::kOrch, "LAP"},    {PrefetcherKind::kCaps, "CAPS"}};
  for (const auto& [kind, name] : engines) {
    auto pf = make_policies(kind, SchedulerKind::kTwoLevel, true)
                  .make_prefetcher(cfg_);
    EXPECT_STREQ(pf->name(), name) << to_string(kind);
  }

  const std::pair<SchedulerKind, const char*> schedulers[] = {
      {SchedulerKind::kLrr, "LRR"},      {SchedulerKind::kGto, "GTO"},
      {SchedulerKind::kTwoLevel, "TLV"}, {SchedulerKind::kPas, "PAS"},
      {SchedulerKind::kOrch, "ORCH-SCHED"}};
  activate(0, 2);
  for (const auto& [kind, name] : schedulers) {
    auto s = make_policies(PrefetcherKind::kNone, kind, true)
                 .make_scheduler(cfg_, warps_, nullptr, nullptr);
    EXPECT_STREQ(s->name(), name) << to_string(kind);
    s->on_cta_launch(0, 0, 2);
    EXPECT_NE(s->pick(0), kNoWarp) << to_string(kind);
  }
}

// Every scheduler reads eligibility from WarpContext alone. Each is built
// with null predicates, as the benchmark's timing decorator builds its base,
// and picked over a seeded random history of warp states that the SM could
// produce: issues move ready_at, loads set mem_wait until they return,
// warps park at and leave barriers, and finish. Every pick must be no warp
// or a warp that WarpContext::eligible() admits.
TEST(SchedulerContractTest, NullPredicatesPickByWarpState) {
  GpuConfig cfg;
  cfg.max_warps_per_sm = 16;
  cfg.max_ctas_per_sm = 4;
  cfg.ready_queue_size = 4;
  constexpr u32 kWarpsPerCta = 4;
  const SchedulerKind kinds[] = {SchedulerKind::kLrr, SchedulerKind::kGto,
                                 SchedulerKind::kTwoLevel, SchedulerKind::kPas,
                                 SchedulerKind::kOrch};
  for (u32 i = 0; i <= std::size(kinds); ++i) {
    std::vector<WarpContext> warps(cfg.max_warps_per_sm);
    std::unique_ptr<Scheduler> s =
        i < std::size(kinds)
            ? make_policies(PrefetcherKind::kNone, kinds[i], true)
                  .make_scheduler(cfg, warps, nullptr, nullptr)
            : std::make_unique<PasGtoScheduler>(cfg, warps);
    std::mt19937 rng(20261019 + i);
    u64 launches = 0;
    const auto launch = [&](u32 cta, Cycle now) {
      for (u32 w = cta * kWarpsPerCta; w < (cta + 1) * kWarpsPerCta; ++w) {
        warps[w] = WarpContext{};
        warps[w].status = WarpStatus::kActive;
        warps[w].cta_slot = cta;
        warps[w].warp_in_cta = w % kWarpsPerCta;
        warps[w].ready_at = now;
        warps[w].launch_order = launches++;
      }
      s->on_cta_launch(cta, cta * kWarpsPerCta, kWarpsPerCta);
    };
    // Release the barrier of `cta` once every live warp has arrived;
    // relaunch the CTA once every warp is done.
    const auto settle = [&](u32 cta, Cycle now) {
      u32 live = 0;
      u32 parked = 0;
      for (u32 w = cta * kWarpsPerCta; w < (cta + 1) * kWarpsPerCta; ++w) {
        if (warps[w].status == WarpStatus::kDone) continue;
        ++live;
        if (warps[w].status == WarpStatus::kAtBarrier) ++parked;
      }
      if (live == 0) {
        launch(cta, now + 1);
      } else if (parked == live) {
        for (u32 w = cta * kWarpsPerCta; w < (cta + 1) * kWarpsPerCta; ++w) {
          if (warps[w].status != WarpStatus::kAtBarrier) continue;
          warps[w].status = WarpStatus::kActive;
          warps[w].ready_at = now + 1;
          warps[w].mem_wait = warps[w].outstanding_loads > 0 && rng() % 2 == 0;
        }
      }
    };
    for (u32 cta = 0; cta < cfg.max_ctas_per_sm; ++cta) launch(cta, 0);

    u64 picked = 0;
    for (Cycle now = 0; now < 4000; ++now) {
      for (u32 w = 0; w < warps.size(); ++w) {
        if (warps[w].outstanding_loads == 0 || rng() % 6 != 0) continue;
        warps[w].outstanding_loads = 0;  // the last load returned
        warps[w].mem_wait = false;
        s->on_loads_complete(w);
      }
      for (u32 slot = 0; slot < 2; ++slot) {
        const i32 p = s->pick(now);
        if (p == kNoWarp) continue;
        ASSERT_TRUE(warps[static_cast<u32>(p)].eligible(now))
            << s->name() << " picked warp " << p << " at cycle " << now;
        ++picked;
        // Issue the picked warp's instruction.
        const u32 w = static_cast<u32>(p);
        WarpContext& wc = warps[w];
        wc.ready_at = now + 1 + rng() % 4;
        switch (rng() % 8) {
          case 0:
          case 1:  // a load whose value the next instruction consumes
            s->on_global_access(w);
            ++wc.outstanding_loads;
            wc.mem_wait = true;
            break;
          case 2:  // a load the warp does not wait on yet
            s->on_global_access(w);
            ++wc.outstanding_loads;
            break;
          case 3:
            wc.status = WarpStatus::kAtBarrier;
            settle(wc.cta_slot, now);
            break;
          case 4:
            if (wc.outstanding_loads > 0 || rng() % 4 != 0) break;
            wc.status = WarpStatus::kDone;
            s->on_warp_done(w);
            settle(wc.cta_slot, now);
            break;
          default:  // an ALU instruction
            break;
        }
      }
    }
    EXPECT_GT(picked, 1000u) << s->name();
    EXPECT_GT(launches, 4 * cfg.max_ctas_per_sm * kWarpsPerCta) << s->name();
  }
}

// ------------------------------------------------------ CTA distributor ---

TEST(CtaDistributorTest, InitialFillIsRoundRobin) {
  // Fig. 3 scenario: 12 CTAs, 3 SMs, 2 concurrent CTAs per SM.
  CtaDistributor d({12, 1, 1}, 3);
  std::vector<u32> sm_load(3, 0);
  // Emulate the GPU's dispatch loop for the initial fill.
  while (!d.all_dispatched()) {
    const u32 sm = d.rr_cursor();
    if (sm_load[sm] < 2) {
      d.dispatch(sm, 0);
      ++sm_load[sm];
      d.advance_cursor();
    } else {
      d.advance_cursor();
      bool any = false;
      for (u32 load : sm_load) any |= load < 2;
      if (!any) break;
    }
  }
  // First six CTAs alternate SMs 0,1,2,0,1,2 (one at a time).
  const auto& log = d.log();
  ASSERT_GE(log.size(), 6u);
  for (u32 i = 0; i < 6; ++i) {
    EXPECT_EQ(log[i].cta_flat, i);
    EXPECT_EQ(log[i].sm_id, i % 3);
  }
}

TEST(CtaDistributorTest, DispatchAdvancesQueueInOrder) {
  CtaDistributor d({4, 2, 1}, 2);
  EXPECT_EQ(d.remaining(), 8u);
  const Dim3 first = d.dispatch(0, 0);
  EXPECT_EQ(first, (Dim3{0, 0, 0}));
  const Dim3 second = d.dispatch(1, 0);
  EXPECT_EQ(second, (Dim3{1, 0, 0}));
  EXPECT_EQ(d.remaining(), 6u);
}

TEST(CtaDistributorTest, DemandDrivenAssignmentInFullGpu) {
  // Integration: in a real run, late CTAs go to whichever SM frees a slot
  // first, so per-SM CTA sequences are not contiguous (Section II-B).
  GpuConfig cfg;
  cfg.num_sms = 3;
  cfg.max_ctas_per_sm = 2;
  RunConfig rc;
  rc.workload = "MM";
  rc.base = cfg;
  // Run via harness to reuse policy wiring.
  SmPolicyFactories pol =
      make_policies(PrefetcherKind::kNone, SchedulerKind::kTwoLevel, true);
  const Workload& w = find_workload("MM");
  Gpu gpu(cfg, w.kernel, pol);
  gpu.run();
  const auto& log = gpu.distributor().log();
  ASSERT_EQ(log.size(), w.kernel.num_ctas());
  // Every SM received some CTA beyond the initial fill, and at least one
  // SM's assignment sequence has a gap (non-consecutive CTA ids).
  bool gap = false;
  for (u32 sm = 0; sm < cfg.num_sms; ++sm) {
    std::vector<u32> got;
    for (const auto& a : log)
      if (a.sm_id == sm) got.push_back(a.cta_flat);
    ASSERT_GT(got.size(), 2u);
    for (std::size_t i = 1; i < got.size(); ++i)
      if (got[i] != got[i - 1] + 1) gap = true;
  }
  EXPECT_TRUE(gap);
}

// ----------------------------------------------------- SM integration -----

GpuConfig tiny_gpu() {
  GpuConfig cfg;
  cfg.num_sms = 1;
  cfg.max_cycles = 2'000'000;
  return cfg;
}

GpuStats run_kernel(const Kernel& k, GpuConfig cfg = tiny_gpu()) {
  SmPolicyFactories pol =
      make_policies(PrefetcherKind::kNone, SchedulerKind::kTwoLevel, true);
  Gpu gpu(cfg, k, pol);
  return gpu.run();
}

TEST(SmTest, ExecutesExpectedInstructionCount) {
  KernelBuilder b("k", {4, 1, 1}, {64, 1, 1});
  b.alu(5);
  b.loop(3);
  b.alu(2);
  b.end_loop();
  Kernel k = b.build();
  GpuStats s = run_kernel(k);
  EXPECT_FALSE(s.hit_cycle_limit);
  const u64 expected = k.dynamic_warp_instructions() * k.warps_per_cta() *
                       k.num_ctas();
  EXPECT_EQ(s.sm.issued_instructions, expected);
}

TEST(SmTest, BarrierSynchronizesWholeCta) {
  KernelBuilder b("k", {2, 1, 1}, {128, 1, 1});
  b.alu(3);
  b.barrier();
  b.alu(2);
  Kernel k = b.build();
  GpuStats s = run_kernel(k);
  EXPECT_FALSE(s.hit_cycle_limit);
  EXPECT_EQ(s.sm.ctas_completed, 2u);
}

TEST(SmTest, LoadsGoThroughTheMemorySystem) {
  KernelBuilder b("k", {2, 1, 1}, {64, 1, 1});
  b.load(linear_pattern(0x100000, 4, 64));
  Kernel k = b.build();
  GpuStats s = run_kernel(k);
  EXPECT_FALSE(s.hit_cycle_limit);
  EXPECT_GT(s.sm.l1_accesses, 0u);
  EXPECT_GT(s.sm.demand_to_mem, 0u);
  EXPECT_GT(s.dram.reads, 0u);
}

TEST(SmTest, StoresReachDramWithoutBlocking) {
  KernelBuilder b("k", {2, 1, 1}, {64, 1, 1});
  b.store(linear_pattern(0x200000, 4, 64));
  b.alu(1);
  Kernel k = b.build();
  GpuStats s = run_kernel(k);
  EXPECT_FALSE(s.hit_cycle_limit);
  EXPECT_GT(s.sm.stores_to_mem, 0u);
  EXPECT_EQ(s.dram.reads, 0u);  // write-allocate without fill
}

TEST(SmTest, CtaResourceLimitRespectsWarpBudget) {
  // 8 warps per CTA and 48 warp slots -> at most 6 concurrent CTAs even
  // though 8 CTA slots exist.
  KernelBuilder b("k", {20, 1, 1}, {256, 1, 1});
  b.alu(1);
  Kernel k = b.build();
  GpuConfig cfg = tiny_gpu();
  SmPolicyFactories pol =
      make_policies(PrefetcherKind::kNone, SchedulerKind::kTwoLevel, true);
  Gpu gpu(cfg, k, pol);
  EXPECT_EQ(gpu.sm(0).max_concurrent_ctas(), 6u);
  gpu.run();
  EXPECT_EQ(gpu.collect_stats().sm.ctas_completed, 20u);
}

TEST(SmTest, RepeatedLoadsHitInL1) {
  // The same line loaded twice back to back: second access must hit.
  KernelBuilder b("k", {1, 1, 1}, {32, 1, 1});
  b.load(linear_pattern(0x300000, 4, 32));
  b.load(linear_pattern(0x300000, 4, 32));
  Kernel k = b.build();
  GpuStats s = run_kernel(k);
  EXPECT_EQ(s.sm.l1_hits, 1u);
  EXPECT_EQ(s.dram.reads, 1u);
}

// ------------------------------------------- Refused memory issue -----

/// Records the coalesced lines of every issue it observes, and checks that a
/// launched CTA's warps start with no remembered refusal. On CTA completion
/// it leaves a stale count in the retired slots, so the relaunch check
/// fails unless launching clears it.
class RefusalProbe final : public Prefetcher {
 public:
  struct Issue {
    u32 warp_slot;
    Dim3 cta_id;
    u32 warp_in_cta;
    u32 iteration;
    std::vector<Addr> lines;
  };

  RefusalProbe(std::vector<WarpContext>* const* warps,
               std::vector<Issue>* issues, u32* dirty_launches)
      : warps_(warps), issues_(issues), dirty_launches_(dirty_launches) {}

  void on_load_issue(const LoadIssueInfo& info,
                     std::vector<PrefetchRequest>&) override {
    issues_->push_back({info.warp_slot, info.cta_id, info.warp_in_cta,
                        info.iteration,
                        {info.lines.begin(), info.lines.end()}});
  }
  void on_cta_launch(u32 cta_slot, const Dim3&, u32 first_warp,
                     u32 num_warps) override {
    first_warp_[cta_slot] = first_warp;
    num_warps_[cta_slot] = num_warps;
    for (u32 w = first_warp; w < first_warp + num_warps; ++w)
      if ((**warps_)[w].stalled_lines != 0) ++*dirty_launches_;
  }
  void on_cta_complete(u32 cta_slot) override {
    for (u32 w = first_warp_[cta_slot];
         w < first_warp_[cta_slot] + num_warps_[cta_slot]; ++w)
      (**warps_)[w].stalled_lines = 7;
  }
  const char* name() const override { return "probe"; }

 private:
  std::vector<WarpContext>* const* warps_;
  std::vector<Issue>* issues_;
  u32* dirty_launches_;
  u32 first_warp_[8] = {};
  u32 num_warps_[8] = {};
};

TEST(SmTest, RefusedLoadIssuesItsOwnLinesAndCountsEveryRetry) {
  // Three warps per CTA, each loading 32 scattered lines into a 32-entry
  // LD/ST queue: a warp is refused until the lines ahead of it drain, and
  // the two waiting warps take turns being refused, each coalescing into
  // the SM's shared scratch. One CTA slot, so the second CTA relaunches
  // into it.
  AddressPattern p = indirect_pattern(0x1000'0000, 1ULL << 26, 11);
  p.indirect_group = 1;
  KernelBuilder b("k", {2, 1, 1}, {96, 1, 1});
  b.load(p);
  const Kernel k = b.build();
  GpuConfig cfg = tiny_gpu();
  cfg.ldst_queue_size = 32;
  cfg.max_ctas_per_sm = 1;

  std::vector<WarpContext>* warps = nullptr;
  std::vector<RefusalProbe::Issue> issues;
  u32 dirty_launches = 0;
  SmPolicyFactories pol =
      make_policies(PrefetcherKind::kNone, SchedulerKind::kTwoLevel, true);
  pol.make_scheduler = [base = pol.make_scheduler, &warps](
                           const GpuConfig& c, std::vector<WarpContext>& w,
                           auto&&...) {
    warps = &w;
    return base(c, w, nullptr, nullptr);
  };
  pol.make_prefetcher = [&](const GpuConfig&) {
    return std::make_unique<RefusalProbe>(&warps, &issues, &dirty_launches);
  };
  std::vector<TraceEvent> events;
  Gpu gpu(cfg, k, pol, [&](const TraceEvent& e) {
    if (e.kind == TraceKind::kLoadIssue) events.push_back(e);
  });

  u32 max_stalled = 0;
  while (!gpu.done() && gpu.now() < cfg.max_cycles) {
    gpu.step();
    for (const WarpContext& wc : *warps)
      if (wc.status == WarpStatus::kActive)
        max_stalled = std::max(max_stalled, wc.stalled_lines);
  }
  ASSERT_TRUE(gpu.done());
  const GpuStats s = gpu.collect_stats();

  // Every issue carries exactly the lines a fresh coalesce returns.
  Coalescer co(cfg.l1d.line_size);
  std::vector<Addr> fresh;
  ASSERT_EQ(events.size(), 6u);
  ASSERT_EQ(issues.size(), 6u);
  for (std::size_t i = 0; i < issues.size(); ++i) {
    const RefusalProbe::Issue& is = issues[i];
    co.coalesce_into(p, k.block(), is.cta_id, flatten(is.cta_id, k.grid()),
                     is.warp_in_cta, is.iteration, fresh);
    ASSERT_EQ(fresh.size(), 32u);
    EXPECT_EQ(is.lines, fresh);
    EXPECT_EQ(events[i].warp_slot, static_cast<i32>(is.warp_slot));
    EXPECT_EQ(events[i].line, fresh.front());
    EXPECT_EQ(events[i].num_lines, 32u);
  }

  // From a CTA's first issue to its last, a waiting warp is tried, and
  // refused, exactly once per cycle: each attempt is counted.
  ASSERT_EQ(events[0].cta_id.x, events[2].cta_id.x);
  ASSERT_EQ(events[3].cta_id.x, events[5].cta_id.x);
  const u64 refused = (events[2].cycle - events[0].cycle) +
                      (events[5].cycle - events[3].cycle);
  EXPECT_GT(refused, 2u);
  EXPECT_EQ(s.sm.stall_ldst_full, refused);
  EXPECT_EQ(max_stalled, 32u);  // the refusal was remembered

  // The relaunched CTA found its slot's stale count cleared.
  EXPECT_EQ(s.sm.ctas_completed, 2u);
  EXPECT_EQ(dirty_launches, 0u);
}

// ------------------------------------------- SM-kept memory wait -----

/// Forwards every call to the SM's own scheduler and counts the picks of a
/// warp whose current instruction consumes loads that are still in flight:
/// the memory-wait bit the SM keeps must never let one through.
class WaitCheckScheduler final : public Scheduler {
 public:
  WaitCheckScheduler(std::unique_ptr<Scheduler> inner, const GpuConfig& cfg,
                     std::vector<WarpContext>& warps, const Kernel& kernel,
                     u32& early_picks)
      : Scheduler(cfg, warps),
        inner_(std::move(inner)),
        kernel_(kernel),
        early_picks_(early_picks) {}

  void on_cta_launch(u32 cta_slot, u32 first_warp, u32 num_warps) override {
    inner_->on_cta_launch(cta_slot, first_warp, num_warps);
  }
  void on_warp_done(u32 slot) override { inner_->on_warp_done(slot); }
  void on_loads_complete(u32 slot) override {
    inner_->on_loads_complete(slot);
  }
  void on_prefetch_fill(u32 slot) override { inner_->on_prefetch_fill(slot); }
  void on_global_access(u32 slot) override { inner_->on_global_access(slot); }
  i32 pick(Cycle now) override {
    const i32 slot = inner_->pick(now);
    if (slot != kNoWarp) {
      const WarpContext& wc = warps_[static_cast<u32>(slot)];
      if (wc.outstanding_loads > 0 && kernel_.instruction(wc.pc_idx).waits_mem)
        ++early_picks_;
    }
    return slot;
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Scheduler> inner_;
  const Kernel& kernel_;
  u32& early_picks_;
};

struct WaitCheckedRun {
  bool done = false;
  u32 early_picks = 0;
  u64 idle_cycles = 0;  ///< active cycles that issued nothing
  /// Whole-SM memory stalls recounted from the warps, by the definition.
  u64 expected_all_mem = 0;
  SmStats stats;
};

/// Runs `k` on one SM under `sched`, cycle by cycle, checking every pick
/// and recounting stall_cycles_all_mem from the warps after each step.
WaitCheckedRun run_checking_waits(const Kernel& k, SchedulerKind sched) {
  GpuConfig cfg = tiny_gpu();
  cfg.max_cycles = 200'000;
  std::vector<WarpContext>* warps = nullptr;
  WaitCheckedRun r;
  SmPolicyFactories pol = make_policies(PrefetcherKind::kNone, sched, true);
  pol.make_scheduler = [base = pol.make_scheduler, &warps, &k, &r](
                           const GpuConfig& c, std::vector<WarpContext>& w,
                           auto&&...) {
    warps = &w;
    return std::make_unique<WaitCheckScheduler>(base(c, w, nullptr, nullptr),
                                                c, w, k, r.early_picks);
  };
  Gpu gpu(cfg, k, pol);
  SmStats before;
  while (!gpu.done() && gpu.now() < cfg.max_cycles) {
    gpu.step();
    const SmStats& now = gpu.sm(0).stats();
    const bool idle = now.active_cycles != before.active_cycles &&
                      now.issued_instructions == before.issued_instructions;
    const bool waiting =
        std::any_of(warps->begin(), warps->end(), [&](const WarpContext& wc) {
          return wc.status == WarpStatus::kActive &&
                 wc.outstanding_loads > 0 &&
                 k.instruction(wc.pc_idx).waits_mem;
        });
    r.idle_cycles += idle ? 1 : 0;
    if (idle && waiting) ++r.expected_all_mem;
    before = now;
  }
  r.done = gpu.done();
  r.stats = gpu.sm(0).stats();
  return r;
}

TEST(SmWaitTest, ConsumersWaitForTheirLoadsAndStallsAreAttributed) {
  // Issue sets the wait; the last load's return clears it. The long ALU
  // dependence leaves the SM idle with no load in flight too, and those
  // cycles are not memory stalls.
  KernelBuilder b("k", {4, 1, 1}, {128, 1, 1});
  b.loop(3);
  b.load(linear_pattern(0x100000, 4, 128)).alu(2, /*dep_next=*/true, 60);
  b.end_loop();
  const Kernel k = b.build();
  for (SchedulerKind sched : {SchedulerKind::kTwoLevel, SchedulerKind::kLrr}) {
    const WaitCheckedRun r = run_checking_waits(k, sched);
    ASSERT_TRUE(r.done) << to_string(sched);
    EXPECT_EQ(r.early_picks, 0u) << to_string(sched);
    EXPECT_GT(r.stats.stall_cycles_all_mem, 0u) << to_string(sched);
    EXPECT_GT(r.idle_cycles, r.expected_all_mem) << to_string(sched);
    EXPECT_EQ(r.stats.stall_cycles_all_mem, r.expected_all_mem)
        << to_string(sched);
  }
}

TEST(SmWaitTest, WarpsReleasedFromABarrierWaitForLoadsIssuedBeforeIt) {
  // Each warp loads, passes the barrier, then consumes the load: a warp the
  // barrier releases may still have it in flight.
  KernelBuilder b("k", {2, 1, 1}, {128, 1, 1});
  b.load(linear_pattern(0x200000, 4, 128), /*consume=*/false);
  b.barrier();
  b.wait_mem();
  b.alu(1);
  const Kernel k = b.build();
  for (SchedulerKind sched : {SchedulerKind::kTwoLevel, SchedulerKind::kLrr}) {
    const WaitCheckedRun r = run_checking_waits(k, sched);
    ASSERT_TRUE(r.done) << to_string(sched);
    EXPECT_EQ(r.early_picks, 0u) << to_string(sched);
    EXPECT_EQ(r.stats.stall_cycles_all_mem, r.expected_all_mem)
        << to_string(sched);
  }
}

// ------------------------------------------------ LD/ST blocked heads -----

/// One LD/ST unit driven cycle by cycle against a real memory system, and
/// ticked, as its SM does, only when it is due. Its SM never cycles: it only
/// takes the unit's callbacks, and accesses bound to no warp leave it alone.
/// The unit keeps its wake in SM 0's calendar row, which the SM's own unit,
/// never ticked, leaves alone.
/// Lines kA, kB and kC map to partitions 0, 1 and 2.
struct LdStRig {
  static constexpr Addr kA = 0x0;
  static constexpr Addr kB = 0x400;
  static constexpr Addr kC = 0x800;

  explicit LdStRig(const GpuConfig& c)
      : cfg(c),
        mem(cfg),
        kernel(KernelBuilder("k", {1, 1, 1}, {32, 1, 1}).alu(1).build()),
        pol(make_policies(PrefetcherKind::kNone, SchedulerKind::kTwoLevel,
                          true)),
        sm(cfg, 0, kernel, mem, pol),
        ldst(cfg, sm, 0, mem, stats, nullptr) {}

  void load(Addr line) {
    L1Access a;
    a.line = line;
    ldst.push_demand(a);
  }
  void prefetch(Addr line) { ldst.push_prefetches({{.line = line}}, now); }
  /// Fill the request crossbar toward `line`'s partition with stores.
  void fill_xbar(Addr line) {
    MemRequest w;
    w.line = line;
    w.is_write = true;
    while (mem.can_accept(line)) mem.submit(w, now);
  }
  /// One cycle in Gpu::step order; `memory` false freezes the memory system,
  /// crossbar included.
  void tick(bool memory = true) {
    if (ldst.due(now)) {
      ldst.cycle(now);
      ++ticks;
    }
    if (memory) mem.cycle(now);
    ++now;
  }
  /// The unit's counters as of the cycles run so far, slept ones included.
  SmStats read() const {
    SmStats s = stats;
    ldst.add_slept(s, now);
    return s;
  }
  /// Tick until `stop()` holds after a cycle; returns that cycle.
  template <typename Stop>
  Cycle tick_until(Stop stop) {
    while (now < 100'000) {
      tick();
      if (stop()) return now - 1;
    }
    ADD_FAILURE() << "condition never held";
    return now;
  }

  GpuConfig cfg;
  MemorySystem mem;
  Kernel kernel;
  SmPolicyFactories pol;
  StreamingMultiprocessor sm;
  SmStats stats;
  LdStUnit ldst;
  Cycle now = 0;
  u32 ticks = 0;  ///< cycles the unit was due
};

TEST(LdStMemoTest, CrossbarFullHeadIssuesOnTheFirstFreeCycle) {
  LdStRig r(tiny_gpu());
  r.fill_xbar(LdStRig::kA);
  r.load(LdStRig::kA);
  const Cycle freed =
      r.tick_until([&] { return r.mem.can_accept(LdStRig::kA); });
  EXPECT_EQ(r.stats.demand_to_mem, 0u);
  r.tick();
  EXPECT_EQ(r.stats.demand_to_mem, 1u);
  EXPECT_EQ(r.stats.l1_accesses, 1u);  // counted once, when the probe ends
  // Refused in every cycle up to and including the one the crossbar freed.
  EXPECT_EQ(r.stats.stall_xbar_full, freed + 1);
  EXPECT_EQ(r.mem.request_xbar_stats().inject_stalls, freed + 1);
}

TEST(LdStMemoTest, MshrFullHeadIssuesOnTheFillCycle) {
  GpuConfig cfg = tiny_gpu();
  cfg.l1d.mshr_entries = 1;
  cfg.l1d.mshr_max_merged = 1;
  LdStRig r(cfg);
  r.load(LdStRig::kA);
  r.load(LdStRig::kB);
  r.tick();
  ASSERT_EQ(r.stats.demand_to_mem, 1u);
  const Cycle fill = r.tick_until([&] { return r.stats.l1_fills == 1; });
  EXPECT_EQ(r.stats.demand_to_mem, 2u);  // in the same cycle as the fill
  EXPECT_EQ(r.stats.stall_mshr_full, fill - 1);
}

TEST(LdStMemoTest, MergeFullHeadHitsOnTheFillCycle) {
  GpuConfig cfg = tiny_gpu();
  cfg.l1d.mshr_max_merged = 2;
  LdStRig r(cfg);
  for (int i = 0; i < 3; ++i) r.load(LdStRig::kA);
  r.tick();
  r.tick();
  ASSERT_EQ(r.stats.l1_mshr_merges, 1u);
  const Cycle fill = r.tick_until([&] { return r.stats.l1_fills == 1; });
  EXPECT_EQ(r.stats.l1_hits, 1u);
  EXPECT_EQ(r.stats.stall_merge_full, fill - 2);
}

TEST(LdStMemoTest, NewDemandHeadAfterAPopIsProbedFresh) {
  // The first head leaves through the crossbar check; the second, on the
  // same line, must see the entry the first allocated and merge.
  LdStRig r(tiny_gpu());
  r.load(LdStRig::kA);
  r.load(LdStRig::kA);
  r.tick();
  r.tick();
  EXPECT_EQ(r.stats.demand_to_mem, 1u);
  EXPECT_EQ(r.stats.l1_mshr_merges, 1u);
}

TEST(LdStMemoTest, NewPrefetchHeadAfterAPopIsProbedFresh) {
  LdStRig r(tiny_gpu());
  r.prefetch(LdStRig::kA);
  r.tick();
  ASSERT_EQ(r.stats.pf_issued_to_mem, 1u);
  r.prefetch(LdStRig::kA);
  r.tick();
  EXPECT_EQ(r.stats.pf_issued_to_mem, 1u);
  EXPECT_EQ(r.stats.pf_dropped_inflight, 1u);
}

TEST(LdStMemoTest, CrossbarBlockedHeadSeesAPrefetchTakeTheLastMshrEntry) {
  // Demand has the port first, and a prefetch of the head's own line waits
  // on the same crossbar queue, so a prefetch can only change a blocked
  // demand head's outcome through another line: here it takes the last
  // MSHR entry while the head waits on the crossbar.
  GpuConfig cfg = tiny_gpu();
  cfg.l1d.mshr_entries = 1;
  cfg.l1d.mshr_max_merged = 1;
  LdStRig r(cfg);
  r.fill_xbar(LdStRig::kA);
  r.load(LdStRig::kA);
  r.prefetch(LdStRig::kB);
  r.tick(false);
  ASSERT_EQ(r.stats.pf_issued_to_mem, 1u);
  r.tick_until([&] { return r.stats.stall_mshr_full != 0; });
  EXPECT_EQ(r.stats.demand_to_mem, 0u);
  EXPECT_EQ(r.stats.stall_xbar_full + r.stats.stall_mshr_full, r.now);
  const Cycle fill = r.tick_until([&] { return r.stats.l1_fills == 1; });
  EXPECT_EQ(r.stats.demand_to_mem, 1u);
  EXPECT_EQ(r.stats.stall_xbar_full + r.stats.stall_mshr_full, fill);
}

TEST(LdStMemoTest, PrefetchHeadBlockedOnTheMshrIssuesOnTheFillCycle) {
  GpuConfig cfg = tiny_gpu();
  cfg.l1d.mshr_entries = 1;
  cfg.l1d.mshr_max_merged = 1;
  LdStRig r(cfg);
  r.load(LdStRig::kA);
  r.prefetch(LdStRig::kC);
  r.tick();  // the demand takes the port and the only entry
  const Cycle fill = r.tick_until([&] { return r.stats.l1_fills == 1; });
  EXPECT_EQ(r.stats.pf_issued_to_mem, 1u);
  EXPECT_EQ(r.stats.pf_stall_structural, fill - 1);
}

TEST(LdStMemoTest, ReprobingAnMshrFullHeadEveryCycleChangesNothing) {
  // A load head blocked on the only MSHR entry is probed again on every
  // cycle it is woken. Here a prefetch of a resident line wakes the unit
  // each cycle: it lands in the empty prefetch queue, and the same tick
  // drops it as a hit without touching LRU. Each probe counts one stall and
  // nothing else, and the head's fill evicts the line it evicts without the
  // wakes.
  // Lines kSet * i all map to L1 set 0.
  constexpr Addr kSet = 0x1000;
  struct Outcome {
    std::vector<bool> resident;  ///< lines 0 .. 5 * kSet after the fill
    SmStats stats;
  };
  const auto run = [&](bool wake) {
    GpuConfig cfg = tiny_gpu();
    cfg.l1d.mshr_entries = 1;
    cfg.l1d.mshr_max_merged = 1;
    LdStRig r(cfg);
    for (Addr i = 0; i < 4; ++i) r.load(kSet * i);  // fill the 4-way set
    r.tick_until([&] { return r.stats.l1_fills == 4; });
    r.load(0);  // a hit: line 0 becomes the most recently used
    r.tick_until([&] { return r.ldst.idle(); });
    r.load(4 * kSet);  // takes the only entry; its fill evicts line kSet
    r.load(5 * kSet);  // blocked until that fill
    r.tick();
    r.tick();
    const SmStats blocked = r.read();
    EXPECT_EQ(blocked.demand_to_mem, 5u);
    u64 cycles = 0;
    while (r.now < 100'000) {
      if (wake) r.prefetch(3 * kSet);
      const u32 ticks = r.ticks;
      r.tick();
      if (r.stats.l1_fills != 4) break;
      ++cycles;
      EXPECT_EQ(r.ticks, ticks + (wake ? 1 : 0));
      const SmStats s = r.read();
      EXPECT_EQ(s.stall_mshr_full, blocked.stall_mshr_full + cycles);
      EXPECT_EQ(s.l1_accesses, blocked.l1_accesses);
      EXPECT_EQ(s.l1_misses, blocked.l1_misses);
    }
    EXPECT_GT(cycles, 100u);
    EXPECT_EQ(r.stats.demand_to_mem, 6u);  // the head left on the fill cycle
    r.tick_until([&] { return r.stats.l1_fills == 6; });
    Outcome o;
    for (Addr i = 0; i <= 5; ++i)
      o.resident.push_back(r.ldst.l1().contains(i * kSet));
    o.stats = r.read();
    return o;
  };
  const Outcome woken = run(true);
  const Outcome slept = run(false);
  EXPECT_EQ(woken.resident,
            (std::vector<bool>{true, false, false, true, true, true}));
  EXPECT_EQ(woken.resident, slept.resident);
  EXPECT_EQ(woken.stats.stall_mshr_full, slept.stats.stall_mshr_full);
  EXPECT_EQ(woken.stats.l1_accesses, slept.stats.l1_accesses);
  EXPECT_EQ(woken.stats.l1_misses, slept.stats.l1_misses);
  EXPECT_GT(woken.stats.pf_dropped_hit, 100u);
}

// -------------------------------------------- LD/ST stall-only sleep -----
//
// Each test puts the unit to sleep, shows that it is not ticked and that its
// stall counters still advance once per cycle, and then fires one wake
// source and checks that the unit moves on that cycle.

TEST(LdStSleepTest, ReplyWakesAHeadBlockedOnTheMshr) {
  GpuConfig cfg = tiny_gpu();
  cfg.l1d.mshr_entries = 1;
  cfg.l1d.mshr_max_merged = 1;
  LdStRig r(cfg);
  r.load(LdStRig::kA);
  r.load(LdStRig::kB);
  r.tick();
  r.tick();  // kB finds the only entry taken
  ASSERT_EQ(r.read().stall_mshr_full, 1u);
  const u32 ticks = r.ticks;
  u64 slept = 0;
  while (!r.mem.reply_arrived(0, r.now) && r.now < 100'000) {
    r.tick();
    ++slept;
    EXPECT_EQ(r.read().stall_mshr_full, 1 + slept);
  }
  EXPECT_GT(slept, 0u);
  EXPECT_EQ(r.ticks, ticks);
  r.tick();
  EXPECT_EQ(r.ticks, ticks + 1);
  EXPECT_EQ(r.stats.l1_fills, 1u);
  EXPECT_EQ(r.stats.demand_to_mem, 2u);
  EXPECT_EQ(r.stats.stall_mshr_full, 1 + slept);
}

TEST(LdStSleepTest, HitCompletionWakesTheUnit) {
  // The hit's completion is the only event left; a prefetch head blocked
  // on a frozen crossbar lane keeps stalling meanwhile.
  GpuConfig cfg = tiny_gpu();
  LdStRig r(cfg);
  r.load(LdStRig::kA);
  r.tick_until([&] { return r.stats.l1_fills == 1; });
  r.load(LdStRig::kA);
  r.fill_xbar(LdStRig::kC);
  r.prefetch(LdStRig::kC);
  r.tick(false);  // the hit takes the port; completion due l1_hit_latency on
  const Cycle hit = r.now - 1;
  const Cycle due = hit + cfg.l1_hit_latency;
  ASSERT_EQ(r.stats.l1_hits, 1u);
  r.tick(false);  // the port finds only the blocked prefetch head
  ASSERT_EQ(r.stats.pf_stall_structural, 1u);
  const u32 ticks = r.ticks;
  while (r.now < due) {
    r.tick(false);
    EXPECT_EQ(r.ticks, ticks);
    EXPECT_EQ(r.read().pf_stall_structural, r.now - 1 - hit);
  }
  r.tick(false);
  EXPECT_EQ(r.ticks, ticks + 1);
  EXPECT_EQ(r.stats.pf_stall_structural, cfg.l1_hit_latency);
}

TEST(LdStSleepTest, PushDemandWakesTheUnit) {
  LdStRig r(tiny_gpu());
  r.fill_xbar(LdStRig::kC);
  r.prefetch(LdStRig::kC);
  for (u64 i = 1; i <= 10; ++i) {
    r.tick(false);
    EXPECT_EQ(r.read().pf_stall_structural, i);
  }
  EXPECT_EQ(r.ticks, 1u);
  r.load(LdStRig::kA);
  r.tick(false);
  EXPECT_EQ(r.ticks, 2u);
  EXPECT_EQ(r.stats.demand_to_mem, 1u);
  EXPECT_EQ(r.stats.pf_stall_structural, 10u);  // the demand took the port
}

TEST(LdStSleepTest, PushPrefetchesWakesTheUnit) {
  LdStRig r(tiny_gpu());
  r.fill_xbar(LdStRig::kA);
  r.load(LdStRig::kA);
  for (u64 i = 1; i <= 10; ++i) {
    r.tick(false);
    EXPECT_EQ(r.read().stall_xbar_full, i);
  }
  EXPECT_EQ(r.ticks, 1u);
  r.prefetch(LdStRig::kB);
  r.tick(false);
  EXPECT_EQ(r.ticks, 2u);
  EXPECT_EQ(r.stats.pf_issued_to_mem, 1u);
  EXPECT_EQ(r.stats.stall_xbar_full, 11u);
}

TEST(LdStSleepTest, DemandLaneRoomWakesACrossbarBlockedHead) {
  LdStRig r(tiny_gpu());
  r.fill_xbar(LdStRig::kA);
  r.load(LdStRig::kA);
  r.tick();
  const u32 ticks = r.ticks;
  while (!r.mem.lane_can_accept(0) && r.now < 100'000) {
    r.tick();
    EXPECT_EQ(r.read().stall_xbar_full, r.now);
    EXPECT_EQ(r.mem.request_xbar_stats().inject_stalls, r.now);
  }
  EXPECT_EQ(r.ticks, ticks);
  EXPECT_EQ(r.stats.demand_to_mem, 0u);
  r.tick();  // the first cycle with room
  EXPECT_EQ(r.ticks, ticks + 1);
  EXPECT_EQ(r.stats.demand_to_mem, 1u);
  EXPECT_EQ(r.stats.stall_xbar_full, r.now - 1);
  EXPECT_EQ(r.mem.request_xbar_stats().inject_stalls, r.now - 1);
}

TEST(LdStSleepTest, PrefetchLaneRoomWakesACrossbarBlockedPrefetchHead) {
  // The demand head waits on lane 0, kept full by reads that partition 0
  // cannot take (a one-entry L2 MSHR and a one-deep probe queue), and the
  // prefetch head on lane 2, which drains: the prefetch issues in the first
  // cycle lane 2 has room, long before lane 0 has any.
  GpuConfig cfg = tiny_gpu();
  cfg.l2.mshr_entries = 1;
  cfg.l2.mshr_max_merged = 1;
  cfg.l2_queue_size = 1;
  LdStRig r(cfg);
  const Addr stride =
      static_cast<Addr>(cfg.partition_chunk_bytes) * cfg.num_l2_partitions;
  Addr next = stride;
  const auto fill_lane0 = [&] {
    while (r.mem.can_accept(LdStRig::kA)) {
      MemRequest rd;
      rd.line = next;
      next += stride;
      r.mem.submit(rd, r.now);
    }
  };
  fill_lane0();
  for (int i = 0; i < 24; ++i) r.tick();
  fill_lane0();
  r.fill_xbar(LdStRig::kC);
  r.load(LdStRig::kA);
  r.prefetch(LdStRig::kC);
  const Cycle start = r.now;
  r.tick();
  ASSERT_EQ(r.stats.stall_xbar_full, 1u);
  ASSERT_EQ(r.stats.pf_stall_structural, 1u);
  const u32 ticks = r.ticks;
  while (!r.mem.lane_can_accept(2) && r.now < 100'000) {
    r.tick();
    EXPECT_EQ(r.read().stall_xbar_full, r.now - start);
    EXPECT_EQ(r.read().pf_stall_structural, r.now - start);
  }
  EXPECT_EQ(r.ticks, ticks);
  r.tick();
  EXPECT_EQ(r.ticks, ticks + 1);
  EXPECT_EQ(r.stats.pf_issued_to_mem, 1u);
  EXPECT_EQ(r.stats.demand_to_mem, 0u);
  EXPECT_FALSE(r.mem.lane_can_accept(0));
}

// Events that once woke the unit but cannot move a blocked head. Each test
// fires one on every cycle and shows that the unit is not ticked while its
// stall counters still advance once per cycle.

TEST(LdStSleepTest, LanePopWhoseRoomIsRetakenDoesNotWakeTheUnit) {
  // Partition 0 pops lane 0 on most cycles, and before the unit's next
  // tick another sender (another SM, played by the test) refills it.
  LdStRig r(tiny_gpu());
  r.fill_xbar(LdStRig::kA);
  r.load(LdStRig::kA);
  r.tick();
  const u32 ticks = r.ticks;
  u64 refilled = 0;
  for (int i = 0; i < 200; ++i) {
    const u64 sent = r.mem.request_xbar_stats().messages;
    r.fill_xbar(LdStRig::kA);
    refilled += r.mem.request_xbar_stats().messages - sent;
    r.tick();
    EXPECT_EQ(r.ticks, ticks);
    EXPECT_EQ(r.read().stall_xbar_full, r.now);
    EXPECT_EQ(r.mem.request_xbar_stats().inject_stalls, r.now);
  }
  EXPECT_GT(refilled, 20u);  // the lane popped that often
  EXPECT_EQ(r.stats.demand_to_mem, 0u);
}

TEST(LdStSleepTest, PushesBehindBlockedHeadsDoNotWakeTheUnit) {
  // The demand head waits on lane 0 and the prefetch head on lane 2, both
  // kept full as above; loads and prefetches queue up behind them.
  LdStRig r(tiny_gpu());
  r.fill_xbar(LdStRig::kA);
  r.fill_xbar(LdStRig::kC);
  r.load(LdStRig::kA);
  r.prefetch(LdStRig::kC);
  r.tick();
  ASSERT_EQ(r.stats.stall_xbar_full, 1u);
  ASSERT_EQ(r.stats.pf_stall_structural, 1u);
  const u32 ticks = r.ticks;
  for (Addr i = 1; r.ldst.can_accept(1); ++i) {
    r.fill_xbar(LdStRig::kA);
    r.fill_xbar(LdStRig::kC);
    r.load(LdStRig::kB + i * 0x1000);
    r.prefetch(LdStRig::kB + i * 0x1000);
    r.tick();
    EXPECT_EQ(r.ticks, ticks);
    const SmStats s = r.read();
    EXPECT_EQ(s.stall_xbar_full, r.now);
    EXPECT_EQ(s.pf_stall_structural, r.now);
    EXPECT_EQ(r.mem.request_xbar_stats().inject_stalls, r.now);
  }
  EXPECT_EQ(r.ldst.demand_queue_size(), r.cfg.ldst_queue_size);
  EXPECT_EQ(r.read().pf_generated, r.cfg.ldst_queue_size);
  EXPECT_EQ(r.read().pf_dropped_queue_full, 0u);
}

// ------------------------------------------- refused-issue elision -----

/// The warp states the random scheduler histories below draw from.
enum WarpDraw : u8 { kEligible, kBlocked, kWaiting };

/// Write `draw` into `w` as the SM would keep it: a blocked warp is not
/// ready until further notice, a waiting warp waits on its loads.
void set_draw(WarpContext& w, WarpDraw draw) {
  w.ready_at = draw == kBlocked ? kNever : 0;
  w.mem_wait = draw == kWaiting;
}

/// Drives two identical schedulers of kind S through the same random
/// history, then elides a k-cycle refused span on one with its override and
/// on the other with the replay default. As in the SM, the span follows a
/// pick that returned a warp, which the LD/ST unit refused. Warp states are
/// consistent with the SM's: an eligible warp never waits on memory.
template <typename S>
void check_elide_against_replay(std::mt19937& rng, Cycle k) {
  GpuConfig cfg;
  cfg.max_warps_per_sm = 16;
  cfg.ready_queue_size = 1 + static_cast<u32>(rng() % 8);
  std::vector<WarpContext> warps(cfg.max_warps_per_sm);
  for (u32 w = 0; w < warps.size(); ++w) {
    warps[w].status = WarpStatus::kActive;
    warps[w].warp_in_cta = w % 4;
    warps[w].launch_order = w;
  }
  S a(cfg, warps);
  S b(cfg, warps);
  const auto reshuffle = [&] {
    for (u32 w = 0; w < warps.size(); ++w) {
      const bool waited = warps[w].mem_wait;
      set_draw(warps[w], static_cast<WarpDraw>(rng() % 3));
      if (waited && !warps[w].mem_wait) {
        a.on_loads_complete(w);
        b.on_loads_complete(w);
      }
    }
  };
  for (u32 c = 0; c < 4; ++c) {
    a.on_cta_launch(c, c * 4, 4);
    b.on_cta_launch(c, c * 4, 4);
  }
  Cycle now = 0;
  for (u32 i = static_cast<u32>(rng() % 40); i > 0; --i, ++now) {
    reshuffle();
    ASSERT_EQ(a.pick(now), b.pick(now));
  }
  for (i32 refused = kNoWarp; refused == kNoWarp; ++now) {
    reshuffle();
    refused = a.pick(now);
    ASSERT_EQ(b.pick(now), refused);
  }
  a.elide_refused(now, now + k - 1);
  b.Scheduler::elide_refused(now, now + k - 1);
  ASSERT_EQ(a.ready_queue(), b.ready_queue()) << a.name() << " k=" << k;
  ASSERT_EQ(a.pending_queue(), b.pending_queue()) << a.name() << " k=" << k;
  now += k;
  // The last elided pick is remembered, as a real pick's would be.
  reshuffle();
  EXPECT_EQ(a.pick(now), b.pick(now)) << a.name() << " k=" << k;
  EXPECT_EQ(a.ready_queue(), b.ready_queue()) << a.name() << " k=" << k;
}

TEST(ElideRefusedTest, ClosedFormMatchesReplayingEveryPick) {
  std::mt19937 rng(20261017);
  for (Cycle k = 1; k <= 300; ++k) {
    check_elide_against_replay<TwoLevelScheduler>(rng, k);
    check_elide_against_replay<OrchScheduler>(rng, k);
    check_elide_against_replay<PasScheduler>(rng, k);
  }
}

/// What an elided span's end coincided with, in the cycle the issue stage
/// picked again.
struct ElisionEnds {
  u64 launch = 0;      ///< a CTA launched into the SM
  u64 last_load = 0;   ///< some warp's last load completed
  u64 prefetch = 0;    ///< a prefetch fill woke a warp
  u64 demand_pop = 0;  ///< the LD/ST demand queue popped
  u64 ready_at = 0;    ///< some warp's ready_at fell due
};

/// Runs an SM's scheduler next to a shadow copy of the same policy that is
/// picked in every cycle, as by an issue stage that never elides. Hooks go
/// to both; the real one gets elide_refused().
class ShadowedScheduler final : public Scheduler {
 public:
  ShadowedScheduler(std::unique_ptr<Scheduler> real,
                    std::unique_ptr<Scheduler> shadow, const GpuConfig& cfg,
                    std::vector<WarpContext>& warps)
      : Scheduler(cfg, warps),
        real_(std::move(real)),
        shadow_(std::move(shadow)) {}

  void on_cta_launch(u32 cta_slot, u32 first_warp, u32 num_warps) override {
    real_->on_cta_launch(cta_slot, first_warp, num_warps);
    shadow_->on_cta_launch(cta_slot, first_warp, num_warps);
  }
  void on_warp_done(u32 slot) override {
    real_->on_warp_done(slot);
    shadow_->on_warp_done(slot);
  }
  void on_loads_complete(u32 slot) override {
    real_->on_loads_complete(slot);
    shadow_->on_loads_complete(slot);
  }
  void on_prefetch_fill(u32 slot) override {
    real_->on_prefetch_fill(slot);
    shadow_->on_prefetch_fill(slot);
  }
  void on_global_access(u32 slot) override {
    real_->on_global_access(slot);
    shadow_->on_global_access(slot);
  }
  i32 pick(Cycle now) override {
    const i32 slot = real_->pick(now);
    if (shadow_->pick(now) != slot) ++mismatches;
    picked_at = now;
    return slot;
  }
  void elide_refused(Cycle from, Cycle to) override {
    real_->elide_refused(from, to);
  }
  const char* name() const override { return real_->name(); }

  /// The pick an SM that never elides would make in elided cycle `now`.
  i32 shadow_pick(Cycle now) { return shadow_->pick(now); }
  const std::vector<WarpContext>& warps() const { return warps_; }

  u64 mismatches = 0;
  Cycle picked_at = kNever;

 private:
  std::unique_ptr<Scheduler> real_;
  std::unique_ptr<Scheduler> shadow_;
};

struct ElisionCheck {
  u64 elided = 0;      ///< SM cycles elided, over all SMs
  u64 open_pops = 0;   ///< of those, cycles whose LD/ST demand queue popped
  u64 violations = 0;  ///< see run_with_shadow
  ElisionEnds ends;
  GpuStats stats;
};

/// Steps `k` by hand with every SM's scheduler shadowed, with
/// `before_step(gpu, elided)` ahead of each step, `elided[i]` telling
/// whether SM i elided the last cycle. Counts a violation when a real pick differs
/// from the shadow's, when the shadow's pick in an elided cycle is not a
/// warp the LD/ST unit refuses (no warp included: the issue stage elides
/// only refused cycles), or when an elided cycle's counters differ from
/// those of a refused cycle.
template <typename BeforeStep>
ElisionCheck run_with_shadow(const Kernel& k, const GpuConfig& cfg,
                             PrefetcherKind pf, SchedulerKind sched,
                             BeforeStep before_step) {
  std::vector<ShadowedScheduler*> shadows;
  SmPolicyFactories pol = make_policies(pf, sched, true);
  pol.make_scheduler = [base = pol.make_scheduler, &shadows](
                           const GpuConfig& c, std::vector<WarpContext>& w,
                           auto&&...) {
    auto s = std::make_unique<ShadowedScheduler>(
        base(c, w, nullptr, nullptr), base(c, w, nullptr, nullptr), c, w);
    shadows.push_back(s.get());
    return s;
  };
  Gpu gpu(cfg, k, pol);
  ElisionCheck r;
  const auto popped = [](const SmStats& a, const SmStats& b) {
    return a.l1_hits + a.l1_mshr_merges + a.demand_to_mem + a.stores_to_mem !=
           b.l1_hits + b.l1_mshr_merges + b.demand_to_mem + b.stores_to_mem;
  };
  std::vector<char> was_elided(cfg.num_sms, 0);
  std::vector<SmStats> before(cfg.num_sms);
  std::vector<std::vector<char>> waits(cfg.num_sms);
  while (!gpu.done() && gpu.now() < cfg.max_cycles) {
    const Cycle now = gpu.now();
    std::vector<u32> resident(cfg.num_sms);
    for (u32 i = 0; i < cfg.num_sms; ++i)
      resident[i] = gpu.sm(i).resident_ctas();
    before_step(gpu, was_elided);
    for (u32 i = 0; i < cfg.num_sms; ++i) {
      before[i] = gpu.sm(i).stats();
      waits[i].clear();
      for (const WarpContext& wc : shadows[i]->warps())
        waits[i].push_back(wc.mem_wait ? 1 : 0);
    }
    gpu.step();
    for (u32 i = 0; i < cfg.num_sms; ++i) {
      const StreamingMultiprocessor& sm = gpu.sm(i);
      ShadowedScheduler& sh = *shadows[i];
      const SmStats after = sm.stats();
      if (after.active_cycles == before[i].active_cycles) {
        was_elided[i] = 0;
        continue;
      }
      const std::vector<WarpContext>& warps = sh.warps();
      if (sh.picked_at != now) {  // elided
        ++r.elided;
        was_elided[i] = 1;
        const i32 slot = sh.shadow_pick(now);
        const bool refused =
            slot != kNoWarp &&
            k.instruction(warps[static_cast<u32>(slot)].pc_idx).op ==
                Opcode::kMem &&
            warps[static_cast<u32>(slot)].stalled_lines != 0 &&
            !sm.ldst().can_accept(warps[static_cast<u32>(slot)].stalled_lines);
        const bool any_wait = std::any_of(
            warps.begin(), warps.end(),
            [](const WarpContext& wc) { return wc.mem_wait; });
        const SmStats& b = before[i];
        const bool counted =
            after.active_cycles == b.active_cycles + 1 &&
            after.issue_slots == b.issue_slots + cfg.issue_width &&
            after.stall_ldst_full == b.stall_ldst_full + 1 &&
            after.stall_cycles_all_mem ==
                b.stall_cycles_all_mem + (any_wait ? 1 : 0) &&
            after.issued_instructions == b.issued_instructions;
        if (!refused || !counted) ++r.violations;
        if (popped(after, b)) ++r.open_pops;
        continue;
      }
      if (was_elided[i] != 0) {
        const SmStats& b = before[i];
        if (sm.resident_ctas() > resident[i]) ++r.ends.launch;
        for (u32 w = 0; w < warps.size(); ++w)
          if (waits[i][w] != 0 && warps[w].outstanding_loads == 0)
            ++r.ends.last_load;
        if (after.pf_wakeups != b.pf_wakeups) ++r.ends.prefetch;
        if (popped(after, b)) ++r.ends.demand_pop;
        for (const WarpContext& wc : warps)
          if (wc.status == WarpStatus::kActive && wc.ready_at == now)
            ++r.ends.ready_at;
      }
      was_elided[i] = 0;
    }
  }
  for (const ShadowedScheduler* sh : shadows) r.violations += sh->mismatches;
  r.stats = gpu.collect_stats();
  return r;
}

ElisionCheck run_with_shadow(const Kernel& k, const GpuConfig& cfg,
                             PrefetcherKind pf, SchedulerKind sched) {
  return run_with_shadow(k, cfg, pf, sched,
                         [](Gpu&, const std::vector<char>&) {});
}

/// A four-SM Table III machine capped mid-run: enough for the irregular
/// kernels to saturate it.
GpuConfig small_gpu(Cycle cycles) {
  GpuConfig cfg;
  cfg.num_sms = 4;
  cfg.max_cycles = cycles;
  return cfg;
}

TEST(IssueElisionTest, EveryScheduleMatchesAnSmThatNeverElides) {
  for (const char* wl : {"BFS", "PVR"}) {
    for (SchedulerKind sched :
         {SchedulerKind::kTwoLevel, SchedulerKind::kLrr, SchedulerKind::kGto,
          SchedulerKind::kOrch, SchedulerKind::kPas}) {
      const ElisionCheck r = run_with_shadow(find_workload(wl).kernel,
                                             small_gpu(20'000),
                                             PrefetcherKind::kCaps, sched);
      EXPECT_GT(r.elided, 1000u) << wl << " " << to_string(sched);
      EXPECT_EQ(r.violations, 0u) << wl << " " << to_string(sched);
    }
  }
}

// One test per event that ends an elided span. Each checks that the event
// did end spans and that no elided cycle differed from a refused one.

TEST(IssueElisionTest, EndsWhenAWarpsLastLoadCompletes) {
  const ElisionCheck r =
      run_with_shadow(find_workload("BFS").kernel, small_gpu(20'000),
                      PrefetcherKind::kNone, SchedulerKind::kLrr);
  EXPECT_GT(r.ends.last_load, 0u);
  EXPECT_EQ(r.violations, 0u);
}

TEST(IssueElisionTest, EndsOnAPrefetchFill) {
  const ElisionCheck r =
      run_with_shadow(find_workload("BFS").kernel, small_gpu(20'000),
                      PrefetcherKind::kCaps, SchedulerKind::kPas);
  EXPECT_GT(r.ends.prefetch, 0u);
  EXPECT_EQ(r.violations, 0u);
}

TEST(IssueElisionTest, EndsWhenTheDemandQueuePops) {
  const ElisionCheck r =
      run_with_shadow(find_workload("PVR").kernel, small_gpu(20'000),
                      PrefetcherKind::kNone, SchedulerKind::kTwoLevel);
  EXPECT_GT(r.ends.demand_pop, 0u);
  EXPECT_EQ(r.violations, 0u);
}

TEST(IssueElisionTest, PopsThatLeaveTooLittleRoomKeepTheSpanOpen) {
  // A pop that leaves the demand queue with less room than every warp
  // refused in the round needs does not end the span or restart the round.
  const ElisionCheck r =
      run_with_shadow(find_workload("PVR").kernel, small_gpu(20'000),
                      PrefetcherKind::kNone, SchedulerKind::kTwoLevel);
  EXPECT_GT(r.open_pops, 0u);
  EXPECT_EQ(r.violations, 0u);
}

TEST(IssueElisionTest, EndsAtTheNextReadyAt) {
  const ElisionCheck r =
      run_with_shadow(find_workload("PVR").kernel, small_gpu(20'000),
                      PrefetcherKind::kNone, SchedulerKind::kGto);
  EXPECT_GT(r.ends.ready_at, 0u);
  EXPECT_EQ(r.violations, 0u);
}

TEST(IssueElisionTest, EndsOnACtaLaunch) {
  // One SM, two CTAs of three warps loading 32 scattered lines each into a
  // 32-line LD/ST queue. Whenever the SM is eliding and has a free slot,
  // the test launches another copy of CTA 0 into it.
  AddressPattern p = indirect_pattern(0x1000'0000, 1ULL << 26, 11);
  p.indirect_group = 1;
  KernelBuilder b("k", {2, 1, 1}, {96, 1, 1});
  b.loop(4);
  b.load(p);
  b.alu(1);
  b.end_loop();
  const Kernel k = b.build();
  GpuConfig cfg = tiny_gpu();
  cfg.ldst_queue_size = 32;
  cfg.max_cycles = 50'000;
  u32 extra = 0;
  const ElisionCheck r = run_with_shadow(
      k, cfg, PrefetcherKind::kNone, SchedulerKind::kTwoLevel,
      [&](Gpu& gpu, const std::vector<char>& elided) {
        StreamingMultiprocessor& sm = gpu.sm_for_test(0);
        if (elided[0] != 0 && extra < 4 && sm.can_launch_cta() &&
            sm.launch_cta({0, 0, 0}, gpu.now()))
          ++extra;
      });
  EXPECT_EQ(extra, 4u);
  EXPECT_EQ(r.ends.launch, 4u);
  EXPECT_EQ(r.violations, 0u);
}

// ------------------------------------------------------ CTA dispatch -----

TEST(GpuTest, ACtaLaunchesInTheCycleAfterItsSmRetiresOne) {
  // Once every SM is full, an SM that retires a CTA gets the next one in
  // the following cycle's dispatch pass.
  KernelBuilder b("k", {96, 1, 1}, {64, 1, 1});
  b.load(linear_pattern(0x100000, 4, 64));
  b.alu(20, /*dep_next=*/true, 40);
  const Kernel k = b.build();
  GpuConfig cfg;
  cfg.num_sms = 3;
  cfg.max_ctas_per_sm = 2;
  Gpu gpu(cfg, k,
          make_policies(PrefetcherKind::kNone, SchedulerKind::kTwoLevel, true));
  std::vector<std::set<Cycle>> retired(cfg.num_sms);
  std::vector<u64> done(cfg.num_sms, 0);
  while (!gpu.done() && gpu.now() < cfg.max_cycles) {
    const Cycle now = gpu.now();
    gpu.step();
    for (u32 i = 0; i < cfg.num_sms; ++i) {
      const u64 d = gpu.sm(i).stats().ctas_completed;
      if (d != done[i]) retired[i].insert(now);
      done[i] = d;
    }
  }
  ASSERT_TRUE(gpu.done());
  u32 later = 0;
  for (const CtaAssignment& a : gpu.distributor().log()) {
    if (a.cycle == 0) continue;  // the initial fill
    ++later;
    EXPECT_TRUE(retired[a.sm_id].contains(a.cycle - 1))
        << "CTA " << a.cta_flat << " at cycle " << a.cycle;
  }
  EXPECT_EQ(later, 96u - cfg.num_sms * cfg.max_ctas_per_sm);
}

// ------------------------------------------- stats read mid-run -----

TEST(GpuTest, HandSteppedReadsMatchRunOnCappedStressConfigs) {
  // Read as perfbench does, a Gpu stepped by hand on Gpu::run()'s cadence
  // must report what run() reports, though these runs stop mid-flight
  // with sleeping components and elided issue spans.
  for (const char* wl : {"BFS", "MM"}) {
    for (PrefetcherKind pf : {PrefetcherKind::kNone, PrefetcherKind::kCaps}) {
      GpuConfig cfg;
      cfg.prefetcher = pf;
      cfg.ready_queue_size = 1;
      cfg.issue_width = 1;
      cfg.max_ctas_per_sm = 2;
      cfg.max_cycles = 30'000;
      const SmPolicyFactories pol =
          make_policies(pf, default_scheduler_for(pf), true);
      const Kernel& k = find_workload(wl).kernel;
      Gpu ran(cfg, k, pol);
      const GpuStats want = ran.run();
      Gpu stepped(cfg, k, pol);
      bool hit_limit = false;
      while (!((stepped.now() & 63) == 0 && stepped.done())) {
        if (stepped.now() >= cfg.max_cycles) {
          hit_limit = true;
          break;
        }
        stepped.step();
      }
      GpuStats got = stepped.collect_stats();
      got.hit_cycle_limit = hit_limit;  // only the loop knows why it stopped
      EXPECT_EQ(stats_signature(got), stats_signature(want)) << wl;
      const XbarStats a = stepped.memory().request_xbar_stats();
      const XbarStats b = ran.memory().request_xbar_stats();
      EXPECT_EQ(a.messages, b.messages) << wl;
      EXPECT_EQ(a.total_queue_delay, b.total_queue_delay) << wl;
      EXPECT_EQ(a.inject_stalls, b.inject_stalls) << wl;
      EXPECT_GT(a.inject_stalls, 0u) << wl;
      // The memory system saw what the SMs sent.
      EXPECT_EQ(got.core_requests(), a.messages) << wl;
      EXPECT_EQ(want.core_requests(), b.messages) << wl;
    }
  }
}

/// Forwards only the Scheduler virtuals that predate elide_refused(), as
/// the benchmark's timing decorator does: elided spans reach the wrapped
/// scheduler as replayed picks.
class ForwardingScheduler final : public Scheduler {
 public:
  ForwardingScheduler(std::unique_ptr<Scheduler> inner, const GpuConfig& cfg,
                      std::vector<WarpContext>& warps, u64& picks)
      : Scheduler(cfg, warps),
        inner_(std::move(inner)),
        picks_(picks) {}

  void on_cta_launch(u32 cta_slot, u32 first_warp, u32 num_warps) override {
    inner_->on_cta_launch(cta_slot, first_warp, num_warps);
  }
  void on_warp_done(u32 slot) override { inner_->on_warp_done(slot); }
  void on_loads_complete(u32 slot) override {
    inner_->on_loads_complete(slot);
  }
  void on_prefetch_fill(u32 slot) override { inner_->on_prefetch_fill(slot); }
  void on_global_access(u32 slot) override { inner_->on_global_access(slot); }
  i32 pick(Cycle now) override {
    ++picks_;
    return inner_->pick(now);
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Scheduler> inner_;
  u64& picks_;
};

TEST(GpuTest, ForwardingDecoratorMatchesTheUndecoratedRun) {
  for (const char* wl : {"PVR", "BFS"}) {
    for (PrefetcherKind pf : {PrefetcherKind::kNone, PrefetcherKind::kCaps}) {
      RunConfig rc;
      rc.workload = wl;
      rc.prefetcher = pf;
      const RunResult plain = run_experiment(rc);
      ASSERT_EQ(plain.status, RunStatus::kOk) << wl;

      GpuConfig cfg;
      const SchedulerKind sched = default_scheduler_for(pf);
      u64 picks = 0;
      SmPolicyFactories pol = make_policies(pf, sched, true);
      pol.make_scheduler = [base = pol.make_scheduler, &picks](
                               const GpuConfig& c, std::vector<WarpContext>& w,
                               auto&&...) {
        return std::make_unique<ForwardingScheduler>(
            base(c, w, nullptr, nullptr), c, w, picks);
      };
      Gpu gpu(cfg, find_workload(wl).kernel, pol);
      const GpuStats s = gpu.run();
      EXPECT_EQ(stats_signature(s), stats_signature(plain.stats))
          << wl << " " << to_string(pf);
      // Every active cycle picks at least once, elided ones included.
      EXPECT_GE(picks, s.sm.active_cycles) << wl;
    }
  }
}

// ---------------------------------------------- two-level promotion masks --

/// Wraps a two-level scheduler and, after every pick() and elided span,
/// compares the promotable mask it keeps from events with a fresh scan of
/// its pending queue's WarpContext.
class MaskCheckedScheduler final : public Scheduler {
 public:
  MaskCheckedScheduler(std::unique_ptr<Scheduler> inner, const GpuConfig& cfg,
                       std::vector<WarpContext>& warps)
      : Scheduler(cfg, warps),
        inner_(std::move(inner)),
        two_level_(dynamic_cast<const TwoLevelScheduler*>(inner_.get())) {}

  void on_cta_launch(u32 cta_slot, u32 first_warp, u32 num_warps) override {
    inner_->on_cta_launch(cta_slot, first_warp, num_warps);
  }
  void on_warp_done(u32 slot) override { inner_->on_warp_done(slot); }
  void on_loads_complete(u32 slot) override {
    inner_->on_loads_complete(slot);
  }
  void on_prefetch_fill(u32 slot) override { inner_->on_prefetch_fill(slot); }
  void on_global_access(u32 slot) override { inner_->on_global_access(slot); }
  i32 pick(Cycle now) override {
    const i32 slot = inner_->pick(now);
    check();
    return slot;
  }
  void elide_refused(Cycle from, Cycle to) override {
    inner_->elide_refused(from, to);
    check();
  }
  const char* name() const override { return inner_->name(); }

  u64 checks = 0;
  u64 mismatches = 0;
  u64 parked_checks = 0;  ///< checks with a pending warp at a barrier

 private:
  void check() {
    if (two_level_ == nullptr) {
      ++mismatches;
      return;
    }
    u64 fresh = 0;
    bool parked = false;
    for (const u32 slot : two_level_->pending_queue()) {
      if (warps_[slot].status == WarpStatus::kAtBarrier) parked = true;
      if (warps_[slot].runnable() && !warps_[slot].mem_wait)
        fresh |= u64{1} << slot;
    }
    ++checks;
    if (parked) ++parked_checks;
    if (fresh != two_level_->promotable_mask()) ++mismatches;
  }

  std::unique_ptr<Scheduler> inner_;
  const TwoLevelScheduler* two_level_;
};

TEST(PromotionMaskTest, KeptMaskEqualsAFreshScanAtEveryPick) {
  const std::pair<SchedulerKind, PrefetcherKind> policies[] = {
      {SchedulerKind::kTwoLevel, PrefetcherKind::kNone},
      {SchedulerKind::kOrch, PrefetcherKind::kOrch},
      {SchedulerKind::kPas, PrefetcherKind::kCaps}};
  for (const char* wl : {"MM", "CNV", "BFS", "PVR"}) {
    for (const auto& [sched, pf] : policies) {
      GpuConfig cfg;
      cfg.num_sms = 4;
      cfg.max_cycles = 30'000;
      std::vector<MaskCheckedScheduler*> checked;
      SmPolicyFactories pol = make_policies(pf, sched, true);
      pol.make_scheduler = [base = pol.make_scheduler, &checked](
                               const GpuConfig& c, std::vector<WarpContext>& w,
                               auto&&...) {
        auto s = std::make_unique<MaskCheckedScheduler>(
            base(c, w, nullptr, nullptr), c, w);
        checked.push_back(s.get());
        return s;
      };
      Gpu gpu(cfg, find_workload(wl).kernel, pol);
      gpu.run();
      u64 checks = 0;
      u64 mismatches = 0;
      u64 parked = 0;
      for (const MaskCheckedScheduler* s : checked) {
        checks += s->checks;
        mismatches += s->mismatches;
        parked += s->parked_checks;
      }
      EXPECT_GT(checks, 10'000u) << wl << " " << to_string(sched);
      EXPECT_EQ(mismatches, 0u) << wl << " " << to_string(sched);
      // MM parks pending warps at its tile barriers.
      if (std::string(wl) == "MM") {
        EXPECT_GT(parked, 0u) << to_string(sched);
      }
    }
  }
}

// ------------------------------------------------------ wake calendar -----

/// A random machine that GpuConfig::validate accepts: 1-15 SMs, 1-4
/// partitions per channel, a crossbar latency of 1-32 and small queues.
GpuConfig random_machine(std::mt19937& rng) {
  GpuConfig cfg;
  cfg.num_sms = 1 + static_cast<u32>(rng() % 15);
  cfg.num_dram_channels = 1 + static_cast<u32>(rng() % 6);
  cfg.num_l2_partitions =
      cfg.num_dram_channels * (1 + static_cast<u32>(rng() % 4));
  cfg.xbar_latency = 1 + static_cast<u32>(rng() % 32);
  cfg.ldst_queue_size = 1 + static_cast<u32>(rng() % 32);
  cfg.dram_queue_size = 1 + static_cast<u32>(rng() % 8);
  cfg.l2_queue_size = 1 + static_cast<u32>(rng() % 8);
  cfg.l2.mshr_entries = 1 + static_cast<u32>(rng() % 16);
  cfg.l2.mshr_max_merged = 1 + static_cast<u32>(rng() % cfg.l2.mshr_entries);
  cfg.l1d.mshr_entries = 1 + static_cast<u32>(rng() % 32);
  cfg.l1d.mshr_max_merged =
      1 + static_cast<u32>(rng() % cfg.l1d.mshr_entries);
  cfg.max_cycles = 4000;
  cfg.validate();
  return cfg;
}

TEST(WakeCalendarTest, EveryComponentWithWorkIsDue) {
  // At the start of every step, every component whose own condition holds
  // must be in the due set its kind's pass would take: an SM or LD/ST unit
  // that is due, a partition that can pull or tick, a reply head with room
  // on its lane. Within a step, the SM phase changes no partition
  // condition, so that is the condition its phase sees; a missed mark that
  // the phases of one cycle would see shows as a missed id at the start of
  // the next.
  std::mt19937 rng(20261018);
  const std::vector<Workload>& suite = workload_suite();
  u64 seen[WakeCalendar::kKinds] = {};
  for (int trial = 0; trial < 24; ++trial) {
    const GpuConfig cfg = random_machine(rng);
    const Workload& wl = suite[rng() % suite.size()];
    const auto pf = static_cast<PrefetcherKind>(rng() % 8);
    Gpu gpu(cfg, wl.kernel, make_policies(pf, default_scheduler_for(pf), true));
    const MemorySystem& mem = gpu.memory();
    const std::string where = wl.abbr + " " + to_string(pf) + " trial " +
                              std::to_string(trial);
    u64 missed = 0;
    while (!gpu.done() && gpu.now() < cfg.max_cycles) {
      const Cycle now = gpu.now();
      WakeCalendar cal = mem.calendar();  // take() on a copy
      u64 due[WakeCalendar::kKinds];
      for (u32 k = 0; k < WakeCalendar::kKinds; ++k)
        due[k] = cal.take(static_cast<WakeCalendar::Kind>(k), now);
      const auto check = [&](WakeCalendar::Kind k, u32 id, bool has_work) {
        if (!has_work) return;
        ++seen[k];
        if ((due[k] & WakeCalendar::bit(id)) == 0 && missed++ == 0)
          ADD_FAILURE() << where << ": kind " << k << " id " << id
                        << " has work at cycle " << now << " but is not due";
      };
      for (u32 i = 0; i < cfg.num_sms; ++i)
        check(WakeCalendar::kSm, i, gpu.sm(i).due(now));
      for (u32 p = 0; p < cfg.num_l2_partitions; ++p) {
        const L2Partition& part = mem.partition(p);
        check(WakeCalendar::kPartition, p,
              (part.can_accept() && mem.request_xbar().arrived(p, now)) ||
                  part.due(now));
        const MemRequest* reply = part.front_reply();
        check(WakeCalendar::kReplyHead, p,
              reply != nullptr && mem.reply_xbar().can_accept(reply->sm_id));
      }
      gpu.step();
    }
    EXPECT_EQ(missed, 0u) << where;
  }
  for (u32 k = 0; k < WakeCalendar::kKinds; ++k)
    EXPECT_GT(seen[k], 100u) << "kind " << k;
}

TEST(WakeCalendarTest, EveryListedWaiterWaitsForThatRoom) {
  // A waiter is listed from the tick that found its queue full until it
  // withdraws. So after every step an SM listed on a request lane with
  // room, or a partition listed on a DRAM queue with room, is due. A
  // waiter that failed to withdraw fails one of these sooner or later.
  std::mt19937 rng(20261019);
  const std::vector<Workload>& suite = workload_suite();
  u64 seen[WakeCalendar::kQueues] = {};
  for (int trial = 0; trial < 16; ++trial) {
    const GpuConfig cfg = random_machine(rng);
    const Workload* wl = &suite[rng() % suite.size()];
    const auto pf = static_cast<PrefetcherKind>(rng() % 8);
    Gpu gpu(cfg, wl->kernel,
            make_policies(pf, default_scheduler_for(pf), true));
    const MemorySystem& mem = gpu.memory();
    const WakeCalendar& cal = mem.calendar();
    const std::string where = wl->abbr + " " + to_string(pf) + " trial " +
                              std::to_string(trial);
    u64 stale = 0;
    const auto check = [&](WakeCalendar::Queue q, u32 id, u32 waiter,
                           bool waits) {
      ++seen[q];
      if (!waits && stale++ == 0)
        ADD_FAILURE() << where << ": queue " << q << " id " << id
                      << " lists " << waiter << " after cycle "
                      << gpu.now() - 1 << ", which does not wait on it";
    };
    while (!gpu.done() && gpu.now() < cfg.max_cycles) {
      gpu.step();
      const Cycle now = gpu.now();
      for (u32 p = 0; p < cfg.num_l2_partitions; ++p)
        for (u64 w = cal.waiters(WakeCalendar::kRequestLane, p); w != 0;
             w &= w - 1) {
          const auto sm = static_cast<u32>(std::countr_zero(w));
          check(WakeCalendar::kRequestLane, p, sm,
                !mem.lane_can_accept(p) || gpu.sm(sm).ldst().due(now));
        }
      for (u32 c = 0; c < cfg.num_dram_channels; ++c)
        for (u64 w = cal.waiters(WakeCalendar::kDramQueue, c); w != 0;
             w &= w - 1) {
          const auto p = static_cast<u32>(std::countr_zero(w));
          check(WakeCalendar::kDramQueue, c, p,
                p % cfg.num_dram_channels == c &&
                    (!mem.channel(c).can_accept() ||
                     mem.partition(p).due(now)));
        }
    }
    EXPECT_EQ(stale, 0u) << where;
  }
  for (u32 q = 0; q < WakeCalendar::kQueues; ++q)
    EXPECT_GT(seen[q], 100u) << "queue " << q;
}

TEST(WakeCalendarTest, DramBusyCyclesReadExactlyAfterEveryStep) {
  // A read of busy_cycles after every step must equal a count of the
  // cycles whose channel phase found the queue non-empty: those that end
  // with a queued request or issued a command, since only the partition
  // phase before it submits.
  std::mt19937 rng(7);
  for (const char* name : {"BFS", "PVR", "MM"}) {
    for (int trial = 0; trial < 3; ++trial) {
      const GpuConfig cfg = random_machine(rng);
      Gpu gpu(cfg, find_workload(name).kernel,
              make_policies(PrefetcherKind::kCaps, SchedulerKind::kPas, true));
      const MemorySystem& mem = gpu.memory();
      std::vector<u64> commands(cfg.num_dram_channels, 0);
      u64 busy = 0;
      u64 mismatches = 0;
      while (!gpu.done() && gpu.now() < cfg.max_cycles) {
        gpu.step();
        for (u32 c = 0; c < cfg.num_dram_channels; ++c) {
          const DramChannel& ch = mem.channel(c);
          const u64 issued = ch.stats().reads + ch.stats().writes;
          if (ch.queue_size() > 0 || issued != commands[c]) ++busy;
          commands[c] = issued;
        }
        if (mem.dram_stats().busy_cycles != busy && mismatches++ == 0)
          ADD_FAILURE() << name << " trial " << trial << ": busy_cycles "
                        << mem.dram_stats().busy_cycles << " != " << busy
                        << " after cycle " << gpu.now() - 1;
      }
      EXPECT_GT(busy, 0u) << name;
      EXPECT_EQ(mismatches, 0u) << name << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace caps
