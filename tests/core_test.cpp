// Tests for the paper's core contribution: PerCTA table, DIST table, the
// CAPS prefetch engine (both Fig. 9 generation cases, exclusion rules,
// misprediction throttling), the PAS scheduler, and the hardware cost model
// (Tables I & II).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/caps_prefetcher.hpp"
#include "core/dist_table.hpp"
#include "core/hw_cost.hpp"
#include "core/pas_scheduler.hpp"
#include "core/percta_table.hpp"

namespace caps {
namespace {

// --------------------------------------------------------- PerCTA table ---

TEST(PerCtaTableTest, InsertAndFind) {
  PerCtaTable t(4);
  auto& e = t.insert(0x10);
  e.leading_warp = 2;
  const Addr base = 0x1000;
  e.set_bases({&base, 1});
  ASSERT_NE(t.find(0x10), nullptr);
  EXPECT_EQ(t.find(0x10)->leading_warp, 2u);
  EXPECT_EQ(t.find(0x20), nullptr);
}

TEST(PerCtaTableTest, EraseAndClear) {
  PerCtaTable t(4);
  t.insert(0x10);
  t.insert(0x20);
  t.erase(0x10);
  EXPECT_EQ(t.find(0x10), nullptr);
  EXPECT_EQ(t.size(), 1u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

// ----------------------------------------------------------- DIST table ---

TEST(DistTableTest, RecordAndFind) {
  DistTable t(4, 128);
  ASSERT_NE(t.record(0x10, 2048), nullptr);
  auto* e = t.find(0x10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->stride, 2048);
  EXPECT_EQ(e->mispredicts, 0);
}

TEST(DistTableTest, ReRecordResetsMispredictions) {
  DistTable t(4, 128);
  auto* e = t.record(0x10, 100);
  for (int i = 0; i < 5; ++i) t.mispredict(*e);
  EXPECT_EQ(e->mispredicts, 5);
  t.record(0x10, 200);
  EXPECT_EQ(t.find(0x10)->mispredicts, 0);
  EXPECT_EQ(t.find(0x10)->stride, 200);
}

TEST(DistTableTest, StickyAdmissionRefusesFifthPc) {
  DistTable t(4, 128);
  for (Addr pc = 0; pc < 4; ++pc) EXPECT_NE(t.record(pc * 8, 128), nullptr);
  EXPECT_FALSE(t.can_admit());
  EXPECT_EQ(t.record(0x100, 128), nullptr);  // table locked on first four
  EXPECT_NE(t.find(0x00), nullptr);
}

TEST(DistTableTest, ThrottledEntryIsEvictable) {
  DistTable t(2, 3);
  auto* a = t.record(0x10, 100);
  t.record(0x20, 200);
  for (int i = 0; i < 5; ++i) t.mispredict(*a);
  EXPECT_TRUE(t.throttled(*a));
  EXPECT_TRUE(t.can_admit());
  EXPECT_NE(t.record(0x30, 300), nullptr);  // replaces the throttled entry
  EXPECT_EQ(t.find(0x10), nullptr);
  EXPECT_NE(t.find(0x20), nullptr);
}

TEST(DistTableTest, MispredictSaturatesAtOneByte) {
  DistTable t(1, 128);
  auto* e = t.record(0x10, 100);
  for (int i = 0; i < 400; ++i) t.mispredict(*e);
  EXPECT_EQ(e->mispredicts, 255);  // 1-byte saturating counter (Table I)
}

TEST(DistTableTest, ThresholdGatesThrottling) {
  DistTable t(1, 128);
  auto* e = t.record(0x10, 100);
  for (int i = 0; i < 128; ++i) t.mispredict(*e);
  EXPECT_FALSE(t.throttled(*e));  // threshold is strict ">"
  t.mispredict(*e);
  EXPECT_TRUE(t.throttled(*e));
}

// ------------------------------------------------------- CAPS prefetcher ---

class CapsTest : public ::testing::Test {
 protected:
  GpuConfig cfg_;
  std::unique_ptr<CapsPrefetcher> pf_;
  std::vector<PrefetchRequest> out_;

  void SetUp() override {
    pf_ = std::make_unique<CapsPrefetcher>(cfg_);
    // Two CTAs of 4 warps each: CTA slot 0 -> warps 0..3, slot 1 -> 4..7.
    pf_->on_cta_launch(0, {0, 0}, 0, 4);
    pf_->on_cta_launch(1, {5, 3}, 4, 4);
  }

  /// Issue a load and collect generated prefetches.
  std::vector<PrefetchRequest> issue(u32 cta_slot, u32 warp_in_cta, Addr pc,
                                     std::vector<Addr> lines,
                                     bool indirect = false, u32 iter = 0) {
    LoadIssueInfo info;
    info.pc = pc;
    info.cta_slot = cta_slot;
    info.warp_slot = cta_slot * 4 + warp_in_cta;
    info.warp_in_cta = warp_in_cta;
    info.warps_in_cta = 4;
    info.lines = lines;
    info.indirect = indirect;
    info.iteration = iter;
    out_.clear();
    pf_->on_load_issue(info, out_);
    return out_;
  }
};

TEST_F(CapsTest, Case1StrideDetectedAfterBasesSettled) {
  // Fig. 9a: leading warps of both CTAs register bases first; the stride is
  // then detected by a trailing warp of CTA 0 and prefetches fan out to
  // every registered CTA at once.
  EXPECT_TRUE(issue(0, 0, 0x40, {0x10000}).empty());   // A0: base CTA0
  EXPECT_TRUE(issue(1, 0, 0x40, {0x90000}).empty());   // B0: base CTA1
  auto reqs = issue(0, 1, 0x40, {0x10000 + 2048});     // A1: stride = 2048
  // Expect prefetches for A2, A3 (CTA0) and B1, B2, B3 (CTA1).
  ASSERT_EQ(reqs.size(), 5u);
  std::set<Addr> lines;
  std::set<i32> targets;
  for (const auto& r : reqs) {
    lines.insert(r.line);
    targets.insert(r.target_warp_slot);
    EXPECT_EQ(r.pc, 0x40u);
  }
  EXPECT_TRUE(lines.contains(0x10000 + 2 * 2048));
  EXPECT_TRUE(lines.contains(0x10000 + 3 * 2048));
  EXPECT_TRUE(lines.contains(0x90000 + 1 * 2048));
  EXPECT_TRUE(lines.contains(0x90000 + 2 * 2048));
  EXPECT_TRUE(lines.contains(0x90000 + 3 * 2048));
  // Targets are the correct SM warp slots.
  EXPECT_TRUE(targets.contains(2));
  EXPECT_TRUE(targets.contains(3));
  EXPECT_TRUE(targets.contains(5));
  EXPECT_TRUE(targets.contains(6));
  EXPECT_TRUE(targets.contains(7));
}

TEST_F(CapsTest, Case2BaseRegisteredAfterStrideKnown) {
  // Fig. 9b: CTA0 detects the stride before CTA1's leading warp runs; when
  // B0 finally registers, prefetches for B1..B3 are generated immediately.
  issue(0, 0, 0x40, {0x10000});
  issue(0, 1, 0x40, {0x10800});  // stride 2048 recorded
  auto reqs = issue(1, 0, 0x40, {0x70000});
  ASSERT_EQ(reqs.size(), 3u);
  std::set<Addr> lines;
  for (const auto& r : reqs) lines.insert(r.line);
  EXPECT_TRUE(lines.contains(0x70000 + 2048));
  EXPECT_TRUE(lines.contains(0x70000 + 2 * 2048));
  EXPECT_TRUE(lines.contains(0x70000 + 3 * 2048));
}

TEST_F(CapsTest, MultiLineBasesPrefetchPerLine) {
  issue(0, 0, 0x40, {0x10000, 0x10400});
  auto reqs = issue(0, 1, 0x40, {0x10000 + 2048, 0x10400 + 2048});
  // 2 trailing warps x 2 base lines.
  EXPECT_EQ(reqs.size(), 4u);
}

TEST_F(CapsTest, WarpsAlreadyIssuedAreNotPrefetched) {
  issue(0, 0, 0x40, {0x10000});
  issue(0, 3, 0x40, {0x10000 + 3 * 2048});  // warp 3 derives the stride
  // Warp 3 already issued -> only warps 1 and 2 get prefetches.
  // (The stride derivation itself generated them; re-issue by warp 1:)
  auto reqs = issue(0, 1, 0x40, {0x10000 + 2048});
  EXPECT_TRUE(reqs.empty());  // already prefetched or issued
}

TEST_F(CapsTest, IndirectLoadsAreExcluded) {
  auto reqs = issue(0, 0, 0x40, {0x10000}, /*indirect=*/true);
  EXPECT_TRUE(reqs.empty());
  // Not even a PerCTA entry: a trailing warp with a regular pattern starts
  // fresh as the leading warp.
  EXPECT_EQ(pf_->engine_stats().excluded_indirect, 1u);
  EXPECT_EQ(pf_->percta(0).size(), 0u);
}

TEST_F(CapsTest, UncoalescedLoadsAreExcluded) {
  std::vector<Addr> lines;
  for (Addr i = 0; i < 6; ++i) lines.push_back(0x10000 + i * 128);
  auto reqs = issue(0, 0, 0x40, lines);  // > max_coalesced_lines (4)
  EXPECT_TRUE(reqs.empty());
  EXPECT_EQ(pf_->engine_stats().excluded_uncoalesced, 1u);
}

TEST_F(CapsTest, NonUniformStrideInvalidatesEntry) {
  issue(0, 0, 0x40, {0x10000, 0x20000});
  // Per-line strides differ (2048 vs 4096): not a striding load.
  issue(0, 1, 0x40, {0x10800, 0x21000});
  EXPECT_EQ(pf_->percta(0).find(0x40), nullptr);
  EXPECT_EQ(pf_->dist().find(0x40), nullptr);
}

TEST_F(CapsTest, MispredictionsAccumulateAndThrottle) {
  GpuConfig cfg;
  cfg.caps.mispredict_threshold = 2;  // tiny threshold for the test
  CapsPrefetcher pf(cfg);
  pf.on_cta_launch(0, {0, 0}, 0, 8);
  std::vector<PrefetchRequest> out;
  auto issue_one = [&](u32 warp, Addr addr) {
    LoadIssueInfo info;
    info.pc = 0x40;
    info.cta_slot = 0;
    info.warp_slot = warp;
    info.warp_in_cta = warp;
    info.warps_in_cta = 8;
    std::vector<Addr> lines{addr};
    info.lines = lines;
    out.clear();
    pf.on_load_issue(info, out);
    return out.size();
  };
  issue_one(0, 0x10000);
  issue_one(1, 0x10080);  // stride 128 recorded; prefetches fan out
  // Warps 2..4 arrive with NON-matching addresses: mispredictions.
  issue_one(2, 0x50000);
  issue_one(3, 0x60000);
  issue_one(4, 0x70000);
  EXPECT_GE(pf.engine_stats().mispredictions, 3u);
  const auto* e = pf.dist().find(0x40);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(pf.dist().throttled(*e));
  EXPECT_GT(pf.engine_stats().throttle_suppressed, 0u);
}

TEST_F(CapsTest, LeadingWarpRefreshRearmsGeneration) {
  // Loop iteration 0.
  issue(0, 0, 0x40, {0x10000}, false, 0);
  issue(0, 1, 0x40, {0x10800}, false, 0);  // stride 2048
  // Leading warp re-executes at iteration 1 with fresh bases.
  auto reqs = issue(0, 0, 0x40, {0x30000}, false, 1);
  ASSERT_EQ(reqs.size(), 3u);  // warps 1..3 re-prefetched from the new base
  std::set<Addr> lines;
  for (const auto& r : reqs) lines.insert(r.line);
  EXPECT_TRUE(lines.contains(0x30000 + 2048));
}

TEST_F(CapsTest, CtaCompletionClearsState) {
  issue(0, 0, 0x40, {0x10000});
  pf_->on_cta_complete(0);
  EXPECT_EQ(pf_->percta(0).size(), 0u);
  // Re-launching the slot starts clean.
  pf_->on_cta_launch(0, {9, 9}, 0, 4);
  EXPECT_EQ(pf_->percta(0).find(0x40), nullptr);
}

TEST_F(CapsTest, StoresAreIgnored) {
  LoadIssueInfo info;
  info.pc = 0x40;
  info.cta_slot = 0;
  info.warp_in_cta = 0;
  info.warps_in_cta = 4;
  std::vector<Addr> lines{0x10000};
  info.lines = lines;
  info.is_load = false;
  out_.clear();
  pf_->on_load_issue(info, out_);
  EXPECT_TRUE(out_.empty());
  EXPECT_EQ(pf_->percta(0).find(0x40), nullptr);
}

TEST_F(CapsTest, DistStickinessLimitsTargetedLoads) {
  // Five distinct striding PCs: only the first four get DIST entries.
  for (Addr pc = 0; pc < 5; ++pc) {
    issue(0, 0, 0x100 + pc * 8, {0x10000 + pc * 0x10000});
    issue(0, 1, 0x100 + pc * 8, {0x10000 + pc * 0x10000 + 2048});
  }
  u32 present = 0;
  for (Addr pc = 0; pc < 5; ++pc)
    if (pf_->dist().find(0x100 + pc * 8) != nullptr) ++present;
  EXPECT_EQ(present, 4u);
}

// --------------------------------------------------------- PAS scheduler ---

class PasTest : public ::testing::Test {
 protected:
  GpuConfig cfg_;
  std::vector<WarpContext> warps_;
  u64 demotions_ = 0;  ///< kForcedDemotion events the scheduler traced
  TraceSink sink_ = [this](const TraceEvent& e) {
    if (e.kind == TraceKind::kForcedDemotion) ++demotions_;
  };

  void SetUp() override {
    cfg_.max_warps_per_sm = 12;
    cfg_.ready_queue_size = 4;
    warps_.resize(cfg_.max_warps_per_sm);
  }

  std::unique_ptr<PasScheduler> make(bool wakeup = true) {
    auto s = std::make_unique<PasScheduler>(cfg_, warps_, wakeup);
    s->set_trace_sink(&sink_, /*sm_id=*/0);
    return s;
  }

  /// Exactly the warps in `slots` wait on their loads, as the SM keeps
  /// the bit; a waiting warp is not eligible.
  void set_waiting(const std::set<u32>& slots) {
    for (u32 w = 0; w < warps_.size(); ++w)
      warps_[w].mem_wait = slots.contains(w);
  }

  void activate(u32 first, u32 n) {
    for (u32 w = first; w < first + n; ++w) {
      warps_[w].status = WarpStatus::kActive;
      warps_[w].warp_in_cta = w - first;
    }
  }
};

TEST_F(PasTest, LeadingWarpMarkedAndEnqueuedFirst) {
  activate(0, 4);
  auto s = make();
  s->on_cta_launch(0, 0, 4);
  EXPECT_TRUE(warps_[0].leading);
  EXPECT_FALSE(warps_[1].leading);
  ASSERT_FALSE(s->ready_queue().empty());
  EXPECT_EQ(s->ready_queue().front(), 0u);
}

TEST_F(PasTest, SecondCtaLeadingWarpJumpsQueue) {
  activate(0, 4);
  activate(4, 4);
  auto s = make();
  s->on_cta_launch(0, 0, 4);
  s->on_cta_launch(1, 4, 4);
  // The ready queue was full, so CTA 1's leading warp (slot 4) waits at
  // the FRONT of the pending queue: it is the very next warp promoted
  // (Fig. 8b ordering without displacing a resident trailing warp).
  EXPECT_EQ(s->pending_queue().front(), 4u);
}

TEST_F(PasTest, LeadingWarpsPromotedBeforeTrailing) {
  activate(0, 4);
  activate(4, 4);
  activate(8, 4);
  auto s = make();
  s->on_cta_launch(0, 0, 4);   // fills ready (4 slots)
  s->on_cta_launch(1, 4, 4);   // leading 4 -> front; rest pending
  s->on_cta_launch(2, 8, 4);   // leading 8 -> front of pending
  // Demote the whole ready set.
  set_waiting({0, 1, 2, 4});
  s->pick(0);
  // CTA2's leading warp (slot 8) must be promoted before trailing warps.
  const auto ready = s->ready_queue();
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 8u) != ready.end());
}

TEST_F(PasTest, TrailingWarpsPromotedWhenNoLeaderCanBe) {
  activate(0, 4);
  activate(4, 4);
  auto s = make();
  // Demote the whole ready set; both leading warps (0 and 4) are blocked,
  // warp 4 since before it entered the pending queue.
  set_waiting({0, 1, 2, 3, 4});
  s->on_cta_launch(0, 0, 4);  // fills ready (4 slots)
  s->on_cta_launch(1, 4, 4);  // pending: leading 4, then 5, 6, 7
  s->pick(0);
  // No leader is promotable, so the trailing warps are, in FIFO order.
  const auto ready = s->ready_queue();
  ASSERT_EQ(ready.size(), 3u);
  for (u32 w : {5u, 6u, 7u})
    EXPECT_TRUE(std::find(ready.begin(), ready.end(), w) != ready.end())
        << "trailing warp " << w;
  EXPECT_EQ(s->pending_queue().front(), 4u);
}

TEST_F(PasTest, EagerWakeupPromotesPendingWarp) {
  activate(0, 8);
  auto s = make();
  s->on_cta_launch(0, 0, 8);  // ready: 4 warps; pending: 4
  const u32 victim_slot = s->pending_queue().front();
  s->on_prefetch_fill(victim_slot);
  const auto ready = s->ready_queue();
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), victim_slot) != ready.end());
  EXPECT_EQ(ready.size(), cfg_.ready_queue_size);  // one warp was pushed out
}

TEST_F(PasTest, WakeupDisabledLeavesQueuesAlone) {
  activate(0, 8);
  auto s = make(/*wakeup=*/false);
  s->on_cta_launch(0, 0, 8);
  const u32 pending_warp = s->pending_queue().front();
  const auto ready_before = s->ready_queue();
  s->on_prefetch_fill(pending_warp);
  EXPECT_EQ(s->ready_queue(), ready_before);
}

TEST_F(PasTest, WakeupForReadyWarpIsNoOp) {
  activate(0, 4);
  auto s = make();
  s->on_cta_launch(0, 0, 4);
  const auto before = s->ready_queue();
  s->on_prefetch_fill(before.front());
  EXPECT_EQ(s->ready_queue(), before);
}

// The PAS hooks move warps between the queues outside pick(); each move must
// be seen by the next pick (DESIGN.md §13, "Exact skips").

TEST_F(PasTest, EagerWakeupOfAWaitingWarpIsDemotedAtTheNextPick) {
  activate(0, 8);
  auto s = make();
  s->on_cta_launch(0, 0, 8);  // ready: 0..3; pending: 4..7
  ASSERT_EQ(s->pick(0), 0);
  // Warp 4's prefetch filled L1, but its own load has not returned.
  set_waiting({4});
  s->on_prefetch_fill(4);
  const auto woken = s->ready_queue();
  ASSERT_TRUE(std::find(woken.begin(), woken.end(), 4u) != woken.end());
  s->pick(1);
  const auto ready = s->ready_queue();
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 4u) == ready.end());
  const auto pending = s->pending_queue();
  EXPECT_TRUE(std::find(pending.begin(), pending.end(), 4u) != pending.end());
}

TEST_F(PasTest, ForcedDemotionIsPromotedAgain) {
  cfg_.ready_queue_size = 2;
  activate(0, 6);
  auto s = make();
  // Before launch: a pending warp never starts waiting.
  set_waiting({0, 1, 2, 3});
  s->on_cta_launch(0, 0, 4);  // ready: 0, 1; pending: 2, 3
  // CTA 0 is demoted whole, and no pending warp is promotable.
  ASSERT_EQ(s->pick(0), kNoWarp);
  s->on_cta_launch(1, 4, 2);  // leading 4 and trailing 5 fill the ready queue
  ASSERT_EQ(s->pick(1), 4);
  s->on_prefetch_fill(2);  // no room: trailing warp 5 is pushed back
  ASSERT_EQ(demotions_, 1u);
  ASSERT_EQ(s->pending_queue().front(), 5u);
  warps_[4].status = WarpStatus::kDone;
  s->on_warp_done(4);
  // Warp 2 still waits and is demoted again; warp 5 takes the free slot.
  EXPECT_EQ(s->pick(2), 5);
}

TEST_F(PasTest, ForcedDemotionOfALeadingWarpIsPromotedAgain) {
  cfg_.ready_queue_size = 2;
  activate(0, 5);
  auto s = make();
  // Before launch: a pending warp never starts waiting.
  set_waiting({0, 1, 2});
  s->on_cta_launch(0, 0, 3);  // ready: 0, 1; pending: 2
  ASSERT_EQ(s->pick(0), kNoWarp);
  // Two one-warp CTAs fill the ready queue with leading warps.
  s->on_cta_launch(1, 3, 1);
  s->on_cta_launch(2, 4, 1);
  ASSERT_EQ(s->pick(1), 4);
  s->on_prefetch_fill(2);  // every ready warp leads: the tail is pushed back
  ASSERT_EQ(demotions_, 1u);
  ASSERT_EQ(s->pending_queue().front(), 4u);
  warps_[3].status = WarpStatus::kDone;
  s->on_warp_done(3);
  EXPECT_EQ(s->pick(2), 4);
}

TEST_F(PasTest, LeadingWarpEnteringReadyIsCheckedAtTheNextPick) {
  activate(0, 1);
  auto s = make();
  s->on_cta_launch(0, 0, 1);  // a one-warp CTA: its leading warp is ready
  set_waiting({0});
  s->pick(0);
  EXPECT_TRUE(s->ready_queue().empty());
  EXPECT_EQ(s->pending_queue().size(), 1u);
}

TEST_F(PasTest, LeadingWarpLaunchedIntoAFullReadyQueueIsPromotedLater) {
  cfg_.ready_queue_size = 2;
  activate(0, 3);
  auto s = make();
  s->on_cta_launch(0, 0, 2);  // fills the ready queue
  ASSERT_EQ(s->pick(0), 0);
  s->on_cta_launch(1, 2, 1);  // a one-warp CTA: its leading warp waits
  ASSERT_EQ(s->pending_queue().front(), 2u);
  warps_[1].status = WarpStatus::kDone;
  s->on_warp_done(1);
  s->pick(1);
  const auto ready = s->ready_queue();
  EXPECT_TRUE(std::find(ready.begin(), ready.end(), 2u) != ready.end());
}

// ------------------------------------------------------- hardware cost ----

TEST(HwCostTest, TableIEntrySizes) {
  EXPECT_EQ(PerCtaEntryLayout{}.total(), 21u);  // 4 + 1 + 16
  EXPECT_EQ(DistEntryLayout{}.total(), 9u);     // 4 + 4 + 1
}

TEST(HwCostTest, TableIITotals) {
  GpuConfig cfg;
  const CapsHardwareCost cost = compute_caps_hardware_cost(cfg);
  EXPECT_EQ(cost.dist_bytes, 36u);     // 9 B x 4 entries
  EXPECT_EQ(cost.percta_bytes, 672u);  // 21 B x 4 entries x 8 CTAs
  EXPECT_EQ(cost.total_bytes, 708u);   // Table II
}

TEST(HwCostTest, AreaFractionMatchesPaper) {
  GpuConfig cfg;
  const CapsHardwareCost cost = compute_caps_hardware_cost(cfg);
  EXPECT_NEAR(cost.area_fraction_of_sm(), 0.0008, 0.0002);  // ~0.08% of an SM
}

TEST(HwCostTest, ScalesWithConfiguration) {
  GpuConfig cfg;
  cfg.caps.percta_entries = 8;
  cfg.max_ctas_per_sm = 16;
  const CapsHardwareCost cost = compute_caps_hardware_cost(cfg);
  EXPECT_EQ(cost.percta_bytes, 21u * 8 * 16);
}

}  // namespace
}  // namespace caps
