// Tests for the baseline prefetch engines (INTRA/INTER/MTA/NLP/LAP), the
// shared stride table and the LRU table behind the prefetcher tables.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "prefetch/lap.hpp"
#include "prefetch/lru_table.hpp"
#include "prefetch/nlp.hpp"
#include "prefetch/stride_prefetchers.hpp"
#include "prefetch/stride_table.hpp"

namespace caps {
namespace {

LoadIssueInfo make_info(Addr pc, u32 warp_slot, std::vector<Addr>& lines,
                        u32 iteration = 0) {
  LoadIssueInfo info;
  info.pc = pc;
  info.warp_slot = warp_slot;
  info.warp_in_cta = warp_slot % 8;
  info.warps_in_cta = 8;
  info.lines = lines;
  info.iteration = iteration;
  return info;
}

// ----------------------------------------------------------- StrideTable ---

TEST(StrideTableTest, ConfidenceBuildsOnRepeatedStride) {
  StrideTable t(8);
  EXPECT_EQ(t.observe(1, 0x1000).confidence, 0u);
  EXPECT_EQ(t.observe(1, 0x1100).confidence, 1u);  // first stride observed
  EXPECT_EQ(t.observe(1, 0x1200).confidence, 2u);  // confirmed
  EXPECT_EQ(t.observe(1, 0x1300).confidence, 3u);  // saturates at 3
  EXPECT_EQ(t.observe(1, 0x1400).confidence, 3u);
}

TEST(StrideTableTest, StrideChangeResetsConfidence) {
  StrideTable t(8);
  t.observe(1, 0x1000);
  t.observe(1, 0x1100);
  t.observe(1, 0x1200);
  const auto& e = t.observe(1, 0x5000);  // different stride
  EXPECT_EQ(e.confidence, 1u);
  EXPECT_EQ(e.stride, 0x5000 - 0x1200);
}

TEST(StrideTableTest, EvictedKeyStartsFresh) {
  StrideTable t(2);
  t.observe(1, 0x1000);
  t.observe(2, 0x2000);
  t.observe(1, 0x1000);  // refresh key 1
  t.observe(3, 0x3000);  // evicts key 2
  EXPECT_EQ(t.size(), 2u);
  // A kept entry measures a stride from its last address; a fresh one
  // measures none.
  EXPECT_EQ(t.observe(1, 0x1100).stride, 0x100);
  EXPECT_EQ(t.observe(3, 0x3100).stride, 0x100);
  EXPECT_EQ(t.observe(2, 0x2100).stride, 0);
}

// -------------------------------------------------------------- LruTable ---

/// A replacement script over a small key space and the keys it leaves
/// resident. Ops: "+k" insert, "!k" insert that may evict only odd keys
/// (refused when none is resident), "?k" find (refreshes), "=k" const find
/// (must not refresh), "-k" erase.
struct LruScript {
  const char* name;
  u32 capacity;
  const char* ops;
  std::set<u64> resident;
};

class LruTableTest : public ::testing::TestWithParam<LruScript> {};

TEST_P(LruTableTest, ReplacementFollowsScript) {
  struct Payload {
    u64 v = 0;
    void clear() { v = 0; }
  };
  const LruScript& sc = GetParam();
  LruTable<u64, Payload> t(sc.capacity);
  std::istringstream ops(sc.ops);
  std::string op;
  while (ops >> op) {
    const u64 k = std::stoull(op.substr(1));
    switch (op[0]) {
      case '+': {
        Payload& p = t.insert(k);
        EXPECT_EQ(p.v, 0u) << op << ": insert hands out a cleared entry";
        p.v = k;
        break;
      }
      case '!': {
        Payload* p =
            t.insert_if(k, [](const Payload& e) { return e.v % 2 == 1; });
        if (p == nullptr) break;
        EXPECT_EQ(p->v, 0u) << op << ": insert_if hands out a cleared entry";
        p->v = k;
        break;
      }
      case '?': t.find(k); break;
      case '=': std::as_const(t).find(k); break;
      case '-': t.erase(k); break;
      default: FAIL() << "bad op " << op;
    }
  }
  EXPECT_EQ(t.size(), sc.resident.size());
  for (u64 k = 0; k < 10; ++k) {
    const Payload* p = std::as_const(t).find(k);
    ASSERT_EQ(p != nullptr, sc.resident.count(k) == 1) << "key " << k;
    if (p != nullptr) {
      EXPECT_EQ(p->v, k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, LruTableTest,
    ::testing::Values(
        // Eviction takes the least recently used slot (the former
        // StrideTable and PerCtaTable replacement tests).
        LruScript{"EvictsLeastRecentlyUsed", 2, "+1 +2 ?1 +3", {1, 3}},
        LruScript{"EvictsOldestInsert", 3, "+1 +2 +3 +4 +5", {3, 4, 5}},
        // A freed slot is reused before anything is evicted (LAP frees a
        // macro block when it triggers).
        LruScript{"ReusesFreedSlot", 2, "+1 +2 ?1 -1 +3", {2, 3}},
        LruScript{"ClearedTableRefills", 2, "+1 +2 -1 -2 +3 +4", {3, 4}},
        // The const find leaves the stamp alone: 1 stays the LRU slot.
        LruScript{"ConstFindDoesNotRefresh", 2, "+1 +2 =1 +3", {2, 3}},
        // Sticky admission (the DIST table): free slots first, then the
        // least recently used accepted key (1, not the older 4), then no
        // slot at all once no accepted key is resident (8 is refused).
        LruScript{"InsertIfEvictsOnlyAccepted", 3, "!2 !4 +1 ?2 !6 !8",
                  {2, 4, 6}}),
    [](const ::testing::TestParamInfo<LruScript>& script) {
      return std::string(script.param.name);
    });

// ----------------------------------------------------------------- INTRA ---

TEST(IntraWarpTest, PrefetchesAfterConfirmedLoopStride) {
  GpuConfig cfg;
  IntraWarpPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  std::vector<Addr> l0{0x10000}, l1{0x11000}, l2{0x12000};
  pf.on_load_issue(make_info(0x40, 3, l0, 0), out);
  EXPECT_TRUE(out.empty());
  pf.on_load_issue(make_info(0x40, 3, l1, 1), out);
  EXPECT_TRUE(out.empty());  // confidence 1: not yet
  pf.on_load_issue(make_info(0x40, 3, l2, 2), out);
  ASSERT_EQ(out.size(), cfg.baseline_pf.degree);
  EXPECT_EQ(out[0].line, 0x13000u);  // next iterations
  EXPECT_EQ(out[1].line, 0x14000u);
  EXPECT_EQ(out[0].target_warp_slot, 3);  // prefetches for itself
}

TEST(IntraWarpTest, NoPrefetchForSingleShotLoads) {
  GpuConfig cfg;
  IntraWarpPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  // Different PCs never retrain the same entry.
  for (Addr pc = 0; pc < 8; ++pc) {
    std::vector<Addr> l{0x10000 + pc * 0x1000};
    pf.on_load_issue(make_info(0x100 + pc * 8, 0, l), out);
  }
  EXPECT_TRUE(out.empty());
}

TEST(IntraWarpTest, PerWarpStateIsIndependent) {
  GpuConfig cfg;
  IntraWarpPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  // Warp 0 and warp 1 interleave with different strides on the same PC.
  for (u32 i = 0; i < 3; ++i) {
    std::vector<Addr> a{0x10000 + i * 0x100};
    std::vector<Addr> b{0x80000 + i * 0x200};
    pf.on_load_issue(make_info(0x40, 0, a, i), out);
    pf.on_load_issue(make_info(0x40, 1, b, i), out);
  }
  ASSERT_EQ(out.size(), 2 * cfg.baseline_pf.degree);
  EXPECT_EQ(out[0].line, 0x10000u + 3 * 0x100);
  EXPECT_EQ(out[2].line, 0x80000u + 3 * 0x200);
}

// ----------------------------------------------------------------- INTER ---

TEST(InterWarpTest, DetectsInterWarpStride) {
  GpuConfig cfg;
  InterWarpPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  std::vector<Addr> l0{0x10000}, l1{0x10800}, l2{0x11000};
  pf.on_load_issue(make_info(0x40, 0, l0), out);
  pf.on_load_issue(make_info(0x40, 1, l1), out);  // stride 2048, conf 1
  EXPECT_TRUE(out.empty());
  pf.on_load_issue(make_info(0x40, 2, l2), out);  // conf 2 -> prefetch
  ASSERT_EQ(out.size(), cfg.baseline_pf.degree);
  EXPECT_EQ(out[0].line, 0x11800u);  // warp 3
  EXPECT_EQ(out[0].target_warp_slot, 3);
  EXPECT_EQ(out[1].line, 0x12000u);  // warp 4
}

TEST(InterWarpTest, IsCtaAgnosticByDesign) {
  // The engine predicts across warp slots regardless of CTA: with a
  // non-matching base in the next CTA the prediction is simply wrong.
  // Here we just assert it *does* produce predictions past slot 7 (a CTA
  // boundary for 8-warp CTAs) — the inaccuracy shows up in Figs. 1/12.
  GpuConfig cfg;
  InterWarpPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  for (u32 w = 5; w <= 7; ++w) {
    std::vector<Addr> l{0x10000 + w * 2048};
    pf.on_load_issue(make_info(0x40, w, l), out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].target_warp_slot, 8);  // crosses into the next CTA
}

TEST(InterWarpTest, StopsAtLastWarpSlot) {
  GpuConfig cfg;
  InterWarpPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  for (u32 w = 45; w <= 47; ++w) {
    std::vector<Addr> l{0x10000 + w * 128};
    pf.on_load_issue(make_info(0x40, w, l), out);
  }
  EXPECT_TRUE(out.empty());  // no slots beyond 47
}

// ------------------------------------------------------------------- MTA ---

TEST(MtaTest, PrefersIntraModeForLoopingLoads) {
  GpuConfig cfg;
  MtaPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  for (u32 i = 0; i < 3; ++i) {
    std::vector<Addr> l{0x10000 + i * 0x400};
    out.clear();
    pf.on_load_issue(make_info(0x40, 2, l, i), out);
  }
  ASSERT_EQ(out.size(), cfg.baseline_pf.degree);
  // Intra-mode: prefetch for the same warp, next iterations.
  EXPECT_EQ(out[0].target_warp_slot, 2);
  EXPECT_EQ(out[0].line, 0x10000u + 3 * 0x400);
}

TEST(MtaTest, FallsBackToInterForOneShotLoads) {
  GpuConfig cfg;
  MtaPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  for (u32 w = 0; w <= 2; ++w) {
    std::vector<Addr> l{0x20000 + w * 1024};
    out.clear();
    pf.on_load_issue(make_info(0x48, w, l), out);
  }
  ASSERT_EQ(out.size(), cfg.baseline_pf.degree);
  EXPECT_EQ(out[0].target_warp_slot, 3);  // inter mode: next warps
  EXPECT_EQ(out[0].line, 0x20000u + 3 * 1024);
}

// MTA is "intra, else inter": on any stream it emits exactly what INTRA
// emits for the loads INTRA is confident on (looping loads) and, for every
// other load, what INTER emits when trained on those other loads only.
TEST(MtaTest, IsIntraElseInterOnRandomStreams) {
  GpuConfig cfg;
  for (const u64 seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    MtaPrefetcher mta(cfg);
    IntraWarpPrefetcher intra(cfg);
    InterWarpPrefetcher inter(cfg);
    // Per (pc, warp) iteration counters: addresses are affine in warp and
    // iteration with per-PC strides, plus occasional random jumps.
    std::vector<std::vector<u32>> iter(4, std::vector<u32>(12, 0));
    u32 intra_loads = 0;
    u32 inter_loads = 0;
    std::size_t mta_emitted = 0;
    std::size_t intra_emitted = 0;
    std::size_t inter_emitted = 0;
    for (u32 i = 0; i < 2000; ++i) {
      const u32 p = static_cast<u32>(rng() % 4);
      const u32 w = static_cast<u32>(rng() % 12);
      const Addr warp_stride = 128 * (p + 1);
      const Addr iter_stride = p % 2 == 0 ? 0x1000 : 0;  // odd PCs: no loop
      Addr addr = 0x100000 * (p + 1) + w * warp_stride +
                  iter[p][w]++ * iter_stride;
      if (rng() % 8 == 0) addr = (rng() % 4096) * 128;
      std::vector<Addr> lines{addr};
      const LoadIssueInfo info = make_info(0x40 + p * 8, w, lines);

      std::vector<PrefetchRequest> got, want;
      mta.on_load_issue(info, got);
      mta_emitted += got.size();
      intra.on_load_issue(info, want);
      if (want.empty()) {
        inter.on_load_issue(info, want);
        inter_emitted += want.size();
        ++inter_loads;
      } else {
        intra_emitted += want.size();
        ++intra_loads;
      }
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " load " << i;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].line, want[k].line);
        EXPECT_EQ(got[k].pc, want[k].pc);
        EXPECT_EQ(got[k].target_warp_slot, want[k].target_warp_slot);
      }
    }
    // Both modes were exercised, and the counters add up.
    EXPECT_GT(intra_loads, 100u);
    EXPECT_GT(inter_loads, 100u);
    EXPECT_EQ(mta_emitted, intra_emitted + inter_emitted);
    EXPECT_EQ(mta.engine_stats().table_reads,
              intra.engine_stats().table_reads +
                  inter.engine_stats().table_reads);
  }
}

// ------------------------------------------------------------------- NLP ---

TEST(NlpTest, PrefetchesNextLineOnMiss) {
  GpuConfig cfg;
  NextLinePrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  pf.on_demand_miss(0x10000, 0x40, 5, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 0x10000u + cfg.l1d.line_size);
  EXPECT_EQ(out[0].target_warp_slot, 5);
}

TEST(NlpTest, IgnoresLoadIssues) {
  GpuConfig cfg;
  NextLinePrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  std::vector<Addr> l{0x10000};
  pf.on_load_issue(make_info(0x40, 0, l), out);
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------------------------------- LAP ---

TEST(LapTest, TriggersAtMissThresholdWithinMacroBlock) {
  GpuConfig cfg;  // macro block = 4 lines, threshold = 2
  LocalityAwarePrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  pf.on_demand_miss(0x10000, 0x40, 1, out);  // line 0 of block
  EXPECT_TRUE(out.empty());
  pf.on_demand_miss(0x10000 + 256, 0x40, 2, out);  // line 2 of block
  ASSERT_EQ(out.size(), 2u);  // remaining lines 1 and 3
  std::set<Addr> lines{out[0].line, out[1].line};
  EXPECT_TRUE(lines.contains(0x10000u + 128));
  EXPECT_TRUE(lines.contains(0x10000u + 384));
}

TEST(LapTest, DistinctBlocksTrackedIndependently) {
  GpuConfig cfg;
  LocalityAwarePrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  pf.on_demand_miss(0x10000, 0x40, 0, out);
  pf.on_demand_miss(0x20000, 0x40, 0, out);
  EXPECT_TRUE(out.empty());  // one miss in each block: below threshold
}

TEST(LapTest, BlockRetiresAfterTrigger) {
  GpuConfig cfg;
  LocalityAwarePrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  pf.on_demand_miss(0x10000, 0x40, 0, out);
  pf.on_demand_miss(0x10000 + 128, 0x40, 0, out);
  const std::size_t first = out.size();
  EXPECT_GT(first, 0u);
  // Another miss in the same block must not re-trigger.
  pf.on_demand_miss(0x10000 + 256, 0x40, 0, out);
  EXPECT_EQ(out.size(), first);
}

TEST(LapTest, WideMacroBlockTracksUpperLines) {
  // Regression: miss_mask was a u32, but macro_block_lines is not bounded
  // by 32, so `1u << line_idx` for lines >= 32 of an 8 KiB macro block was
  // undefined (UBSan: shift-count-overflow) and in practice aliased lines
  // mod 32 — miscounting distinct misses and re-prefetching missed lines.
  GpuConfig cfg;
  cfg.baseline_pf.macro_block_lines = 64;  // 64 x 128 B = 8 KiB block
  cfg.validate();
  LocalityAwarePrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  const Addr base = 0x40000;
  const Addr line32 = base + 32u * cfg.l1d.line_size;
  const Addr line33 = base + 33u * cfg.l1d.line_size;
  pf.on_demand_miss(line32, 0x40, 0, out);
  EXPECT_TRUE(out.empty());  // one distinct miss: below threshold of 2
  pf.on_demand_miss(line33, 0x40, 0, out);
  ASSERT_EQ(out.size(), 62u);  // every line of the block except the 2 missed
  std::set<Addr> lines;
  for (const PrefetchRequest& r : out) lines.insert(r.line);
  EXPECT_FALSE(lines.contains(line32));
  EXPECT_FALSE(lines.contains(line33));
  EXPECT_TRUE(lines.contains(base));
  EXPECT_TRUE(lines.contains(base + 63u * cfg.l1d.line_size));
}

TEST(LapTest, MacroBlockSizeBeyondMaskCapacityRejected) {
  GpuConfig cfg;
  cfg.baseline_pf.macro_block_lines = 65;  // exceeds the 64-bit miss mask
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace caps
