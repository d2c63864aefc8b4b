// Unit tests for the memory substrate: cache, MSHR, crossbar, DRAM channel,
// L2 partition, and the composed MemorySystem.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/l2_partition.hpp"
#include "mem/memory_system.hpp"
#include "mem/mshr.hpp"

namespace caps {
namespace {

CacheConfig small_cache() {
  CacheConfig c;
  c.size_bytes = 1024;  // 8 lines
  c.line_size = 128;
  c.assoc = 2;          // 4 sets
  return c;
}

TEST(CacheTest, MissThenFillThenHit) {
  SetAssocCache c(small_cache());
  EXPECT_EQ(c.access(0), nullptr);
  EXPECT_FALSE(c.contains(0));  // a miss does not allocate
  c.fill(0, LineMeta{});
  EXPECT_NE(c.access(0), nullptr);
  EXPECT_TRUE(c.contains(0));
}

TEST(CacheTest, LruEvictionWithinSet) {
  SetAssocCache c(small_cache());
  // Lines 0, 512, 1024 all map to set 0 (4 sets * 128B).
  c.fill(0, LineMeta{});
  c.fill(512, LineMeta{});
  c.access(0);  // make 512 the LRU way
  auto evicted = c.fill(1024, LineMeta{});
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 512u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(1024));
  EXPECT_FALSE(c.contains(512));
}

TEST(CacheTest, FillExistingRefreshesMetadata) {
  SetAssocCache c(small_cache());
  LineMeta pf;
  pf.prefetched = true;
  pf.pf_issue_cycle = 7;
  c.fill(0, LineMeta{});
  EXPECT_FALSE(c.fill(0, pf).has_value());
  EXPECT_TRUE(c.access(0)->prefetched);
}

TEST(CacheTest, HitReturnsTheLinesWritableMeta) {
  SetAssocCache c(small_cache());
  c.fill(0, LineMeta{});
  c.access(0)->dirty = true;  // the L2 write path marks through it
  auto evicted = c.fill(512, LineMeta{});
  EXPECT_FALSE(evicted.has_value());  // an invalid way is filled first
  evicted = c.fill(1024, LineMeta{});  // evicts line 0 (LRU)
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 0u);
  EXPECT_TRUE(evicted->second.dirty);
}

TEST(CacheTest, EvictionReturnsPrefetchMeta) {
  SetAssocCache c(small_cache());
  LineMeta pf;
  pf.prefetched = true;
  c.fill(0, pf);
  c.fill(512, LineMeta{});
  auto evicted = c.fill(1024, LineMeta{});  // evicts line 0 (LRU)
  ASSERT_TRUE(evicted.has_value());
  EXPECT_TRUE(evicted->second.prefetched);
}

/// Randomized oracle check: the cache agrees with a reference model on
/// hit/miss for arbitrary access/fill interleavings, per config.
class CacheOracleTest : public ::testing::TestWithParam<u32> {};

TEST_P(CacheOracleTest, MatchesReferenceModel) {
  CacheConfig cfg;
  cfg.size_bytes = 2048;
  cfg.line_size = 128;
  cfg.assoc = GetParam();
  SetAssocCache c(cfg);

  struct RefWay {
    Addr line;
    u64 lru;
  };
  std::unordered_map<u32, std::vector<RefWay>> ref;  // set -> ways
  const u32 sets = cfg.num_sets();
  u64 clock = 0;

  std::mt19937_64 rng(1234 + cfg.assoc);
  for (int i = 0; i < 4000; ++i) {
    const Addr line = (rng() % 64) * 128;
    const u32 set = static_cast<u32>((line / 128) % sets);
    auto& ways = ref[set];
    auto it = std::find_if(ways.begin(), ways.end(),
                           [&](const RefWay& w) { return w.line == line; });
    const bool ref_hit = it != ways.end();
    EXPECT_EQ(c.access(line) != nullptr, ref_hit) << "iter " << i;
    if (ref_hit) {
      it->lru = ++clock;
    } else {
      // Model the controller: fill after miss.
      c.fill(line, LineMeta{});
      if (ways.size() < cfg.assoc) {
        ways.push_back({line, ++clock});
      } else {
        auto victim = std::min_element(
            ways.begin(), ways.end(),
            [](const RefWay& a, const RefWay& b) { return a.lru < b.lru; });
        *victim = {line, ++clock};
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Assocs, CacheOracleTest, ::testing::Values(1, 2, 4, 8));

TEST(MshrTest, AllocateMergeFill) {
  Mshr<int> m(4, 3);
  m.allocate(0x100, 1);
  const u32 slot = m.slot_of(0x100);
  ASSERT_NE(slot, Mshr<int>::kNone);
  EXPECT_TRUE(m.can_merge_at(slot));
  m.merge_at(slot, 2);
  m.merge_at(slot, 3);
  EXPECT_FALSE(m.can_merge_at(slot));  // max_merged = 3
  std::vector<int> waiters{99};  // fill_into clears stale contents first
  m.fill_into(0x100, waiters);
  EXPECT_EQ(waiters, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(m.slot_of(0x100), Mshr<int>::kNone);
}

TEST(MshrTest, SlotsAreReusedAndLookupsSeeOnlyLiveLines) {
  Mshr<int> m(2, 2);
  m.allocate(0x100, 1);
  m.allocate(0x200, 2);
  const u32 a = m.slot_of(0x100);
  const u32 b = m.slot_of(0x200);
  EXPECT_NE(a, b);
  std::vector<int> waiters;
  m.fill_into(0x100, waiters);
  EXPECT_EQ(m.slot_of(0x100), Mshr<int>::kNone);
  EXPECT_EQ(m.slot_of(0x200), b);
  m.allocate(0x300, 3);  // reuses the freed slot
  EXPECT_EQ(m.slot_of(0x300), a);
  EXPECT_EQ(m.outstanding_lines(), (std::vector<Addr>{0x200, 0x300}));
}

TEST(MshrTest, FullAtCapacity) {
  Mshr<int> m(2, 4);
  m.allocate(0x100, 1);
  EXPECT_FALSE(m.full());
  m.allocate(0x200, 2);
  EXPECT_TRUE(m.full());
  std::vector<int> waiters;
  m.fill_into(0x100, waiters);
  EXPECT_FALSE(m.full());
}

TEST(MshrTest, AllocatingWaiterFillsFirst) {
  Mshr<int> m(4, 4);
  m.allocate(0x100, 1);
  m.allocate(0x200, 2);
  // Merging does not displace the allocating waiter: the L1 reads a
  // prefetch's origin off the waiter list.
  m.merge_at(m.slot_of(0x100), 3);
  std::vector<int> waiters;
  m.fill_into(0x100, waiters);
  EXPECT_EQ(waiters, (std::vector<int>{1, 3}));
  m.fill_into(0x200, waiters);
  EXPECT_EQ(waiters, (std::vector<int>{2}));
}

TEST(CrossbarTest, LatencyIsRespected) {
  Crossbar x(2, /*latency=*/10, /*queue=*/4);
  MemRequest req;
  req.line = 0x80;
  x.push(0, req, /*now=*/100);
  MemRequest out;
  EXPECT_FALSE(x.pop(0, 105, out));
  EXPECT_FALSE(x.pop(0, 109, out));
  EXPECT_TRUE(x.pop(0, 110, out));
  EXPECT_EQ(out.line, 0x80u);
}

TEST(CrossbarTest, FifoPerDestination) {
  Crossbar x(1, 1, 8);
  for (u64 i = 0; i < 4; ++i) {
    MemRequest r;
    r.line = i * 128;
    x.push(0, r, 0);
  }
  MemRequest out;
  for (u64 i = 0; i < 4; ++i) {
    ASSERT_TRUE(x.pop(0, 100, out));
    EXPECT_EQ(out.line, i * 128);
  }
  EXPECT_TRUE(x.idle());
}

TEST(CrossbarTest, CapacityGatesAcceptance) {
  Crossbar x(1, 1, 2);
  MemRequest r;
  EXPECT_TRUE(x.can_accept(0));
  x.push(0, r, 0);
  x.push(0, r, 0);
  EXPECT_FALSE(x.can_accept(0));
}

TEST(CrossbarTest, PopsAreCountedPerLane) {
  Crossbar x(2, /*latency=*/3, /*queue=*/4);
  MemRequest r;
  x.push(1, r, 0);
  x.push(1, r, 0);
  MemRequest out;
  EXPECT_FALSE(x.arrived(1, 2));
  EXPECT_FALSE(x.pop(1, 2, out));  // a refused pop does not count
  EXPECT_EQ(x.pops(1), 0u);
  EXPECT_TRUE(x.arrived(1, 3));
  EXPECT_TRUE(x.pop(1, 3, out));
  EXPECT_TRUE(x.pop(1, 3, out));
  EXPECT_FALSE(x.arrived(1, 3));
  EXPECT_EQ(x.pops(1), 2u);
  EXPECT_EQ(x.pops(0), 0u);
}

class DramTest : public ::testing::Test {
 protected:
  GpuConfig cfg_;
  std::vector<MemRequest> done_;
  Cycle t_ = 0;  ///< persistent clock across run_until calls

  std::unique_ptr<DramChannel> make() {
    done_.clear();
    t_ = 0;
    return std::make_unique<DramChannel>(cfg_);
  }

  /// Advance the channel clock until `n` requests have completed; returns
  /// the number of cycles consumed by this call.
  Cycle run_until(DramChannel& ch, std::size_t n, Cycle limit = 100000) {
    const Cycle start = t_;
    while (done_.size() < n && t_ - start < limit) {
      MemRequest r;
      while (ch.pop_done(t_, r)) done_.push_back(r);
      ch.cycle(t_++);
    }
    return t_ - start;
  }
};

TEST_F(DramTest, ServesARead) {
  auto ch = make();
  MemRequest r;
  r.line = 0x1000;
  ch->submit(r);
  run_until(*ch, 1);
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_EQ(done_[0].line, 0x1000u);
  EXPECT_EQ(ch->stats().row_misses, 1u);
}

TEST_F(DramTest, RowHitsAreFasterThanMisses) {
  auto ch = make();
  // Two accesses to the same row.
  MemRequest a, b;
  a.line = 0;
  b.line = 128;  // same 2KB row
  ch->submit(a);
  const Cycle t1 = run_until(*ch, 1);
  ch->submit(b);
  const Cycle t2 = run_until(*ch, 2);  // cycles consumed by this call
  EXPECT_EQ(ch->stats().row_hits, 1u);
  EXPECT_EQ(ch->stats().row_misses, 1u);
  EXPECT_LT(t2, t1);
}

TEST_F(DramTest, FrFcfsPrefersRowHit) {
  auto ch = make();
  // Open row 0 by serving line 0 first.
  MemRequest warm;
  warm.line = 0;
  ch->submit(warm);
  run_until(*ch, 1);
  // Now submit: a row-miss (different row, same bank) then a row-hit.
  MemRequest miss, hit;
  miss.line = 2048ULL * 16;  // same bank (16 banks), different row
  hit.line = 256;            // row 0 again
  ch->submit(miss);
  ch->submit(hit);
  run_until(*ch, 3);
  ASSERT_EQ(done_.size(), 3u);
  // The row hit must have been served before the older row miss.
  EXPECT_EQ(done_[1].line, 256u);
  EXPECT_EQ(done_[2].line, 2048ULL * 16);
}

TEST_F(DramTest, BankParallelismBeatsSerialBank) {
  // N requests to N different banks vs N requests to one bank.
  auto ch1 = make();
  for (u32 i = 0; i < 8; ++i) {
    MemRequest r;
    r.line = static_cast<Addr>(i) * 2048;  // different banks
    ch1->submit(r);
  }
  const Cycle par = run_until(*ch1, 8);

  auto ch2 = make();
  for (u32 i = 0; i < 8; ++i) {
    MemRequest r;
    r.line = static_cast<Addr>(i) * 2048 * 16;  // same bank, different rows
    ch2->submit(r);
  }
  const Cycle ser = run_until(*ch2, 8);
  EXPECT_LT(par, ser);
}

TEST_F(DramTest, QueueCapacityIsEnforced) {
  auto ch = make();
  for (u32 i = 0; i < cfg_.dram_queue_size; ++i) {
    ASSERT_TRUE(ch->can_accept());
    MemRequest r;
    r.line = i * 128;
    ch->submit(r);
  }
  EXPECT_FALSE(ch->can_accept());
}

TEST_F(DramTest, CountsReadsAndWrites) {
  auto ch = make();
  MemRequest rd, wr;
  rd.line = 0;
  wr.line = 4096;
  wr.is_write = true;
  ch->submit(rd);
  ch->submit(wr);
  run_until(*ch, 2);
  EXPECT_EQ(ch->stats().reads, 1u);
  EXPECT_EQ(ch->stats().writes, 1u);
}

TEST_F(DramTest, IssuesExactlyWhenTheFirstQueuedRequestCanStart) {
  // Banks 0 and 1 busy with a read each; bank 0 started first, so it is
  // ready first, at the cycle its read completes. A row miss on bank 1 and
  // a row hit on bank 0 wait for it. A request for idle bank 2 arriving
  // meanwhile issues at once, and the hit issues at exactly bank 0's ready
  // cycle. tRRD = 0 keeps activation spacing out of the picture.
  cfg_.dram_banks = 4;
  cfg_.dram_timing.tRRD = 0;
  auto ch = make();
  MemRequest a, b, miss, hit, idle;
  a.line = 0;             // bank 0, row 0
  b.line = 2048;          // bank 1, row 0
  miss.line = 2048 * 5;   // bank 1, row 1
  hit.line = 128;         // bank 0, row 0
  idle.line = 2048 * 2;   // bank 2, row 0
  ch->submit(a);
  ch->submit(b);
  Cycle t = 0;
  MemRequest r;
  for (; ch->stats().reads < 2 && t < 1000; ++t) ch->cycle(t);
  ASSERT_EQ(ch->stats().reads, 2u);
  ch->submit(miss);
  ch->submit(hit);

  const Cycle idle_arrives = t + 3;
  Cycle idle_issued = 0;
  Cycle bank0_ready = 0;
  Cycle hit_issued = 0;
  for (; hit_issued == 0 && t < 1000; ++t) {
    if (ch->pop_done(t, r) && r.line == a.line) bank0_ready = t;
    if (t == idle_arrives) ch->submit(idle);
    const u64 misses = ch->stats().row_misses;
    const u64 hits = ch->stats().row_hits;
    ch->cycle(t);
    if (ch->stats().row_misses != misses) {
      ASSERT_EQ(idle_issued, 0u) << "a busy bank activated at cycle " << t;
      idle_issued = t;
    }
    if (ch->stats().row_hits != hits) hit_issued = t;
  }
  EXPECT_EQ(idle_issued, idle_arrives);
  ASSERT_NE(bank0_ready, 0u);
  EXPECT_EQ(hit_issued, bank0_ready);
}

// ------------------------------------------- FR-FCFS pick, differential ---

/// The channel as it was before pick() used bank masks: a row-hit scan, a
/// bounded oldest-per-bank activation scan, and, when both find nothing, a
/// third scan that sets next_pick_at_ to the queue's minimum start cycle.
/// issue() left next_pick_at_ in the past. Kept as the reference that
/// DramChannel must match command for command.
class RefDramChannel {
 public:
  explicit RefDramChannel(const GpuConfig& cfg)
      : row_bytes_(cfg.dram_row_bytes),
        num_banks_(cfg.dram_banks),
        queue_capacity_(cfg.dram_queue_size),
        banks_(cfg.dram_banks),
        bank_seen_(cfg.dram_banks, 0) {
    const double ratio = cfg.dram_clock_ratio();
    const auto scale = [ratio](u32 dram_cycles) {
      return static_cast<u32>(dram_cycles * ratio + 0.5);
    };
    const DramTiming& d = cfg.dram_timing;
    t_.tCL = scale(d.tCL);
    t_.tRP = scale(d.tRP);
    t_.tRC = scale(d.tRC);
    t_.tRCD = scale(d.tRCD);
    t_.tRRD = scale(d.tRRD);
    t_.tWR = scale(d.tWR);
    t_.burst = std::max<u32>(1, scale(d.burst));
  }

  bool can_accept() const { return queue_.size() < queue_capacity_; }

  void submit(const MemRequest& req) {
    Pending p;
    p.req = req;
    const u64 row_id = req.line / row_bytes_;
    p.bank = static_cast<u32>(row_id & (num_banks_ - 1));
    p.row = row_id >> std::countr_zero(static_cast<u64>(num_banks_));
    queue_.push_back(p);
    next_pick_at_ = std::min(next_pick_at_, start_at(p));
  }

  bool pop_done(Cycle now, MemRequest& out) {
    if (in_service_.empty() || in_service_.front().first > now) return false;
    out = in_service_.front().second;
    in_service_.pop_front();
    return true;
  }

  void cycle(Cycle now) {
    if (queue_.empty()) return;
    ++stats_.busy_cycles;
    if (now >= next_pick_at_) issue(now);
  }

  const DramStats& stats() const { return stats_; }

 private:
  struct Pending {
    MemRequest req;
    u32 bank = 0;
    u64 row = 0;
  };
  struct Bank {
    bool open = false;
    u64 row = 0;
    Cycle ready_at = 0;
    Cycle last_activate = 0;
  };

  Cycle activate_at(const Bank& b) const {
    Cycle t = std::max(b.ready_at, last_activate_any_ + t_.tRRD);
    if (b.open) t = std::max(t, b.last_activate + t_.tRC);
    return t;
  }
  Cycle start_at(const Pending& p) const {
    const Bank& b = banks_[p.bank];
    return b.open && b.row == p.row ? b.ready_at : activate_at(b);
  }

  std::deque<Pending>::iterator pick(Cycle now) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      const Bank& b = banks_[it->bank];
      if (b.ready_at <= now && b.open && b.row == it->row) return it;
    }
    std::fill(bank_seen_.begin(), bank_seen_.end(), u8{0});
    u32 seen = 0;
    for (auto it = queue_.begin(); it != queue_.end() && seen < num_banks_;
         ++it) {
      if (bank_seen_[it->bank] != 0) continue;
      bank_seen_[it->bank] = 1;
      ++seen;
      if (activate_at(banks_[it->bank]) <= now) return it;
    }
    next_pick_at_ = kNever;
    for (const Pending& p : queue_)
      next_pick_at_ = std::min(next_pick_at_, start_at(p));
    return queue_.end();
  }

  void issue(Cycle now) {
    auto it = pick(now);
    if (it == queue_.end()) return;
    Bank& bank = banks_[it->bank];
    Cycle data_start;
    if (bank.open && bank.row == it->row) {
      ++stats_.row_hits;
      data_start = now + t_.tCL;
    } else {
      ++stats_.row_misses;
      const u32 open_penalty = bank.open ? t_.tRP : 0;
      data_start = now + open_penalty + t_.tRCD + t_.tCL;
      bank.open = true;
      bank.row = it->row;
      bank.last_activate = now + open_penalty;
      last_activate_any_ = bank.last_activate;
    }
    const Cycle data_end = std::max(data_start, bus_free_at_) + t_.burst;
    bus_free_at_ = data_end;
    bank.ready_at = data_end + (it->req.is_write ? t_.tWR : 0);
    if (it->req.is_write)
      ++stats_.writes;
    else
      ++stats_.reads;
    in_service_.push_back({data_end, it->req});
    queue_.erase(it);
  }

  DramTiming t_;
  u32 row_bytes_;
  u32 num_banks_;
  std::size_t queue_capacity_;
  std::deque<Pending> queue_;
  std::vector<Bank> banks_;
  std::vector<u8> bank_seen_;
  Cycle next_pick_at_ = 0;
  Cycle bus_free_at_ = 0;
  Cycle last_activate_any_ = 0;
  std::deque<std::pair<Cycle, MemRequest>> in_service_;
  DramStats stats_;
};

struct DramPickCase {
  u32 banks;
  u32 trrd;  ///< DRAM cycles
};

class DramPickDifferentialTest
    : public ::testing::TestWithParam<DramPickCase> {};

/// Random traffic into both channels: bursts that fill the queue, quiet
/// stretches, row hits on a few hot rows, row misses and writes. Every
/// command must complete in the same order at the same data_end cycle.
TEST_P(DramPickDifferentialTest, MatchesThreeScanReference) {
  GpuConfig cfg;
  cfg.dram_banks = GetParam().banks;
  cfg.dram_timing.tRRD = GetParam().trrd;
  for (u64 seed = 1; seed <= 4; ++seed) {
    DramChannel ch(cfg);
    RefDramChannel ref(cfg);
    std::mt19937_64 rng(seed * 7919 + cfg.dram_banks);
    u64 completed = 0;
    u32 next_id = 0;
    for (Cycle now = 0; now < 40000; ++now) {
      // Phases of 500 cycles alternate heavy, light and no traffic.
      const u64 phase = (now / 500) % 3;
      const u64 per_mille = phase == 0 ? 900 : phase == 1 ? 60 : 0;
      ASSERT_EQ(ch.can_accept(), ref.can_accept()) << "cycle " << now;
      if (ch.can_accept() && rng() % 1000 < per_mille) {
        const u64 bank = rng() % cfg.dram_banks;
        const u64 row = rng() % 4 == 0 ? rng() % 64 : rng() % 2;  // hot rows
        const u64 col = rng() % (cfg.dram_row_bytes / 128);
        MemRequest r;
        r.line = (row * cfg.dram_banks + bank) * cfg.dram_row_bytes + col * 128;
        r.is_write = rng() % 5 == 0;
        r.created = next_id++;  // identifies the request
        ch.submit(r);
        ref.submit(r);
      }
      MemRequest a, b;
      while (ch.pop_done(now, a)) {
        ASSERT_TRUE(ref.pop_done(now, b)) << "cycle " << now;
        ASSERT_EQ(a.created, b.created) << "cycle " << now;
        ++completed;
      }
      ASSERT_FALSE(ref.pop_done(now, b)) << "cycle " << now;
      ASSERT_NO_THROW(ch.cycle(now)) << "cycle " << now;
      ref.cycle(now);
      ASSERT_EQ(ch.commands(), ref.stats().reads + ref.stats().writes)
          << "cycle " << now;
    }
    EXPECT_GT(completed, 1000u);
    const DramStats& s = ch.stats();
    const DramStats& r = ref.stats();
    EXPECT_EQ(s.reads, r.reads);
    EXPECT_EQ(s.writes, r.writes);
    EXPECT_EQ(s.row_hits, r.row_hits);
    EXPECT_EQ(s.row_misses, r.row_misses);
    EXPECT_EQ(s.busy_cycles, r.busy_cycles);
    EXPECT_GT(s.row_hits, 0u);
    EXPECT_GT(s.row_misses, 0u);
    EXPECT_GT(s.writes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BanksAndTrrd, DramPickDifferentialTest,
    ::testing::Values(DramPickCase{4, 0}, DramPickCase{4, 6},
                      DramPickCase{16, 0}, DramPickCase{16, 6},
                      DramPickCase{64, 0}, DramPickCase{64, 6}),
    [](const ::testing::TestParamInfo<DramPickCase>& param) {
      return "Banks" + std::to_string(param.param.banks) + "Trrd" +
             std::to_string(param.param.trrd);
    });

TEST_F(DramTest, PickAtOrAfterNextPickAtNeverFindsNothing) {
  // pick() throws if it runs at or after next_pick_at_ and finds no
  // command, so every cycle below either skips the queue or issues. Long
  // tRRD, tRC and tWR keep banks and activations blocked for many cycles
  // after each issue, and arrivals land while they are.
  cfg_.dram_banks = 4;
  cfg_.dram_timing.tRRD = 20;
  cfg_.dram_timing.tRC = 90;
  cfg_.dram_timing.tWR = 30;
  std::mt19937_64 rng(99);
  for (int round = 0; round < 3; ++round) {
    auto ch = make();
    for (; t_ < 30000; ++t_) {
      if (ch->can_accept() && rng() % 8 == 0) {
        MemRequest r;
        r.line = (rng() % 32) * cfg_.dram_row_bytes + (rng() % 16) * 128;
        r.is_write = rng() % 3 == 0;
        ch->submit(r);
      }
      MemRequest r;
      while (ch->pop_done(t_, r)) {
      }
      const u64 before = ch->commands();
      ASSERT_NO_THROW(ch->cycle(t_)) << "cycle " << t_;
      ASSERT_LE(ch->commands() - before, 1u);  // one command per cycle
    }
    EXPECT_GT(ch->commands(), 1000u);
  }
}

// --------------------------------------------------- L2 blocked heads -----

/// One L2 partition and its DRAM channel, driven in MemorySystem::cycle
/// order: the partition is ticked only when it is due.
struct L2Rig {
  explicit L2Rig(const GpuConfig& c) : cfg(c), ch(cfg), l2(cfg, ch) {}

  void read(Addr line) {
    MemRequest r;
    r.line = line;
    l2.accept(r, now);
  }
  void write(Addr line) {
    MemRequest w;
    w.line = line;
    w.is_write = true;
    l2.accept(w, now);
  }
  /// One cycle; `dram` false freezes the channel, so its queue never drains.
  void tick(bool dram = true) {
    if (l2.due(now)) {
      l2.cycle(now);
      ++ticks;
    }
    if (dram) {
      MemRequest done;
      while (ch.pop_done(now, done)) {
        if (done.is_write) written_back.push_back(done.line);
        l2.dram_done(done, now);
        ++fills;
      }
      ch.cycle(now);
    }
    ++now;
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

  /// The partition's counters as of the cycles ticked so far.
  L2Stats stats() const {
    L2Stats s = l2.stats();
    l2.add_slept(s, now);
    return s;
  }

  GpuConfig cfg;
  DramChannel ch;
  L2Partition l2;
  Cycle now = 0;
  u32 fills = 0;
  std::vector<Addr> written_back;  ///< lines of completed DRAM writes
  u32 ticks = 0;  ///< cycles the partition was due
};

TEST(L2MemoTest, DramFullHeadLeavesOnceTheChannelDrains) {
  GpuConfig cfg;
  cfg.dram_queue_size = 1;
  L2Rig r(cfg);
  r.read(0x0);
  r.write(0x80);  // a write miss also waits for a DRAM queue slot
  const Cycle ready = cfg.l2_latency;
  while (r.now <= ready) r.tick(false);
  ASSERT_EQ(r.stats().misses, 1u);
  for (int i = 0; i < 10; ++i) r.tick(false);
  EXPECT_EQ(r.stats().stall_dram_full, 10u);
  r.tick();  // refused once more; then the channel issues the read
  EXPECT_EQ(r.stats().misses, 1u);
  r.tick();
  EXPECT_EQ(r.stats().misses, 2u);
  EXPECT_EQ(r.stats().stall_dram_full, 11u);
  EXPECT_EQ(r.l2.probe_queue_size(), 0u);
}

TEST(L2MemoTest, MshrFullHeadLeavesTheCycleAfterTheFill) {
  GpuConfig cfg;
  cfg.l2.mshr_entries = 1;
  cfg.l2.mshr_max_merged = 1;
  L2Rig r(cfg);
  r.read(0x0);
  r.read(0x80);
  const Cycle fill = r.tick_until([&] { return r.fills == 1; });
  EXPECT_EQ(r.stats().misses, 1u);
  r.tick();
  EXPECT_EQ(r.stats().misses, 2u);
  // Blocked from the cycle after the first probe through the fill's cycle.
  EXPECT_EQ(r.stats().stall_mshr_full, fill - cfg.l2_latency);
}

TEST(L2MemoTest, MergeFullHeadHitsTheCycleAfterTheFill) {
  GpuConfig cfg;
  cfg.l2.mshr_max_merged = 1;
  L2Rig r(cfg);
  r.read(0x0);
  r.read(0x0);
  const Cycle fill = r.tick_until([&] { return r.fills == 1; });
  EXPECT_EQ(r.stats().hits, 0u);
  r.tick();
  EXPECT_EQ(r.stats().hits, 1u);
  EXPECT_EQ(r.stats().stall_mshr_full, fill - cfg.l2_latency);
}

TEST(L2MemoTest, NewHeadAfterAPopIsProbedFresh) {
  // The first head leaves through the DRAM check; the second, on the same
  // line, must see the entry the first allocated and merge.
  GpuConfig cfg;
  L2Rig r(cfg);
  r.read(0x0);
  r.read(0x0);
  while (r.now <= cfg.l2_latency + 1) r.tick();
  EXPECT_EQ(r.stats().misses, 2u);
  EXPECT_EQ(r.stats().mshr_merges, 1u);
  EXPECT_EQ(r.l2.mshr_size(), 1u);
}

TEST(L2MemoTest, ReprobingADramFullWriteHeadEveryCycleChangesNothing) {
  // A write-miss head blocked on the full DRAM queue is probed again on
  // every cycle an accept wakes the partition. Each probe counts one stall
  // and nothing else, and the line its allocation evicts is the one it
  // evicts without the wakes.
  struct Outcome {
    Addr victim;
    L2Stats stats;
  };
  const auto run = [](bool wake) {
    GpuConfig cfg;
    cfg.dram_queue_size = 1;
    cfg.l2.miss_queue_size = 64;  // room for an accept on every blocked cycle
    L2Rig r(cfg);
    // Lines set * i all map to set 0.
    const Addr set = Addr{cfg.l2.num_sets()} * cfg.l2.line_size;
    for (u32 i = 0; i < cfg.l2.assoc; ++i) r.write(set * i);  // dirty lines
    r.write(0);     // a hit: line 0 becomes the most recently used
    r.read(0x80);   // takes the only DRAM queue slot, which stays frozen
    r.write(set * cfg.l2.assoc);  // the head; it evicts line `set`
    while (r.stats().stall_dram_full == 0 && r.now < 1000) r.tick(false);
    const L2Stats blocked = r.stats();
    EXPECT_EQ(blocked.stall_dram_full, 1u);
    Addr behind = 0x80;
    for (u64 stalls = 2; stalls <= 40; ++stalls) {
      if (wake) r.read(behind += set);  // queued behind the head, in set 1
      const u32 ticks = r.ticks;
      r.tick(false);
      EXPECT_EQ(r.ticks, ticks + (wake ? 1 : 0));
      const L2Stats s = r.stats();
      EXPECT_EQ(s.stall_dram_full, stalls);
      EXPECT_EQ(s.accesses, blocked.accesses);
      EXPECT_EQ(s.hits, blocked.hits);
      EXPECT_EQ(s.misses, blocked.misses);
    }
    const u64 misses = blocked.misses;
    r.tick_until([&] { return r.stats().misses == misses + 1; });
    Outcome o{.victim = 0, .stats = r.stats()};
    r.tick_until([&] { return !r.written_back.empty(); });
    o.victim = r.written_back.front();
    return o;
  };
  const Outcome woken = run(true);
  const Outcome slept = run(false);
  GpuConfig cfg;
  EXPECT_EQ(woken.victim, Addr{cfg.l2.num_sets()} * cfg.l2.line_size);
  EXPECT_EQ(woken.victim, slept.victim);
  EXPECT_EQ(woken.stats.stall_dram_full, slept.stats.stall_dram_full);
  EXPECT_EQ(woken.stats.accesses, slept.stats.accesses);
  EXPECT_EQ(woken.stats.writebacks, 1u);
  EXPECT_EQ(slept.stats.writebacks, 1u);
}

// ------------------------------------------------ L2 stall-only sleep -----
//
// Each test puts the partition to sleep, shows that it is not ticked and
// that its stall counter still advances once per cycle, and then fires one
// wake source and checks that the partition moves on that cycle.

TEST(L2SleepTest, AcceptWakesAnIdlePartition) {
  GpuConfig cfg;
  L2Rig r(cfg);
  for (int i = 0; i < 10; ++i) r.tick();
  EXPECT_EQ(r.ticks, 1u);  // the first tick found nothing to do
  r.read(0x0);
  r.tick();
  EXPECT_EQ(r.ticks, 2u);
  // A second request behind a head blocked on the frozen DRAM queue wakes
  // it too; the stall keeps counting once per cycle across that tick.
  cfg.dram_queue_size = 1;
  L2Rig b(cfg);
  b.read(0x0);
  b.read(0x80);
  while (b.now <= cfg.l2_latency + 1) b.tick(false);
  ASSERT_EQ(b.stats().stall_dram_full, 1u);
  const u32 ticks = b.ticks;
  for (u64 i = 2; i <= 10; ++i) {
    b.tick(false);
    EXPECT_EQ(b.stats().stall_dram_full, i);
  }
  EXPECT_EQ(b.ticks, ticks);
  b.write(0x100);
  b.tick(false);
  EXPECT_EQ(b.ticks, ticks + 1);
  EXPECT_EQ(b.stats().stall_dram_full, 11u);
  EXPECT_EQ(b.l2.probe_queue_size(), 2u);
}

TEST(L2SleepTest, HeadReadyAtWakesThePartition) {
  GpuConfig cfg;
  L2Rig r(cfg);
  r.read(0x0);
  r.tick();  // woken by the accept; the head is not ready yet
  const u32 ticks = r.ticks;
  while (r.now < cfg.l2_latency) r.tick();
  EXPECT_EQ(r.ticks, ticks);
  EXPECT_EQ(r.stats().misses, 0u);
  r.tick();
  EXPECT_EQ(r.ticks, ticks + 1);
  EXPECT_EQ(r.stats().misses, 1u);
}

TEST(L2SleepTest, DramDoneWakesAnMshrBlockedHead) {
  GpuConfig cfg;
  cfg.l2.mshr_entries = 1;
  cfg.l2.mshr_max_merged = 1;
  L2Rig r(cfg);
  r.read(0x0);
  r.read(0x80);
  while (r.now <= cfg.l2_latency + 1) r.tick();
  ASSERT_EQ(r.stats().stall_mshr_full, 1u);
  const u32 ticks = r.ticks;
  // The fill's own cycle still stalls: the partition runs before the channel.
  u64 slept = 0;
  while (r.fills == 0 && r.now < 100'000) {
    r.tick();
    ++slept;
    EXPECT_EQ(r.stats().stall_mshr_full, 1 + slept);
  }
  EXPECT_GT(slept, 1u);
  EXPECT_EQ(r.ticks, ticks);
  r.tick();  // the cycle after the fill
  EXPECT_EQ(r.ticks, ticks + 1);
  EXPECT_EQ(r.stats().misses, 2u);
  EXPECT_EQ(r.stats().stall_mshr_full, 1 + slept);
}

TEST(L2SleepTest, ChannelIssueWakesADramBlockedHead) {
  GpuConfig cfg;
  cfg.dram_queue_size = 1;
  L2Rig r(cfg);
  r.read(0x0);
  r.read(0x80);
  while (r.now <= cfg.l2_latency + 1) r.tick(false);
  const u32 ticks = r.ticks;
  const u64 commands = r.ch.commands();
  for (u64 i = 2; i <= 20; ++i) {
    r.tick(false);
    EXPECT_EQ(r.stats().stall_dram_full, i);
  }
  EXPECT_EQ(r.ticks, ticks);
  r.tick();  // the channel issues the first read at the end of this cycle
  EXPECT_EQ(r.ch.commands(), commands + 1);
  EXPECT_EQ(r.ticks, ticks);
  EXPECT_EQ(r.stats().stall_dram_full, 21u);
  r.tick();
  EXPECT_EQ(r.ticks, ticks + 1);
  EXPECT_EQ(r.stats().misses, 2u);
  EXPECT_EQ(r.stats().stall_dram_full, 21u);
}

TEST(L2SleepTest, ChannelIssueWakesADeferredWriteback) {
  // A one-line L2 and a one-entry DRAM queue. A dirty line is evicted by a
  // read fill while the queue holds a read that its bank cannot start yet
  // (same bank, another row, inside tRC), so the write-back is deferred and
  // the partition, with nothing else to do, sleeps until the channel issues.
  GpuConfig cfg;
  cfg.l2.size_bytes = cfg.l2.line_size;
  cfg.l2.assoc = 1;
  cfg.dram_queue_size = 1;
  L2Rig r(cfg);
  r.write(0x0);
  r.read(0x80);
  r.tick();
  r.read(static_cast<Addr>(cfg.dram_row_bytes) * cfg.dram_banks);
  r.tick_until([&] { return r.l2.pending_writebacks() == 1; });
  const u32 ticks = r.ticks + 1;  // one more tick finds the queue full
  const u64 commands = r.ch.commands();
  r.tick_until([&] { return r.ch.commands() != commands; });
  EXPECT_EQ(r.ticks, ticks);
  EXPECT_EQ(r.l2.pending_writebacks(), 1u);
  r.tick();
  EXPECT_EQ(r.ticks, ticks + 1);
  EXPECT_EQ(r.l2.pending_writebacks(), 0u);
  EXPECT_EQ(r.ch.queue_size(), 1u);
}

TEST(MemorySystemTest, PartitionMappingIsChunked) {
  GpuConfig cfg;
  MemorySystem mem(cfg);
  // All lines within one chunk go to the same partition.
  const u32 p0 = mem.partition_of(0);
  EXPECT_EQ(mem.partition_of(128), p0);
  EXPECT_EQ(mem.partition_of(cfg.partition_chunk_bytes - 128), p0);
  EXPECT_NE(mem.partition_of(cfg.partition_chunk_bytes), p0);
  // Mapping covers all partitions.
  std::set<u32> seen;
  for (u32 c = 0; c < cfg.num_l2_partitions; ++c)
    seen.insert(mem.partition_of(static_cast<Addr>(c) * cfg.partition_chunk_bytes));
  EXPECT_EQ(seen.size(), cfg.num_l2_partitions);
}

TEST(MemorySystemTest, ReadRoundTrip) {
  GpuConfig cfg;
  MemorySystem mem(cfg);
  MemRequest req;
  req.line = 0x1000;
  req.sm_id = 3;
  ASSERT_TRUE(mem.can_accept(req.line));
  mem.submit(req, 0);
  MemRequest reply;
  bool got = false;
  for (Cycle t = 0; t < 5000 && !got; ++t) {
    mem.cycle(t);
    got = mem.pop_reply(3, t, reply);
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(reply.line, 0x1000u);
  EXPECT_EQ(mem.traffic().core_requests, 1u);
  EXPECT_EQ(mem.traffic().core_demand_requests, 1u);
  EXPECT_EQ(mem.dram_stats().reads, 1u);
}

TEST(MemorySystemTest, SecondReadHitsInL2) {
  GpuConfig cfg;
  MemorySystem mem(cfg);
  auto round_trip = [&](Cycle start) {
    MemRequest req;
    req.line = 0x2000;
    req.sm_id = 0;
    mem.submit(req, start);
    MemRequest reply;
    Cycle t = start;
    for (; t < start + 5000; ++t) {
      mem.cycle(t);
      if (mem.pop_reply(0, t, reply)) break;
    }
    return t - start;
  };
  const Cycle cold = round_trip(0);
  const Cycle warm = round_trip(10000);
  EXPECT_LT(warm, cold);
  EXPECT_EQ(mem.l2_stats().hits, 1u);
  EXPECT_EQ(mem.dram_stats().reads, 1u);
}

TEST(MemorySystemTest, RepliesWaitForRoomInTheReplyCrossbar) {
  // Twenty reads for one SM, whose replies are not popped: sixteen fill its
  // reply lane and the rest stay at the head of the partition reply queue
  // until it drains. None is lost or duplicated.
  GpuConfig cfg;
  MemorySystem mem(cfg);
  std::multiset<Addr> sent;
  Cycle t = 0;
  for (u32 i = 0; i < 20; ++i) {
    MemRequest req;
    req.line = static_cast<Addr>(i) * cfg.partition_chunk_bytes *
               cfg.num_l2_partitions;
    while (!mem.can_accept(req.line) && t < 100'000) mem.cycle(t++);
    ASSERT_TRUE(mem.can_accept(req.line)) << "request crossbar never drained";
    mem.submit(req, t);
    sent.insert(req.line);
  }
  for (; t < 20'000; ++t) mem.cycle(t);
  std::multiset<Addr> got;
  MemRequest reply;
  for (; t < 40'000 && got.size() < sent.size(); ++t) {
    while (mem.pop_reply(0, t, reply)) got.insert(reply.line);
    mem.cycle(t);
  }
  EXPECT_EQ(got, sent);
  EXPECT_TRUE(mem.idle());
}

TEST(MemorySystemTest, WritesProduceNoReply) {
  GpuConfig cfg;
  MemorySystem mem(cfg);
  MemRequest wr;
  wr.line = 0x3000;
  wr.is_write = true;
  wr.sm_id = 1;
  mem.submit(wr, 0);
  MemRequest reply;
  for (Cycle t = 0; t < 3000; ++t) {
    mem.cycle(t);
    EXPECT_FALSE(mem.pop_reply(1, t, reply));
  }
  EXPECT_TRUE(mem.idle());
  EXPECT_EQ(mem.traffic().core_write_requests, 1u);
}

TEST(MemorySystemTest, DirtyLinesWriteBackOnEviction) {
  GpuConfig cfg;
  // Shrink L2 so evictions happen quickly.
  cfg.l2.size_bytes = 2 * 1024;
  cfg.l2.assoc = 2;
  MemorySystem mem(cfg);
  // Write many distinct lines mapping to partition 0's slice.
  Cycle t = 0;
  for (u32 i = 0; i < 64; ++i) {
    const Addr line = static_cast<Addr>(i) * cfg.partition_chunk_bytes *
                      cfg.num_l2_partitions;  // all partition 0, distinct sets
    MemRequest wr;
    wr.line = line;
    wr.is_write = true;
    while (!mem.can_accept(line) && t < 100'000) mem.cycle(t++);
    ASSERT_TRUE(mem.can_accept(line)) << "request crossbar never drained";
    mem.submit(wr, t);
    mem.cycle(t++);
  }
  for (Cycle end = t + 20000; t < end && !mem.idle(); ++t) mem.cycle(t);
  EXPECT_GT(mem.l2_stats().writebacks, 0u);
  EXPECT_GT(mem.dram_stats().writes, 0u);
}

}  // namespace
}  // namespace caps
