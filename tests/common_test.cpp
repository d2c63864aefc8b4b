// Unit tests for src/common: types, config validation, bounded queue,
// running statistics and the counter-group base over every statistics
// group, deterministic hashing, the sleep ledger, and the wake calendar's
// room-wait list and timing wheel against a row-scan reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/sleep_ledger.hpp"
#include "common/slot_array.hpp"
#include "common/slot_region.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/wake_calendar.hpp"
#include "gpu/gpu.hpp"
#include "gpu/sm_stats.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/l2_partition.hpp"
#include "mem/memory_system.hpp"
#include "prefetch/prefetcher.hpp"

namespace caps {
namespace {

TEST(Dim3Test, CountMultipliesComponents) {
  EXPECT_EQ((Dim3{4, 3, 2}.count()), 24u);
  EXPECT_EQ((Dim3{1, 1, 1}.count()), 1u);
  EXPECT_EQ((Dim3{7}.count()), 7u);
}

TEST(Dim3Test, FlattenUnflattenRoundTrip) {
  const Dim3 extent{5, 4, 3};
  for (u32 flat = 0; flat < extent.count(); ++flat) {
    const Dim3 id = unflatten(flat, extent);
    EXPECT_LT(id.x, extent.x);
    EXPECT_LT(id.y, extent.y);
    EXPECT_LT(id.z, extent.z);
    EXPECT_EQ(flatten(id, extent), flat);
  }
}

TEST(Dim3Test, FlattenXFastest) {
  const Dim3 extent{8, 8, 1};
  EXPECT_EQ(flatten(Dim3{1, 0, 0}, extent), 1u);
  EXPECT_EQ(flatten(Dim3{0, 1, 0}, extent), 8u);
}

TEST(TypesTest, LineBaseAlignsDown) {
  EXPECT_EQ(line_base(0, 128), 0u);
  EXPECT_EQ(line_base(127, 128), 0u);
  EXPECT_EQ(line_base(128, 128), 128u);
  EXPECT_EQ(line_base(0x1000'0042, 128), 0x1000'0000u);
}

TEST(ConfigTest, DefaultsAreValid) {
  GpuConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigTest, TableIIIDefaults) {
  // Spot-check the paper's Table III values.
  GpuConfig cfg;
  EXPECT_EQ(cfg.num_sms, 15u);
  EXPECT_EQ(cfg.core_clock_mhz, 1400u);
  EXPECT_EQ(cfg.max_warps_per_sm, 48u);
  EXPECT_EQ(cfg.max_ctas_per_sm, 8u);
  EXPECT_EQ(cfg.ready_queue_size, 8u);
  EXPECT_EQ(cfg.l1d.size_bytes, 16u * 1024);
  EXPECT_EQ(cfg.l1d.line_size, 128u);
  EXPECT_EQ(cfg.l1d.assoc, 4u);
  EXPECT_EQ(cfg.l1d.mshr_entries, 32u);
  EXPECT_EQ(cfg.num_l2_partitions, 12u);
  EXPECT_EQ(cfg.l2.size_bytes, 64u * 1024);
  EXPECT_EQ(cfg.l2.assoc, 8u);
  EXPECT_EQ(cfg.num_dram_channels, 6u);
  EXPECT_EQ(cfg.dram_clock_mhz, 924u);
  EXPECT_EQ(cfg.l2_queue_size, 16u);
  EXPECT_EQ(cfg.dram_queue_size, 16u);
  EXPECT_EQ(cfg.dram_timing.tCL, 12u);
  EXPECT_EQ(cfg.dram_timing.tRP, 12u);
  EXPECT_EQ(cfg.dram_timing.tRC, 40u);
  EXPECT_EQ(cfg.dram_timing.tRCD, 12u);
  EXPECT_EQ(cfg.dram_timing.tRRD, 6u);
  EXPECT_EQ(cfg.caps.percta_entries, 4u);
  EXPECT_EQ(cfg.caps.dist_entries, 4u);
  EXPECT_EQ(cfg.caps.mispredict_threshold, 128u);
}

TEST(ConfigTest, RejectsBadCacheGeometry) {
  GpuConfig cfg;
  cfg.l1d.line_size = 100;  // not a power of two
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsZeroSms) {
  GpuConfig cfg;
  cfg.num_sms = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsMismatchedLineSizes) {
  GpuConfig cfg;
  cfg.l2.line_size = 256;
  cfg.l2.size_bytes = 64 * 1024;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsPartitionChannelMismatch) {
  GpuConfig cfg;
  cfg.num_dram_channels = 5;  // 12 % 5 != 0
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsChunkSmallerThanLine) {
  GpuConfig cfg;
  cfg.partition_chunk_bytes = 64;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsZeroSets) {
  GpuConfig cfg;
  cfg.l1d.size_bytes = 0;  // 0 % (line*assoc) == 0, but num_sets() == 0
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsMoreDramBanksThanTheBankMaskHolds) {
  GpuConfig cfg;
  cfg.dram_banks = 64;
  EXPECT_NO_THROW(cfg.validate());
  cfg.dram_banks = 128;  // a power of two, but past the 64-bit bank mask
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsMoreDramQueueSlotsThanTheSlotMaskHolds) {
  GpuConfig cfg;
  cfg.dram_queue_size = 64;
  EXPECT_NO_THROW(cfg.validate());
  cfg.dram_queue_size = 65;  // past the 64-bit slot mask
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsMoreComponentsThanTheWakeCalendarMaskHolds) {
  // The wake calendar gives each SM, L2 partition and DRAM channel one bit
  // of a 64-bit mask.
  GpuConfig cfg;
  cfg.num_sms = 64;
  cfg.num_l2_partitions = 64;
  cfg.num_dram_channels = 64;
  EXPECT_NO_THROW(cfg.validate());
  GpuConfig sms = cfg;
  sms.num_sms = 65;
  EXPECT_THROW(sms.validate(), std::invalid_argument);
  GpuConfig partitions = cfg;
  partitions.num_l2_partitions = 128;  // still a multiple of the channels
  EXPECT_THROW(partitions.validate(), std::invalid_argument);
  // Channels divide the partitions, so 65 of them need too many partitions.
  GpuConfig channels = cfg;
  channels.num_dram_channels = 65;
  channels.num_l2_partitions = 65;
  EXPECT_THROW(channels.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsMergeCapacityAboveEntryCount) {
  GpuConfig cfg;
  cfg.l1d.mshr_max_merged = cfg.l1d.mshr_entries + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsZeroL2QueueSize) {
  GpuConfig cfg;
  cfg.l2_queue_size = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, RejectsZeroMaxCycles) {
  GpuConfig cfg;
  cfg.max_cycles = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, DramClockRatioScalesToCore) {
  GpuConfig cfg;
  EXPECT_NEAR(cfg.dram_clock_ratio(), 1400.0 / 924.0, 1e-9);
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(3);
  q.push_back(1);
  q.push_back(2);
  q.push_back(3);
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.front(), 1);
  q.pop_front();
  EXPECT_EQ(q.front(), 2);
  q.pop_front();
  q.push_back(4);
  EXPECT_EQ(q.front(), 3);
  q.pop_front();
  EXPECT_EQ(q.front(), 4);
  q.pop_front();
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueueTest, CapacityIsExactNotThePowerOfTwoRing) {
  BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  q.push_back(1);
  q.push_front(0);
  EXPECT_FALSE(q.full());
  q.push_back(2);
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.size(), 3u);
}

/// A ring element that counts its constructions and has no default
/// constructor, so a ring that built slots up front would not compile.
struct Built {
  static inline int constructed = 0;
  explicit Built(int x) : v(x) { ++constructed; }
  Built(const Built& o) : v(o.v) { ++constructed; }
  Built& operator=(const Built&) = default;
  int v;
};

std::vector<int> values(const BoundedQueue<Built>& q) {
  std::vector<int> out;
  for (std::size_t i = 0; i < q.size(); ++i) out.push_back(q[i].v);
  return out;
}

TEST(BoundedQueueTest, SlotsAreBuiltOnPushAndSurviveWrapFrontPushAndErase) {
  Built::constructed = 0;
  BoundedQueue<Built> q(8);
  EXPECT_EQ(Built::constructed, 0);  // building the ring builds no slot
  for (int i = 0; i < 6; ++i) q.push_back(Built(i));
  EXPECT_GT(Built::constructed, 0);
  for (int i = 0; i < 4; ++i) q.pop_front();
  for (int i = 6; i < 11; ++i) q.push_back(Built(i));  // wraps the ring
  q.push_front(Built(3));
  EXPECT_TRUE(q.full());
  EXPECT_EQ(values(q), (std::vector<int>{3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(q.back().v, 10);
  q.erase(3);  // across the wrap point
  EXPECT_EQ(values(q), (std::vector<int>{3, 4, 5, 7, 8, 9, 10}));
  q.pop_back();
  q.push_back(Built(11));
  q.push_back(Built(12));
  EXPECT_EQ(values(q), (std::vector<int>{3, 4, 5, 7, 8, 9, 11, 12}));
  EXPECT_THROW(q.push_back(Built(13)), SimError);  // the ring never grows
  EXPECT_THROW(q.push_front(Built(13)), SimError);
}

/// The byte range [first, last) of `n` elements at `p`.
template <typename T>
std::pair<std::uintptr_t, std::uintptr_t> bytes_of(const T* p, std::size_t n) {
  const auto first = reinterpret_cast<std::uintptr_t>(p);
  return {first, first + n * sizeof(T)};
}

struct alignas(32) Wide {
  u64 v[4];
};

TEST(SlotRegionTest, EveryCarveIsAlignedForItsType) {
  SlotRegion region;
  for (std::size_t n = 1; n < 40; n += 3) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(region.carve<char>(n)) %
                  alignof(char), 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(region.carve<u16>(n)) %
                  alignof(u16), 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(region.carve<Wide>(n)) %
                  alignof(Wide), 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(region.carve<u64>(n)) %
                  alignof(u64), 0u);
  }
}

TEST(SlotRegionTest, CarvedArraysNeverOverlap) {
  SlotRegion region;
  std::mt19937_64 rng(7);
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
  std::vector<SlotArray<u64>> arrays;
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = 1 + rng() % 3000;  // some spill into new blocks
    arrays.emplace_back(n, &region);
    SlotArray<u64>& a = arrays.back();
    // Build every slot with its array's number, so an overlap shows as a
    // value another array wrote over.
    for (std::size_t k = 0; k < n; ++k) a.emplace(k, static_cast<u64>(i));
    ranges.push_back(bytes_of(&a[0], n));
  }
  for (std::size_t i = 0; i < arrays.size(); ++i)
    for (std::size_t k = 0; k < arrays[i].size(); ++k)
      ASSERT_EQ(arrays[i][k], i) << "array " << i << " slot " << k;
  std::sort(ranges.begin(), ranges.end());
  for (std::size_t i = 1; i < ranges.size(); ++i)
    EXPECT_LE(ranges[i - 1].second, ranges[i].first);
}

TEST(SlotRegionTest, ARequestLargerThanTheSpaceLeftOpensANewBlock) {
  SlotRegion region;
  EXPECT_EQ(region.reserved_bytes(), 0u);  // no block before the first carve
  const std::size_t most = SlotRegion::kBlockBytes / 2;
  const char* a = region.carve<char>(most);
  const std::size_t one_block = region.reserved_bytes();
  EXPECT_GE(one_block, SlotRegion::kBlockBytes);
  // Fits in what is left: same block.
  const char* b = region.carve<char>(16);
  EXPECT_EQ(region.reserved_bytes(), one_block);
  EXPECT_EQ(b, a + most);
  // Does not fit: a new block, none of whose bytes are the first block's.
  const char* c = region.carve<char>(most);
  EXPECT_EQ(region.reserved_bytes(), 2 * one_block);
  EXPECT_TRUE(c + most <= a || c >= b + 16);
  // Larger than a block: a block of its own size.
  const std::size_t huge = 3 * SlotRegion::kBlockBytes;
  char* d = region.carve<char>(huge);
  EXPECT_GE(region.reserved_bytes(), 2 * one_block + huge);
  d[0] = 1;  // the whole carve is addressable
  d[huge - 1] = 2;
}

TEST(SlotRegionTest, RegionArraysSurviveAMove) {
  SlotRegion region;
  SlotArray<u64> a(4, &region);
  for (std::size_t k = 0; k < 4; ++k) a.emplace(k, 10 + k);
  SlotArray<u64> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[3], 13u);
  SlotArray<u64> owned(2);  // heap storage, swapped in by the assignment
  owned.emplace(0, 7);
  owned = std::move(b);
  EXPECT_EQ(owned[0], 10u);
  EXPECT_EQ(b[0], 7u);  // each keeps freeing only what it owns

  BoundedQueue<int> q(3, &region);
  q.push_back(1);
  q.push_back(2);
  BoundedQueue<int> moved(std::move(q));
  moved.push_back(3);
  EXPECT_TRUE(moved.full());
  EXPECT_EQ(moved.front(), 1);
  moved.pop_front();
  EXPECT_EQ(moved.front(), 2);
}

// The asan leg turns any access to freed region storage into a failure:
// arrays destroyed after their region touch none of it, and a machine's
// parts, which its memory system destroys before the region, touch none
// of it at teardown.
TEST(SlotRegionTest, NothingTouchesTheStorageOnceItsOwnerIsGone) {
  auto region = std::make_unique<SlotRegion>();
  SlotArray<u64> array(8, region.get());
  BoundedQueue<u64> queue(8, region.get());
  array.emplace(0, 1);
  queue.push_back(2);
  region.reset();  // frees the storage; the array and queue outlive it

  GpuConfig cfg;
  cfg.num_sms = 2;
  auto mem = std::make_unique<MemorySystem>(cfg);
  MemRequest req;
  req.line = 0x1000;
  mem->submit(req, 0);
  MemRequest reply;
  Cycle now = 0;
  for (; now < 10'000 && !mem->pop_reply(req.sm_id, now, reply); ++now)
    mem->cycle(now);
  EXPECT_EQ(reply.line, req.line);
  mem.reset();
}

TEST(RunningStatTest, MeanMinMax) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(9.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, MergeCombines) {
  RunningStat a, b;
  a.add(1.0);
  a.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(RunningStatTest, MergeWithEmptyKeepsBounds) {
  RunningStat a, empty;
  a.add(7.0);
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.min(), 7.0);
  EXPECT_DOUBLE_EQ(a.max(), 7.0);
}

template <typename Group>
class CounterGroupTest : public ::testing::Test {};
using StatsGroups =
    ::testing::Types<SmStats, PrefetchEngineStats, XbarStats, L2Stats,
                     DramStats, GpuStats>;
TYPED_TEST_SUITE(CounterGroupTest, StatsGroups);

// Distinct values catch a merge that adds one counter into another.
TYPED_TEST(CounterGroupTest, MergeDoublesEveryRegisteredCounter) {
  TypeParam g{};
  u64 next = 1;
  TypeParam::for_each_counter_member(
      [&](const char*, auto m) { g.*m = next++; });
  const TypeParam copy = g;
  g.merge(copy);
  u64 want = 1;
  g.for_each_counter([&](const char* name, u64 v) {
    EXPECT_EQ(v, 2 * want) << name;
    ++want;
  });
  EXPECT_EQ(want, next);
  EXPECT_GT(want, 1u);
}

TEST(SmStatsMergeTest, MergesEveryRegisteredRunningStat) {
  SmStats a, b;
  double k = 0.0;
  SmStats::for_each_running_stat_member([&](const char*, auto m) {
    k += 1.0;
    (a.*m).add(2.0 * k);
    (a.*m).add(3.0 * k);
    (b.*m).add(k);
    (b.*m).add(7.0 * k);
  });
  a.merge(b);
  k = 0.0;
  SmStats::for_each_running_stat_member([&](const char* name, auto m) {
    k += 1.0;
    const RunningStat& r = a.*m;
    EXPECT_EQ(r.count(), 4u) << name;
    EXPECT_DOUBLE_EQ(r.sum(), 13.0 * k) << name;
    EXPECT_DOUBLE_EQ(r.min(), k) << name;
    EXPECT_DOUBLE_EQ(r.max(), 7.0 * k) << name;
  });
  EXPECT_DOUBLE_EQ(k, 2.0);
}

TEST(RatioTest, HandlesZeroDenominator) {
  EXPECT_DOUBLE_EQ(ratio(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(1, 0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
}

TEST(RngTest, Mix64IsDeterministicAndDispersive) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // Adjacent inputs should differ in many bits.
  const u64 d = mix64(100) ^ mix64(101);
  EXPECT_GT(std::popcount(d), 10);
}

TEST(RngTest, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2, 3), hash_combine(1, 2, 3));
}

struct LedgerStats {
  u64 stalls = 0;
  u64 slots = 0;
  u64 other = 0;
};

// ------------------------------------------ timed wakes, differential ---

/// The calendar's timed rows as they were before the timing wheel: per row
/// the ids whose wake has come and a lower bound on the others' wakes, and
/// a pass that rescans a row whenever one of its wakes may have come. Kept
/// as the reference that WakeCalendar::take must match pass for pass.
class RefWakeCalendar {
 public:
  RefWakeCalendar(u32 sms, u32 partitions)
      : ids_{sms, sms, sms, partitions, partitions} {
    next_.fill(kNever);
    for (auto& row : rows_) row.fill(kNever);
  }

  Cycle at(WakeCalendar::Row r, u32 id) const { return rows_[r][id]; }

  void arm(WakeCalendar::Row r, u32 id, Cycle c) {
    rows_[r][id] = c;
    if (c == 0) {
      come_[r] |= WakeCalendar::bit(id);
      return;
    }
    come_[r] &= ~WakeCalendar::bit(id);
    next_[r] = std::min(next_[r], c);
  }

  void mark(WakeCalendar::Kind k, u64 ids) { marks_[k] |= ids; }

  u64 take(WakeCalendar::Kind k, Cycle now) {
    u64 ids = std::exchange(marks_[k], 0);
    for (u32 r = kFirstRow[k]; r < kFirstRow[k + 1]; ++r) {
      if (now >= next_[r]) refresh(r, now);
      ids |= come_[r];
    }
    return ids;
  }

 private:
  static constexpr u32 kRows = WakeCalendar::kRows;
  static constexpr std::array<u32, WakeCalendar::kKinds + 1> kFirstRow = {
      WakeCalendar::kLdStRow, WakeCalendar::kL2Row, kRows, kRows};

  void refresh(u32 r, Cycle now) {
    Cycle next = kNever;
    for (u32 i = 0; i < ids_[r]; ++i) {
      const Cycle c = rows_[r][i];
      if (c <= now)
        come_[r] |= WakeCalendar::bit(i);
      else
        next = std::min(next, c);
    }
    next_[r] = next;
  }

  std::array<u32, kRows> ids_;
  std::array<u64, WakeCalendar::kKinds> marks_{};
  std::array<u64, kRows> come_{};
  std::array<Cycle, kRows> next_;
  std::array<std::array<Cycle, WakeCalendar::kMaxIds>, kRows> rows_;
};

/// Random arms, marks and passes on both calendars, as the machine makes
/// them: each cycle passes every kind once, in phase order, and arms and
/// marks land between passes. The cycle advances by one mostly, and by
/// gaps up to three wheel turns otherwise. Arms reach at once (0), the
/// past, this cycle, the wheel, past the wheel, and kNever, and re-arm ids
/// that are already armed. Every pass must return the same ids.
TEST(WakeCalendarWheelTest, MatchesTheRowScanReference) {
  constexpr Cycle kWheel = WakeCalendar::kWheel;
  for (u64 seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const auto sms = static_cast<u32>(1 + rng() % 64);
    const auto partitions = static_cast<u32>(1 + rng() % 64);
    WakeCalendar cal(sms, partitions);
    RefWakeCalendar ref(sms, partitions);
    const auto ids_of = [&](u32 row) {
      return row < WakeCalendar::kL2Row ? sms : partitions;
    };
    u64 taken = 0;
    Cycle now = 0;
    for (u32 step = 0; step < 20000; ++step) {
      for (u32 k = 0; k < WakeCalendar::kKinds; ++k) {
        const auto kind = static_cast<WakeCalendar::Kind>(k);
        const u64 got = cal.take(kind, now);
        ASSERT_EQ(got, ref.take(kind, now))
            << "seed " << seed << " cycle " << now << " kind " << k;
        taken |= got;
        for (u32 n = static_cast<u32>(rng() % 6); n > 0; --n) {
          const auto row =
              static_cast<WakeCalendar::Row>(rng() % WakeCalendar::kRows);
          const auto id = static_cast<u32>(rng() % ids_of(row));
          Cycle c = 0;
          switch (rng() % 8) {
            case 0: c = 0; break;
            case 1: c = now - std::min<Cycle>(now, rng() % 300); break;
            case 2: c = now; break;
            case 3: c = now + 1; break;
            case 4: c = now + 1 + rng() % kWheel; break;
            case 5: c = now + kWheel + rng() % (3 * kWheel); break;
            case 6: c = kNever; break;
            default: c = now + rng() % 40; break;
          }
          cal.arm(row, id, c);
          ref.arm(row, id, c);
          ASSERT_EQ(cal.at(row, id), c);
        }
        if (rng() % 4 == 0) {
          const auto mk =
              static_cast<WakeCalendar::Kind>(rng() % WakeCalendar::kKinds);
          const u64 ids = WakeCalendar::bit(static_cast<u32>(rng() % 64));
          cal.mark(mk, ids);
          ref.mark(mk, ids);
        }
      }
      now += rng() % 16 == 0 ? rng() % (3 * kWheel) : 1;
    }
    EXPECT_NE(taken, 0u);
  }
}

TEST(WakeCalendarWheelTest, AnArmAtOrBeforeTheLastPassIsDueAtTheNext) {
  WakeCalendar cal(2, 1);
  cal.take(WakeCalendar::kSm, 10);
  cal.arm(WakeCalendar::kReplyRow, 1, 10);  // the cycle just taken
  cal.arm(WakeCalendar::kLdStRow, 0, 3);    // the past
  EXPECT_EQ(cal.take(WakeCalendar::kSm, 11), 0b11u);
  // Due at every pass until re-armed; a wake beyond the wheel is not.
  EXPECT_EQ(cal.take(WakeCalendar::kSm, 12), 0b11u);
  cal.arm(WakeCalendar::kLdStRow, 0, 12 + 3 * WakeCalendar::kWheel);
  cal.arm(WakeCalendar::kReplyRow, 1, kNever);
  EXPECT_EQ(cal.take(WakeCalendar::kSm, 13), 0u);
  EXPECT_EQ(cal.take(WakeCalendar::kSm, 11 + 3 * WakeCalendar::kWheel), 0u);
  EXPECT_EQ(cal.take(WakeCalendar::kSm, 12 + 3 * WakeCalendar::kWheel), 0b1u);
}

TEST(WakeCalendarRoomTest, RoomMarksTheQueuesWaitersUntilTheyWithdraw) {
  // 4 SMs, 8 partitions. Each queue lists ids of its waiter kind: SMs on
  // request lanes, partitions on the DRAM queues of channels 0 and 1.
  WakeCalendar cal(4, 8);
  const auto taken = [&cal] {
    std::array<u64, WakeCalendar::kKinds> ids{};
    for (u32 k = 0; k < WakeCalendar::kKinds; ++k)
      ids[k] = cal.take(static_cast<WakeCalendar::Kind>(k), 0);
    return ids;
  };
  using Ids = std::array<u64, WakeCalendar::kKinds>;
  cal.wait_room(WakeCalendar::kRequestLane, 5, 2, true);  // SM 2 on lane 5
  cal.wait_room(WakeCalendar::kRequestLane, 6, 3, true);  // SM 3 on lane 6
  cal.wait_room(WakeCalendar::kDramQueue, 1, 3, true);  // partition 3
  EXPECT_EQ(taken(), Ids{});  // waiting marks nothing

  cal.room(WakeCalendar::kRequestLane, 5);
  EXPECT_EQ(taken(), (Ids{WakeCalendar::bit(2), 0, 0}));
  cal.room(WakeCalendar::kDramQueue, 1);
  EXPECT_EQ(taken(), (Ids{0, WakeCalendar::bit(3), 0}));
  // The same ids on the other queues of each kind have no waiters.
  cal.room(WakeCalendar::kRequestLane, 2);
  cal.room(WakeCalendar::kDramQueue, 0);
  EXPECT_EQ(taken(), Ids{});

  // A waiter stays listed across rooms until it withdraws.
  cal.room(WakeCalendar::kRequestLane, 5);
  cal.room(WakeCalendar::kRequestLane, 5);
  EXPECT_EQ(taken(), (Ids{WakeCalendar::bit(2), 0, 0}));
  EXPECT_EQ(cal.waiters(WakeCalendar::kRequestLane, 5), WakeCalendar::bit(2));
  cal.wait_room(WakeCalendar::kRequestLane, 5, 2, false);
  cal.room(WakeCalendar::kRequestLane, 5);
  EXPECT_EQ(taken(), Ids{});
  EXPECT_EQ(cal.waiters(WakeCalendar::kRequestLane, 5), 0u);
  // Withdrawing from one queue leaves the others' lists alone.
  EXPECT_EQ(cal.waiters(WakeCalendar::kRequestLane, 6), WakeCalendar::bit(3));
  EXPECT_EQ(cal.waiters(WakeCalendar::kDramQueue, 1), WakeCalendar::bit(3));
  cal.wait_room(WakeCalendar::kDramQueue, 1, 5, true);
  cal.wait_room(WakeCalendar::kDramQueue, 1, 3, false);
  cal.room(WakeCalendar::kDramQueue, 1);
  EXPECT_EQ(taken(), (Ids{0, WakeCalendar::bit(5), 0}));
}

TEST(SleepLedgerTest, MidSleepReadEqualsWhatSettleAdds) {
  WakeCalendar cal(1, 1);
  SleepLedger<LedgerStats> ledger(cal, WakeCalendar::kLdStRow, 0);
  ledger.sleep(10, kNever);
  ledger.owe(&LedgerStats::stalls);
  LedgerStats read;
  ledger.add_to(read, 25);
  LedgerStats settled;
  ledger.settle(settled, 25);
  EXPECT_EQ(read.stalls, 15u);
  EXPECT_EQ(settled.stalls, read.stalls);
  EXPECT_EQ(settled.other, 0u);
}

TEST(SleepLedgerTest, PerCycleMultipliesTheCount) {
  WakeCalendar cal(1, 1);
  SleepLedger<LedgerStats> ledger(cal, WakeCalendar::kLdStRow, 0);
  ledger.sleep(4, kNever);
  ledger.owe(&LedgerStats::stalls);
  ledger.owe(&LedgerStats::slots, 3);
  LedgerStats s;
  ledger.settle(s, 10);
  EXPECT_EQ(s.stalls, 6u);
  EXPECT_EQ(s.slots, 18u);
}

TEST(SleepLedgerTest, WakeKeepsTheOwedCountersUntilSettle) {
  WakeCalendar cal(1, 1);
  SleepLedger<LedgerStats> ledger(cal, WakeCalendar::kLdStRow, 0);
  ledger.sleep(10, 100);
  ledger.owe(&LedgerStats::stalls);
  EXPECT_FALSE(ledger.due(50));
  EXPECT_TRUE(ledger.due(100));
  ledger.wake();
  EXPECT_TRUE(ledger.due(50));
  EXPECT_TRUE(ledger.owes(&LedgerStats::stalls));
  EXPECT_FALSE(ledger.owes(&LedgerStats::slots));
  LedgerStats s;
  ledger.settle(s, 51);
  EXPECT_EQ(s.stalls, 41u);
}

TEST(SleepLedgerTest, SettleLeavesNothingOwed) {
  WakeCalendar cal(1, 1);
  SleepLedger<LedgerStats> ledger(cal, WakeCalendar::kLdStRow, 0);
  ledger.sleep(1, kNever);
  ledger.owe(&LedgerStats::stalls);
  ledger.owe(&LedgerStats::other, 2);
  LedgerStats s;
  ledger.settle(s, 5);
  EXPECT_TRUE(ledger.due(5));
  EXPECT_FALSE(ledger.owes(&LedgerStats::stalls));
  LedgerStats later;
  ledger.add_to(later, 1000);
  ledger.settle(later, 1000);
  EXPECT_EQ(later.stalls, 0u);
  EXPECT_EQ(later.other, 0u);
  EXPECT_EQ(s.stalls, 4u);
  EXPECT_EQ(s.other, 8u);
}

}  // namespace
}  // namespace caps
