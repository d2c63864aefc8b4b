// Tests for the simulation integrity primitives: CAPS_CHECK semantics,
// SimError payloads, MachineSnapshot rendering, and the release-mode
// (NDEBUG-live) guards on BoundedQueue / SleepLedger / Mshr / Crossbar /
// DramChannel.
#include <gtest/gtest.h>

#include "common/bounded_queue.hpp"
#include "common/diag.hpp"
#include "common/sleep_ledger.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/mshr.hpp"

namespace caps {
namespace {

TEST(CapsCheckTest, PassingConditionIsSilent) {
  EXPECT_NO_THROW(CAPS_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(CAPS_CHECK(true, "never shown"));
}

TEST(CapsCheckTest, FailureThrowsSimErrorWithContext) {
  try {
    CAPS_CHECK(2 + 2 == 5, "arithmetic is broken");
    FAIL() << "CAPS_CHECK did not throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kCheckFailed);
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("arithmetic is broken"), std::string::npos) << what;
    EXPECT_NE(what.find("diag_test.cpp"), std::string::npos) << what;
  }
}

TEST(CapsCheckTest, LiveUnderNdebug) {
  // The whole point of CAPS_CHECK: unlike assert(), the guard must fire in
  // every build mode. This test is part of the Release/NDEBUG CI preset.
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  (void)ndebug;  // documented either way: the throw below must happen
  EXPECT_THROW(CAPS_CHECK(false), SimError);
}

TEST(SimErrorTest, CarriesCycleSmAndSnapshot) {
  MachineSnapshot snap;
  snap.section("sm 3").lines.push_back("warp 7 stuck");
  const SimError e(SimErrorKind::kDeadlock, "no progress", 12345, 3, snap);
  EXPECT_EQ(e.kind(), SimErrorKind::kDeadlock);
  EXPECT_EQ(e.cycle(), 12345u);
  EXPECT_EQ(e.sm_id(), 3);
  ASSERT_NE(e.snapshot().find("sm 3"), nullptr);
  EXPECT_EQ(e.snapshot().cycle, 12345u);
  const std::string what = e.what();
  EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
  EXPECT_NE(what.find("12345"), std::string::npos) << what;
}

TEST(SimErrorKindTest, Names) {
  EXPECT_STREQ(to_string(SimErrorKind::kCheckFailed), "check_failed");
  EXPECT_STREQ(to_string(SimErrorKind::kDeadlock), "deadlock");
  EXPECT_STREQ(to_string(SimErrorKind::kInvariantViolation),
               "invariant_violation");
  EXPECT_STREQ(to_string(SimErrorKind::kConfigError), "config_error");
}

TEST(MachineSnapshotTest, RendersSectionsInOrder) {
  MachineSnapshot snap;
  snap.cycle = 99;
  snap.sm_id = 1;
  snap.section("gpu").lines.push_back("ctas 4/8");
  snap.section("memory system").lines.push_back("req_xbar queued: 3/16");
  const std::string s = snap.to_string();
  EXPECT_NE(s.find("cycle 99"), std::string::npos) << s;
  EXPECT_NE(s.find("(sm 1)"), std::string::npos) << s;
  EXPECT_LT(s.find("[gpu]"), s.find("[memory system]")) << s;
  EXPECT_NE(s.find("  ctas 4/8"), std::string::npos) << s;
  EXPECT_EQ(snap.find("nonexistent"), nullptr);
}

// --- release-mode structural guards (the former assert()-only paths) ------

TEST(BoundedQueueGuardTest, OverflowThrowsInAllBuildModes) {
  BoundedQueue<int> q(1);
  q.push_back(1);
  EXPECT_THROW(q.push_back(2), SimError);
  EXPECT_THROW(q.push_front(2), SimError);
  // The failed pushes must not have corrupted the queue.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front(), 1);
}

TEST(BoundedQueueGuardTest, UnderflowThrowsInAllBuildModes) {
  BoundedQueue<int> q(2);
  EXPECT_THROW(q.pop_front(), SimError);
  EXPECT_THROW(q.pop_back(), SimError);
  EXPECT_THROW(q.front(), SimError);
  EXPECT_THROW(q.back(), SimError);
  EXPECT_THROW(q.erase(0), SimError);
  const BoundedQueue<int>& cq = q;
  EXPECT_THROW(cq.front(), SimError);
  EXPECT_THROW(cq.back(), SimError);
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
  EXPECT_EQ(q.size(), 1u);
}

TEST(SleepLedgerGuardTest, OwingPastCapacityThrowsInAllBuildModes) {
  struct TwoStats {
    u64 a = 0;
    u64 b = 0;
  };
  WakeCalendar cal(1, 1);
  SleepLedger<TwoStats> ledger(cal, WakeCalendar::kLdStRow, 0);
  ledger.sleep(0, kNever);
  for (u32 i = 0; i < SleepLedger<TwoStats>::kCapacity; ++i)
    ledger.owe(&TwoStats::a);
  EXPECT_THROW(ledger.owe(&TwoStats::b), SimError);
  // The failed owe must not have corrupted the ledger.
  TwoStats s;
  ledger.add_to(s, 10);
  EXPECT_EQ(s.a, 10u * SleepLedger<TwoStats>::kCapacity);
  EXPECT_EQ(s.b, 0u);
}

TEST(MshrGuardTest, AllocateWhenFullThrows) {
  Mshr<int> m(1, 1);
  m.allocate(0x100, 1);
  EXPECT_THROW(m.allocate(0x200, 2), SimError);
  EXPECT_EQ(m.size(), 1u);
}

TEST(MshrGuardTest, DoubleAllocateThrows) {
  Mshr<int> m(4, 2);
  m.allocate(0x100, 1);
  EXPECT_THROW(m.allocate(0x100, 2), SimError);
}

TEST(MshrGuardTest, AllocateOfTheFreeMarkerThrows) {
  Mshr<int> m(4, 2);
  EXPECT_THROW(m.allocate(Mshr<int>::kFree, 1), SimError);
  EXPECT_EQ(m.size(), 0u);
}

TEST(MshrGuardTest, MergePastCapacityThrows) {
  Mshr<int> m(4, 2);
  m.allocate(0x100, 1);
  const u32 slot = m.slot_of(0x100);
  m.merge_at(slot, 2);
  EXPECT_FALSE(m.can_merge_at(slot));
  EXPECT_THROW(m.merge_at(slot, 3), SimError);
}

TEST(MshrGuardTest, MergeIntoAFreeSlotThrows) {
  Mshr<int> m(4, 2);
  EXPECT_THROW(m.merge_at(0, 1), SimError);  // never allocated
  m.allocate(0x100, 1);
  const u32 slot = m.slot_of(0x100);
  std::vector<int> waiters;
  m.fill_into(0x100, waiters);
  EXPECT_THROW(m.merge_at(slot, 2), SimError);  // freed by the fill
  EXPECT_THROW(m.merge_at(Mshr<int>::kNone, 3), SimError);  // absent line
}

TEST(MshrGuardTest, FillOfAbsentLineThrows) {
  Mshr<int> m(4, 2);
  std::vector<int> waiters;
  EXPECT_THROW(m.fill_into(0x100, waiters), SimError);
}

TEST(MshrTest, OutstandingLinesAreSorted) {
  Mshr<int> m(4, 2);
  m.allocate(0x300, 1);
  m.allocate(0x100, 2);
  m.allocate(0x200, 3);
  const std::vector<Addr> lines = m.outstanding_lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], 0x100u);
  EXPECT_EQ(lines[1], 0x200u);
  EXPECT_EQ(lines[2], 0x300u);
}

TEST(MshrTest, ReusedSlotKeepsMergeOrder) {
  Mshr<int> m(2, 3);
  m.allocate(0x100, 1);
  const u32 slot = m.slot_of(0x100);
  m.merge_at(slot, 2);
  m.merge_at(slot, 3);
  m.allocate(0x200, 4);
  std::vector<int> waiters;
  m.fill_into(0x100, waiters);
  EXPECT_EQ(waiters, (std::vector<int>{1, 2, 3}));
  // The freed slot is reused first; its old waiters must not show up, and
  // the new ones come back in merge order.
  m.allocate(0x300, 5);
  ASSERT_EQ(m.slot_of(0x300), slot);
  m.merge_at(slot, 6);
  m.fill_into(0x300, waiters);
  EXPECT_EQ(waiters, (std::vector<int>{5, 6}));
  m.fill_into(0x200, waiters);
  EXPECT_EQ(waiters, (std::vector<int>{4}));
  EXPECT_EQ(m.size(), 0u);
}

TEST(CacheGuardTest, FillOfTheInvalidMarkerThrows) {
  using Cache = SetAssocCache<L2LineMeta>;
  Cache c{CacheConfig{}};
  EXPECT_THROW(c.fill(Cache::kFree, L2LineMeta{}), SimError);
}

TEST(CrossbarGuardTest, OverflowAndBadDestThrow) {
  Crossbar x(2, 1, 1);
  MemRequest r;
  r.line = 0x80;
  x.push(0, r, 0);
  EXPECT_THROW(x.push(0, r, 0), SimError);  // queue full
  EXPECT_THROW(x.push(5, r, 0), SimError);  // invalid destination
  MemRequest out;
  EXPECT_THROW(x.pop(5, 0, out), SimError);
}

TEST(DramGuardTest, SubmitWhenFullThrows) {
  GpuConfig cfg;
  cfg.dram_queue_size = 1;
  DramChannel ch(cfg);
  MemRequest r;
  r.line = 0x1000;
  ch.submit(r);
  EXPECT_FALSE(ch.can_accept());
  EXPECT_THROW(ch.submit(r), SimError);
}

}  // namespace
}  // namespace caps
