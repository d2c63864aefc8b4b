// The machine's wake calendar (DESIGN.md §13, "Wake calendar"): which SMs,
// L2 partitions and reply heads one cycle visits (every DRAM channel is
// visited in every cycle). An id is due when an event marked it since its
// kind's last visit pass, or when one of its timed wakes has come. The
// calendar may hold an id that has nothing to do, since each visited
// component still asks its own due(), but it never misses one that has.
// Each row files its future wakes on a timing wheel of per-cycle id masks,
// so a pass in the next cycle reads one mask per row. It also keeps the one
// room-wait list of the machine: who waits for room on which queue.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "common/diag.hpp"
#include "common/types.hpp"

namespace caps {

class WakeCalendar {
 public:
  /// Component kinds, in the order of their phases within one cycle.
  enum Kind : u32 { kSm, kPartition, kReplyHead, kKinds };
  /// Timed wakes, one row per source: a cycle per id of the row's kind.
  enum Row : u32 {
    kLdStRow,     ///< kSm: the LD/ST unit's SleepLedger wake
    kIssueRow,    ///< kSm: the issue stage's SleepLedger wake
    kReplyRow,    ///< kSm: arrival of the head of the SM's reply lane
    kL2Row,       ///< kPartition: the partition's SleepLedger wake
    kPullRow,     ///< kPartition: arrival of its request-lane head, while
                  ///< it has room for it
    kRows
  };
  /// Queues a sleeper waits on for room, per queue id; the comment names
  /// the kind of its waiters.
  enum Queue : u32 {
    kRequestLane,  ///< per partition: kSm, a blocked LD/ST head
    kDramQueue,    ///< per channel: kPartition, a probe head or write-back
    kQueues
  };
  /// Ids per kind: one mask bit each (GpuConfig::validate caps the counts).
  static constexpr u32 kMaxIds = 64;

  /// Cycles ahead of a kind's last pass that the wheel holds one mask
  /// each for; a later wake waits in the row's far set.
  static constexpr u32 kWheel = 128;

  static constexpr u64 bit(u32 id) { return u64{1} << id; }

  WakeCalendar(u32 sms, u32 partitions) {
    CAPS_CHECK(sms <= kMaxIds && partitions <= kMaxIds,
               "wake calendar: more than 64 ids");
    for (auto& row : rows_) row.fill(kNever);
  }

  /// The timed wake of `id` in row `r`; a SleepLedger reads its own here.
  const Cycle& at(Row r, u32 id) const { return rows_[r][id]; }

  /// Set the timed wake of `id` in row `r` to cycle `c`. The id is due at
  /// every pass from `c` until the next arm; 0 makes it due at once.
  void arm(Row r, u32 id, Cycle c) {
    Wheel& w = wheels_[r];
    Cycle& wake = rows_[r][id];
    const u64 b = bit(id);
    w.come &= ~b;
    w.far &= ~b;
    if (wake != kNever) w.buckets[wake % kWheel] &= ~b;
    wake = c;
    file(w, id, c, taken_[kKindOf[r]]);
  }

  /// Mark `ids` of kind `k` due at their kind's next visit pass.
  void mark(Kind k, u64 ids) { marks_[k] |= ids; }

  /// List `waiter` as waiting for room on queue `id` of `q`, or withdraw it.
  /// A listed waiter stays listed across rooms until it withdraws, at its
  /// next tick: one whose room another sender took first keeps waiting.
  void wait_room(Queue q, u32 id, u32 waiter, bool waits) {
    u64& list = waiters_[q][id];
    list = waits ? list | bit(waiter) : list & ~bit(waiter);
  }
  /// Queue `id` of `q` gained room: mark its waiters due.
  void room(Queue q, u32 id) { mark(kWaiterKind[q], waiters_[q][id]); }
  /// The waiters listed on queue `id` of `q`, one bit each.
  u64 waiters(Queue q, u32 id) const { return waiters_[q][id]; }

  /// The ids of kind `k` to visit at `now`, one bit each, visited in
  /// ascending order. Clears the marks: a mark made during or after this
  /// pass is for the next one. `now` never goes back for a kind.
  u64 take(Kind k, Cycle now) {
    u64 ids = std::exchange(marks_[k], 0);
    const Cycle from = std::exchange(taken_[k], now);
    CAPS_CHECK(now >= from, "wake calendar: a pass went back in time");
    for (u32 r = kFirstRow[k]; r < kFirstRow[k + 1]; ++r) {
      Wheel& w = wheels_[r];
      // The masks of the cycles since the last pass: every mask after a
      // gap of a whole turn or more.
      for (Cycle t = from + 1; t <= std::min(now, from + kWheel); ++t)
        w.come |= std::exchange(w.buckets[t % kWheel], 0);
      if (w.far_next <= now + kWheel) {
        // Refile the far ids: those within a turn of `now` leave the set.
        w.far_next = kNever;
        for (u64 far = std::exchange(w.far, 0); far != 0; far &= far - 1) {
          const auto id = static_cast<u32>(std::countr_zero(far));
          file(w, id, rows_[r][id], now);
        }
      }
      ids |= w.come;
    }
    return ids;
  }

 private:
  static constexpr std::array<u32, kKinds + 1> kFirstRow = {
      kLdStRow, kL2Row, kRows, kRows};
  static constexpr std::array<Kind, kRows> kKindOf = {
      kSm, kSm, kSm, kPartition, kPartition};
  static constexpr std::array<Kind, kQueues> kWaiterKind = {kSm, kPartition};

  /// Per row, the ids by where their wake lies from the kind's last pass:
  /// come (at or before it, until re-armed), on the wheel (within kWheel
  /// cycles after it, one mask per cycle modulo kWheel), or far (later; at
  /// kNever, nowhere). Each id is in at most one of them.
  struct Wheel {
    u64 come = 0;
    u64 far = 0;
    Cycle far_next = kNever;  ///< the earliest far wake, or earlier
    std::array<u64, kWheel> buckets{};
  };

  /// File `id`'s wake `c` in `w` by where it lies from `taken`, its kind's
  /// last pass.
  static void file(Wheel& w, u32 id, Cycle c, Cycle taken) {
    if (c <= taken) {
      w.come |= bit(id);
    } else if (c - taken <= kWheel) {
      w.buckets[c % kWheel] |= bit(id);
    } else if (c != kNever) {
      w.far |= bit(id);
      w.far_next = std::min(w.far_next, c);
    }
  }

  std::array<u64, kKinds> marks_{};
  std::array<Cycle, kKinds> taken_{};  ///< the `now` of each kind's last pass
  std::array<Wheel, kRows> wheels_{};
  std::array<std::array<Cycle, kMaxIds>, kRows> rows_;
  std::array<std::array<u64, kMaxIds>, kQueues> waiters_{};
};

}  // namespace caps
