// The machine's wake calendar (DESIGN.md §13, "Wake calendar"): which SMs,
// L2 partitions and reply heads one cycle visits (every DRAM channel is
// visited in every cycle). An id is due when an event marked it since its
// kind's last visit pass, or when one of its timed wakes has come. The
// calendar may hold an id that has nothing to do, since each visited
// component still asks its own due(), but it never misses one that has. It
// also keeps the one room-wait list of the machine: who waits for room on
// which queue.
#pragma once

#include <algorithm>
#include <array>
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

  static constexpr u64 bit(u32 id) { return u64{1} << id; }

  WakeCalendar(u32 sms, u32 partitions)
      : ids_{sms, sms, sms, partitions, partitions} {
    for (const u32 n : ids_)
      CAPS_CHECK(n <= kMaxIds, "wake calendar: more than 64 ids");
    next_.fill(kNever);
    for (auto& row : rows_) row.fill(kNever);
  }

  /// The timed wake of `id` in row `r`; a SleepLedger reads its own here.
  const Cycle& at(Row r, u32 id) const { return rows_[r][id]; }

  /// Set the timed wake of `id` in row `r` to cycle `c`. The id is due at
  /// every pass from `c` until the next arm; 0 makes it due at once.
  void arm(Row r, u32 id, Cycle c) {
    rows_[r][id] = c;
    if (c == 0) {
      come_[r] |= bit(id);
      return;
    }
    come_[r] &= ~bit(id);
    next_[r] = std::min(next_[r], c);
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
  /// pass is for the next one.
  u64 take(Kind k, Cycle now) {
    u64 ids = std::exchange(marks_[k], 0);
    for (u32 r = kFirstRow[k]; r < kFirstRow[k + 1]; ++r) {
      if (now >= next_[r]) refresh(r, now);
      ids |= come_[r];
    }
    return ids;
  }

 private:
  static constexpr std::array<u32, kKinds + 1> kFirstRow = {
      kLdStRow, kL2Row, kRows, kRows};
  static constexpr std::array<Kind, kQueues> kWaiterKind = {kSm, kPartition};

  /// Move the ids of row `r` whose wake has come by `now` into come_[r],
  /// and find the next wake among the others.
  void refresh(u32 r, Cycle now) {
    Cycle next = kNever;
    for (u32 i = 0; i < ids_[r]; ++i) {
      const Cycle c = rows_[r][i];
      if (c <= now)
        come_[r] |= bit(i);
      else
        next = std::min(next, c);
    }
    next_[r] = next;
  }

  std::array<u32, kRows> ids_;    ///< ids in each row
  std::array<u64, kKinds> marks_{};
  /// Per row: the ids whose wake has come (until re-armed), and the
  /// earliest wake of the others, or earlier.
  std::array<u64, kRows> come_{};
  std::array<Cycle, kRows> next_;
  std::array<std::array<Cycle, kMaxIds>, kRows> rows_;
  std::array<std::array<u64, kMaxIds>, kQueues> waiters_{};
};

}  // namespace caps
