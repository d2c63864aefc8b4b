// The books of a component that sleeps through cycles it would only spend
// repeating its stall counts (DESIGN.md §13, "Stall-only sleep"). A sleep
// starts at its first skipped cycle and owes each of a few counters a fixed
// amount per slept cycle; a stats read adds what is owed so far, and the
// next tick settles it. This is the one place such a ledger is kept. Its
// wake cycle is kept in a WakeCalendar row, so that the calendar reads it
// where it is kept.
#pragma once

#include <array>

#include "common/diag.hpp"
#include "common/types.hpp"
#include "common/wake_calendar.hpp"

namespace caps {

template <typename Stats>
class SleepLedger {
 public:
  /// Counters one sleep can owe.
  static constexpr u32 kCapacity = 4;

  /// Keep the wake cycle as `id`'s in row `row` of `calendar`; due at once.
  SleepLedger(WakeCalendar& calendar, WakeCalendar::Row row, u32 id)
      : calendar_(calendar), row_(row), id_(id) {
    calendar_.arm(row_, id_, 0);
  }
  // A copy would arm the other ledger's calendar row.
  SleepLedger(const SleepLedger&) = delete;
  SleepLedger& operator=(const SleepLedger&) = delete;

  /// Whether the wake cycle has come; an awake component is always due.
  bool due(Cycle now) const { return now >= calendar_.at(row_, id_); }
  /// Due at once. What is owed stays owed until settle().
  void wake() { set_wake(0); }
  /// Sleep from cycle `from` until `wake_at` (kNever: until wake()).
  void sleep(Cycle from, Cycle wake_at) {
    from_ = from;
    set_wake(wake_at);
  }
  /// Owe `counter` `per_cycle` for each cycle slept.
  void owe(u64 Stats::*counter, u64 per_cycle = 1) {
    CAPS_CHECK(owed_ < kCapacity, "SleepLedger: too many owed counters");
    entries_[owed_++] = {counter, per_cycle};
  }
  bool owes(u64 Stats::*counter) const {
    for (u32 i = 0; i < owed_; ++i)
      if (entries_[i].counter == counter) return true;
    return false;
  }
  /// The first cycle slept through.
  Cycle from() const { return from_; }

  /// Add to `s` what the cycles slept before `now` owe.
  void add_to(Stats& s, Cycle now) const {
    for (u32 i = 0; i < owed_; ++i)
      s.*entries_[i].counter += entries_[i].per_cycle * (now - from_);
  }
  /// Count the cycles slept before `now` into `s`, then owe nothing and wake.
  void settle(Stats& s, Cycle now) {
    add_to(s, now);
    owed_ = 0;
    set_wake(0);
  }

 private:
  void set_wake(Cycle c) { calendar_.arm(row_, id_, c); }

  struct Owed {
    u64 Stats::*counter;
    u64 per_cycle;
  };
  WakeCalendar& calendar_;  ///< keeps the wake cycle
  WakeCalendar::Row row_;
  u32 id_;
  Cycle from_ = 0;
  u32 owed_ = 0;
  std::array<Owed, kCapacity> entries_{};
};

}  // namespace caps
