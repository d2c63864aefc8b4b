// Fixture: a fully registered stats struct whose counters stats_user.cpp
// writes, plus one suppressed dead counter -> zero findings. Never compiled.
#pragma once

#include "common/stats.hpp"
#include "common/types.hpp"

namespace caps {

struct RegisteredStats : CounterGroup<RegisteredStats> {
  u64 hits = 0;
  u64 misses = 0;
  Cycle busy_cycles = 0;
  /// Kept for a reader outside src/.
  u64 reserved = 0;  // capsim-lint: allow(dead-counter)

  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("hits", &RegisteredStats::hits);
    f("misses", &RegisteredStats::misses);
    f("busy_cycles", &RegisteredStats::busy_cycles);
    f("reserved", &RegisteredStats::reserved);
  }
};

// The base clause may start on the next line; a member whose name only
// begins like a base function is the group's own.
struct WrappedStats
    : CounterGroup<WrappedStats> {
  u64 events = 0;

  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("events", &WrappedStats::events);
  }

  void merge_into(WrappedStats& total) const { total.events += events; }
};

// A struct that is not a *Stats struct may hold unregistered u64 fields and
// define its own merge().
struct ProfileResult {
  u64 total_loads = 0;

  void merge(const ProfileResult& o) { total_loads += o.total_loads; }
};

}  // namespace caps
