// Fixture: a fully registered stats struct whose counters stats_user.cpp
// writes, plus one suppressed dead counter -> zero findings. Never compiled.
#pragma once

#include "common/types.hpp"

namespace caps {

struct RegisteredStats {
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

  template <typename F>
  void for_each_counter(F&& f) const {
    for_each_counter_member(
        [&](const char* name, auto m) { f(name, this->*m); });
  }
};

// A struct that is not a *Stats struct may hold unregistered u64 fields.
struct ProfileResult {
  u64 total_loads = 0;
};

}  // namespace caps
