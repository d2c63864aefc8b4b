// Fixture: counter-registry violations. Never compiled.
#pragma once

#include "common/types.hpp"

namespace caps {

// No registry at all -> one finding on the struct.
struct OrphanStats {
  u64 events = 0;
};

// Registry present but missing a field -> one finding on the field.
struct PartialStats : CounterGroup<PartialStats> {
  u64 listed = 0;
  u64 forgotten = 0;
  Cycle forgotten_cycles = 0;

  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("listed", &PartialStats::listed);
  }
};

}  // namespace caps
