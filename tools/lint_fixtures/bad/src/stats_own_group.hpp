// Fixture: *Stats structs that define what the CounterGroup base derives.
// Never compiled.
#pragma once

#include "common/stats.hpp"
#include "common/types.hpp"

namespace caps {

// A hand-written merge beside the base -> one finding on the merge.
struct HandMergeStats : CounterGroup<HandMergeStats> {
  u64 hits = 0;

  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("hits", &HandMergeStats::hits);
  }

  void merge(const HandMergeStats& o) { hits += o.hits; }
};

// No base and a hand-written visit -> one finding on each.
struct BaselessStats {
  u64 misses = 0;

  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("misses", &BaselessStats::misses);
  }

  template <typename F>
  void for_each_counter(F&& f) const {
    for_each_counter_member(
        [&](const char* name, auto m) { f(name, this->*m); });
  }
};

// The base of another group -> one finding on the struct.
struct BorrowedStats : CounterGroup<HandMergeStats> {
  u64 fills = 0;

  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("fills", &BorrowedStats::fills);
  }
};

inline void record(HandMergeStats& h, BaselessStats& b, BorrowedStats& c) {
  ++h.hits;
  ++b.misses;
  ++c.fills;
}

}  // namespace caps
