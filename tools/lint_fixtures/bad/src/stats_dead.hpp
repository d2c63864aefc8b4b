// Fixture: dead-counter violations. Never compiled.
#pragma once

#include "common/types.hpp"

namespace caps {

// Registered counters that nothing outside the struct names.
struct DeadStats : CounterGroup<DeadStats> {
  u64 written = 0;
  u64 never_written = 0;    // no use anywhere -> one finding
  u64 only_in_comment = 0;  // named only in a comment and a string -> one

  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("written", &DeadStats::written);
    f("never_written", &DeadStats::never_written);
    f("only_in_comment", &DeadStats::only_in_comment);
  }
};

}  // namespace caps
