// Fixture: the one sanctioned home of owed counters -> no sleep-ledger
// finding. Never compiled.
#pragma once

#include "common/types.hpp"

namespace caps {

template <typename Stats>
class SleepLedger {
  struct Owed {
    u64 Stats::*counter;
    u64 per_cycle;
  };
  Owed entries_[4];
};

}  // namespace caps
