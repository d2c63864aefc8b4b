// Fixture: stall counters owed through data members of their own ->
// sleep-ledger findings on lines 10, 11 and 16. Never compiled.
#pragma once

#include "common/types.hpp"

namespace caps {

class Sleeper {
  u64 SmStats::*demand_stall_ = nullptr;
  u64 L2Stats::* const fixed_{&L2Stats::stall_dram_full};
  Cycle slept_from_ = 0;

  struct Owed {
    u64 per_cycle;
    u64 SmStats::*counter;
  };
  Owed owed_[2];
};

}  // namespace caps
