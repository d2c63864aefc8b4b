// Fixture: a pointer to a *Stats counter as a return type, a parameter, a
// local and a suppressed member -> no sleep-ledger finding. Never compiled.
#pragma once

#include "common/types.hpp"

namespace caps {

class Probe {
 public:
  u64 SmStats::*probe_head(Cycle now);
  void sleep(u64 SmStats::*demand, u64 SmStats::*prefetch);
  void tick(Cycle now) {
    u64 SmStats::*stall = probe_head(now);
    if (stall != nullptr) sleep(stall, nullptr);
  }

 private:
  u64 SmStats::*kept_ = nullptr;  // capsim-lint: allow(sleep-ledger)
};

inline u64 SmStats::*Probe::probe_head(Cycle) { return nullptr; }

}  // namespace caps
