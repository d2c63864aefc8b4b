// Request/reply message types of the memory hierarchy.
#pragma once

#include "common/types.hpp"

namespace caps {

/// A line-granularity request traveling SM -> crossbar -> L2 -> DRAM and
/// back. Small value type; queues copy it freely.
struct MemRequest {
  Addr line = 0;       ///< line-aligned byte address
  bool is_write = false;
  bool is_prefetch = false;  ///< for stats/energy only below L1
  u32 sm_id = 0;
};

/// L1-side access descriptor: one coalesced line request from a warp, or a
/// prefetch produced by the prefetch engine. This never leaves the SM; on an
/// L1 miss it is parked in the L1 MSHR while a MemRequest goes downstream.
struct L1Access {
  Addr line = 0;
  Addr pc = 0;            ///< load/store PC (prefetch: the targeted load PC)
  bool is_load = true;
  bool is_prefetch = false;
  i32 warp_slot = kNoWarp;  ///< demand: issuing warp; prefetch: bound warp
  Cycle issue_cycle = 0;    ///< when the access was created
};

}  // namespace caps
