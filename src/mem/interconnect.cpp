#include "mem/interconnect.hpp"

#include "common/diag.hpp"

namespace caps {

Crossbar::Crossbar(u32 num_dests, u32 latency, u32 queue_capacity,
                   SlotRegion* region)
    : latency_(latency) {
  queues_.reserve(num_dests);
  for (u32 d = 0; d < num_dests; ++d)
    queues_.emplace_back(queue_capacity, region);
}

void Crossbar::push(u32 dest, const MemRequest& req, Cycle now) {
  CAPS_CHECK(dest < queues_.size(), "crossbar push to invalid destination");
  queues_[dest].push_back(InFlight{now + latency_, req});
}

bool Crossbar::idle() const {
  for (const auto& q : queues_)
    if (!q.empty()) return false;
  return true;
}

}  // namespace caps
