#include "mem/interconnect.hpp"

#include "common/diag.hpp"

namespace caps {

Crossbar::Crossbar(u32 num_dests, u32 latency, u32 queue_capacity)
    : latency_(latency),
      queue_capacity_(queue_capacity),
      queues_(num_dests) {
  // Pre-size every lane to the structural limit so steady-state message
  // traffic never touches the heap (DESIGN.md §13).
  for (auto& q : queues_) q.reserve(queue_capacity_);
}

void Crossbar::push(u32 dest, const MemRequest& req, Cycle now) {
  CAPS_CHECK(dest < queues_.size(), "crossbar push to invalid destination");
  CAPS_CHECK(can_accept(dest),
             "crossbar queue overflow: caller must check can_accept()");
  queues_[dest].push_back(InFlight{now + latency_, req});
}

bool Crossbar::idle() const {
  for (const auto& q : queues_)
    if (!q.empty()) return false;
  return true;
}

}  // namespace caps
