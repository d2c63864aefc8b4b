#include "mem/dram.hpp"

#include <algorithm>
#include <bit>

#include "common/diag.hpp"

namespace caps {

namespace {

/// Table III timings, converted from DRAM command cycles to core cycles.
DramTiming core_cycles(const GpuConfig& cfg) {
  const double ratio = cfg.dram_clock_ratio();
  const auto scale = [ratio](u32 dram_cycles) {
    return static_cast<u32>(dram_cycles * ratio + 0.5);
  };
  const DramTiming& d = cfg.dram_timing;
  DramTiming t;
  t.tCL = scale(d.tCL);
  t.tRP = scale(d.tRP);
  t.tRC = scale(d.tRC);
  t.tRCD = scale(d.tRCD);
  t.tRRD = scale(d.tRRD);
  t.tWR = scale(d.tWR);
  t.burst = std::max<u32>(1, scale(d.burst));
  return t;
}

}  // namespace

DramChannel::DramChannel(const GpuConfig& cfg)
    : t_(core_cycles(cfg)),
      row_bytes_(cfg.dram_row_bytes),
      num_banks_(cfg.dram_banks),
      queue_capacity_(cfg.dram_queue_size),
      banks_(cfg.dram_banks) {
  // Pre-size both rings to the structural queue limit so steady-state
  // command scheduling never touches the heap (DESIGN.md §13).
  queue_.reserve(queue_capacity_);
  in_service_.reserve(queue_capacity_);
}

void DramChannel::submit(const MemRequest& req) {
  CAPS_CHECK(can_accept(),
             "DRAM queue overflow: caller must check can_accept()");
  Pending p;
  p.req = req;
  const u64 row_id = req.line / row_bytes_;
  p.bank = static_cast<u32>(row_id & (num_banks_ - 1));
  p.row = row_id >> std::countr_zero(static_cast<u64>(num_banks_));
  queue_.push_back(p);
  next_pick_at_ = std::min(next_pick_at_, start_at(p));
}

Cycle DramChannel::activate_at(const Bank& b) const {
  Cycle t = std::max(b.ready_at, last_activate_any_ + t_.tRRD);
  if (b.open) t = std::max(t, b.last_activate + t_.tRC);
  return t;
}

Cycle DramChannel::start_at(const Pending& p) const {
  const Bank& b = banks_[p.bank];
  return b.open && b.row == p.row ? b.ready_at : activate_at(b);
}

FlatDeque<DramChannel::Pending>::iterator DramChannel::pick(Cycle now) {
  // Readiness is a property of the bank, so each pass first builds a mask
  // of the banks it accepts and then costs one bit test per queue entry.
  // First pass: oldest request that is a row hit on a ready bank.
  u64 mask = 0;
  for (u32 i = 0; i < num_banks_; ++i)
    if (banks_[i].open && banks_[i].ready_at <= now) mask |= u64{1} << i;
  if (mask != 0)
    for (auto it = queue_.begin(); it != queue_.end(); ++it)
      if ((mask >> it->bank & 1) != 0 && banks_[it->bank].row == it->row)
        return it;
  // Second pass: oldest request whose bank can start an activation,
  // honouring tRRD (activate-to-activate across banks) and tRC (same bank).
  // The first such entry is its bank's oldest, so no per-bank bookkeeping
  // is needed.
  mask = 0;
  for (u32 i = 0; i < num_banks_; ++i)
    if (activate_at(banks_[i]) <= now) mask |= u64{1} << i;
  if (mask != 0)
    for (auto it = queue_.begin(); it != queue_.end(); ++it)
      if ((mask >> it->bank & 1) != 0) return it;
  return queue_.end();
}

void DramChannel::issue(Cycle now) {
  // One command per core cycle. RAS/CAS latencies overlap across banks; the
  // shared data bus serializes only the burst transfers themselves.
  auto it = pick(now);
  CAPS_CHECK(it != queue_.end(),
             "DRAM pick found no command at or after next_pick_at_");
  Bank& bank = banks_[it->bank];
  Cycle data_start;
  if (bank.open && bank.row == it->row) {
    ++stats_.row_hits;
    data_start = now + t_.tCL;
  } else {
    ++stats_.row_misses;
    // Precharge (if a row is open) + activate + CAS.
    const u32 open_penalty = bank.open ? t_.tRP : 0;
    data_start = now + open_penalty + t_.tRCD + t_.tCL;
    bank.open = true;
    bank.row = it->row;
    bank.last_activate = now + open_penalty;
    last_activate_any_ = bank.last_activate;
  }
  const Cycle data_end = std::max(data_start, bus_free_at_) + t_.burst;
  bus_free_at_ = data_end;
  // Bank busy until the column access completes (+ write recovery).
  bank.ready_at = data_end + (it->req.is_write ? t_.tWR : 0);

  if (it->req.is_write)
    ++stats_.writes;
  else
    ++stats_.reads;
  // The bus is reserved in pick order, so completions are already in order:
  // pop_done() relies on it.
  CAPS_CHECK(in_service_.empty() || in_service_.back().first <= data_end,
             "DRAM completions out of order");
  in_service_.push_back({data_end, it->req});
  queue_.erase(it);

  // Until the next issue or submit, no command can start before the
  // queue's minimum start_at, and one always can from then on.
  next_pick_at_ = kNever;
  for (const Pending& p : queue_)
    next_pick_at_ = std::min(next_pick_at_, start_at(p));
}

}  // namespace caps
