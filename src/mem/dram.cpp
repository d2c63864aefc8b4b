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
      queue_(cfg.dram_queue_size),
      banks_(cfg.dram_banks),
      // A bank issues only once its previous burst has ended, and pop_done
      // runs before cycle: one transfer per bank is in service.
      in_service_(cfg.dram_banks) {
  CAPS_CHECK(cfg.dram_queue_size > 0 && cfg.dram_queue_size <= 64,
             "DRAM queue must have 1 to 64 slots");
  all_slots_ = ~u64{0} >> (64 - cfg.dram_queue_size);
}

void DramChannel::submit(const MemRequest& req) {
  CAPS_CHECK(can_accept(),
             "DRAM queue overflow: caller must check can_accept()");
  const u64 row_id = req.line / row_bytes_;
  const auto bank = static_cast<u32>(row_id & (num_banks_ - 1));
  const u64 row = row_id >> std::countr_zero(static_cast<u64>(num_banks_));
  const auto slot = static_cast<u32>(std::countr_zero(~used_));
  queue_.emplace(slot, Pending{req, bank, row, next_age_++});
  const u64 b = u64{1} << slot;
  used_ |= b;
  Bank& k = banks_[bank];
  k.slots |= b;
  busy_banks_ |= u64{1} << bank;
  if (k.open && k.row == row) hits_ |= b;
  next_pick_at_ = std::min(next_pick_at_, start_at(k));
}

Cycle DramChannel::activate_at(const Bank& b) const {
  Cycle t = std::max(b.ready_at, last_activate_any_ + t_.tRRD);
  if (b.open) t = std::max(t, b.last_activate + t_.tRC);
  return t;
}

u32 DramChannel::pick(Cycle now) const {
  // First: the row hits of ready open banks. Second: every request of a
  // bank that can start an activation, honouring tRRD (activate-to-activate
  // across banks) and tRC (same bank). With no hit on a ready bank, none of
  // the second set is a hit either.
  u64 ready = 0;
  u64 activatable = 0;
  for (u64 busy = busy_banks_; busy != 0; busy &= busy - 1) {
    const Bank& b = banks_[static_cast<u32>(std::countr_zero(busy))];
    if (b.open && b.ready_at <= now) ready |= b.slots;
    if (activate_at(b) <= now) activatable |= b.slots;
  }
  u64 slots = ready & hits_;
  if (slots == 0) slots = activatable;
  CAPS_CHECK(slots != 0,
             "DRAM pick found no command at or after next_pick_at_");
  // The oldest of them.
  auto oldest = static_cast<u32>(std::countr_zero(slots));
  for (slots &= slots - 1; slots != 0; slots &= slots - 1) {
    const auto s = static_cast<u32>(std::countr_zero(slots));
    if (queue_[s].age < queue_[oldest].age) oldest = s;
  }
  return oldest;
}

void DramChannel::issue(Cycle now) {
  // One command per core cycle. RAS/CAS latencies overlap across banks; the
  // shared data bus serializes only the burst transfers themselves.
  const u32 slot = pick(now);
  const Pending& p = queue_[slot];
  const u64 b = u64{1} << slot;
  Bank& bank = banks_[p.bank];
  used_ &= ~b;
  bank.slots &= ~b;
  if (bank.slots == 0) busy_banks_ &= ~(u64{1} << p.bank);
  Cycle data_start;
  if ((hits_ & b) != 0) {
    hits_ &= ~b;
    ++stats_.row_hits;
    data_start = now + t_.tCL;
  } else {
    ++stats_.row_misses;
    // Precharge (if a row is open) + activate + CAS.
    const u32 open_penalty = bank.open ? t_.tRP : 0;
    data_start = now + open_penalty + t_.tRCD + t_.tCL;
    bank.open = true;
    bank.row = p.row;
    bank.last_activate = now + open_penalty;
    last_activate_any_ = bank.last_activate;
    // The bank's queued requests for the new row become row hits.
    hits_ &= ~bank.slots;
    for (u64 s = bank.slots; s != 0; s &= s - 1) {
      const auto i = static_cast<u32>(std::countr_zero(s));
      if (queue_[i].row == p.row) hits_ |= u64{1} << i;
    }
  }
  const Cycle data_end = std::max(data_start, bus_free_at_) + t_.burst;
  bus_free_at_ = data_end;
  // Bank busy until the column access completes (+ write recovery).
  bank.ready_at = data_end + (p.req.is_write ? t_.tWR : 0);

  if (p.req.is_write)
    ++stats_.writes;
  else
    ++stats_.reads;
  // The bus is reserved in pick order, so completions are already in order:
  // pop_done() relies on it.
  CAPS_CHECK(in_service_.empty() || in_service_.back().first <= data_end,
             "DRAM completions out of order");
  in_service_.push_back({data_end, p.req});

  // Until the next issue or submit, no command can start before the
  // queue's minimum start cycle, and one always can from then on.
  next_pick_at_ = kNever;
  for (u64 busy = busy_banks_; busy != 0; busy &= busy - 1) {
    const Bank& k = banks_[static_cast<u32>(std::countr_zero(busy))];
    next_pick_at_ = std::min(next_pick_at_, start_at(k));
  }
}

}  // namespace caps
