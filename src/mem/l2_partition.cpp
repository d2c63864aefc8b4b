#include "mem/l2_partition.hpp"

#include "mem/dram.hpp"

namespace caps {

L2Partition::L2Partition(const GpuConfig& cfg, DramChannel& channel,
                         WakeCalendar& calendar, u32 id, SlotRegion& region)
    : cfg_(cfg),
      channel_(channel),
      calendar_(calendar),
      id_(id),
      channel_id_(id % cfg.num_dram_channels),
      cache_(cfg.l2, &region),
      mshr_(cfg.l2.mshr_entries, cfg.l2.mshr_max_merged, &region),
      probe_queue_(cfg.l2_queue_size, &region),
      // Every reply answers a read that holds an L1 MSHR entry.
      replies_(cfg.num_sms * cfg.l1d.mshr_entries, &region),
      // A read goes to DRAM only once the write-backs have drained, so the
      // queued ones come from reads that held MSHR entries together.
      pending_writebacks_(cfg.l2.mshr_entries, &region),
      ledger_(calendar, WakeCalendar::kL2Row, id) {
  fill_scratch_.reserve(cfg.l2.mshr_max_merged);
}

void L2Partition::accept(const MemRequest& req, Cycle now) {
  if (probe_queue_.empty()) ledger_.wake();
  probe_queue_.push_back(Staged{now + cfg_.l2_latency, req});
}

void L2Partition::cycle(Cycle now) {
  ledger_.settle(stats_, now);
  drain_writebacks();

  // One tag probe per cycle, in arrival order (head-of-line blocking when
  // the miss path is saturated, as in hardware). Statistics count each
  // request once, when its probe completes — retried stalls don't inflate.
  Cycle wake_at = kNever;
  u64 L2Stats::*stall = nullptr;
  if (!probe_queue_.empty()) {
    if (probe_queue_.front().ready_at > now) {
      wake_at = probe_queue_.front().ready_at;
    } else {
      stall = probe_head();
      if (stall == nullptr) return;  // the head retired or issued
    }
  }
  // Every later cycle would repeat this one until due() sees what the
  // partition waits for: the head, the tags, the MSHR and the write-backs
  // change only through an accept() into an empty queue, dram_done() and
  // the head's own progress, and a DRAM-bound head or write-back moves once
  // the channel has room.
  ledger_.sleep(now + 1, wake_at);
  if (stall != nullptr) ledger_.owe(stall);
  wait_channel(stall == &L2Stats::stall_dram_full ||
               !pending_writebacks_.empty());
}

u64 L2Stats::*L2Partition::probe_head() {
  const MemRequest& req = probe_queue_.front().req;

  // A probe that stalls changes nothing: a tag miss leaves LRU alone, and
  // the MSHR is only read.
  if (req.is_write) {
    // Write-back, write-allocate. GPU stores are warp-coalesced full-line
    // writes, so allocation needs no fill from DRAM; a dirty eviction may
    // need a write-back slot in the DRAM queue. Worst case the allocation
    // evicts a dirty line, so a miss waits for a queue slot up front to
    // keep the state machine single-step.
    if (L2LineMeta* meta = cache_.access(req.line)) {  // a hit refreshes LRU
      ++stats_.accesses;
      ++stats_.hits;
      meta->dirty = true;
      probe_queue_.pop_front();
      return nullptr;
    }
  } else if (const u32 slot = mshr_.slot_of(req.line);
             slot != Mshr<MemRequest>::kNone) {
    // Secondary miss: merge if capacity allows.
    if (!mshr_.can_merge_at(slot)) {
      ++stats_.stall_mshr_full;
      return &L2Stats::stall_mshr_full;
    }
    ++stats_.accesses;
    ++stats_.misses;
    ++stats_.mshr_merges;
    mshr_.merge_at(slot, req);
    probe_queue_.pop_front();
    return nullptr;
  } else if (cache_.access(req.line) != nullptr) {
    ++stats_.accesses;
    ++stats_.hits;
    push_reply(req);
    probe_queue_.pop_front();
    return nullptr;
  } else if (mshr_.full()) {
    // A primary miss needs an MSHR entry and DRAM queue space.
    ++stats_.stall_mshr_full;
    return &L2Stats::stall_mshr_full;
  }

  if (!channel_.can_accept()) {
    ++stats_.stall_dram_full;
    return &L2Stats::stall_dram_full;
  }
  ++stats_.accesses;
  ++stats_.misses;
  if (req.is_write) {
    if (auto evicted = cache_.fill(req.line, L2LineMeta{.dirty = true});
        evicted && evicted->second.dirty) {
      MemRequest wb;
      wb.line = evicted->first;
      wb.is_write = true;
      wb.sm_id = req.sm_id;
      channel_.submit(wb);
    }
  } else {
    mshr_.allocate(req.line, req);
    channel_.submit(req);
  }
  probe_queue_.pop_front();
  return nullptr;
}

void L2Partition::dram_done(const MemRequest& req) {
  if (req.is_write) return;
  // A fill changes the tags and frees an MSHR entry: tick in the next
  // partition phase, which probes the head again.
  ledger_.wake();
  if (auto evicted = cache_.fill(req.line, L2LineMeta{});
      evicted && evicted->second.dirty) {
    // Dirty eviction on a fill: queue the write-back, which cycle() drains
    // into the DRAM queue once it has room.
    MemRequest wb;
    wb.line = evicted->first;
    wb.is_write = true;
    wb.sm_id = req.sm_id;
    pending_writebacks_.push_back(wb);
  }
  mshr_.fill_into(req.line, fill_scratch_);
  for (MemRequest& waiter : fill_scratch_) push_reply(waiter);
}

void L2Partition::drain_writebacks() {
  while (!pending_writebacks_.empty() && channel_.can_accept()) {
    channel_.submit(pending_writebacks_.front());
    pending_writebacks_.pop_front();
  }
}

bool L2Partition::idle() const {
  return probe_queue_.empty() && replies_.empty() && mshr_.size() == 0 &&
         pending_writebacks_.empty();
}

}  // namespace caps
