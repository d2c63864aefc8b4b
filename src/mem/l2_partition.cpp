#include "mem/l2_partition.hpp"

#include "mem/dram.hpp"

namespace caps {

L2Partition::L2Partition(const GpuConfig& cfg, DramChannel& channel)
    : cfg_(cfg),
      channel_(channel),
      cache_(cfg.l2),
      mshr_(cfg.l2.mshr_entries, cfg.l2.mshr_max_merged),
      probe_queue_(cfg.l2.miss_queue_size) {
  // Replies are bounded by outstanding MSHR fills plus hits in flight;
  // write-backs by MSHR entries. Pre-size both so the steady state never
  // allocates (DESIGN.md §13).
  replies_.reserve(cfg.l2.mshr_entries * cfg.l2.mshr_max_merged);
  pending_writebacks_.reserve(cfg.l2.mshr_entries);
  fill_scratch_.reserve(cfg.l2.mshr_max_merged);
}

void L2Partition::accept(const MemRequest& req, Cycle now) {
  probe_queue_.push(Staged{now + cfg_.l2_latency, req});
  wake_at_ = 0;
}

void L2Partition::cycle(Cycle now) {
  if (sleep_stall_ != nullptr) {
    stats_.*sleep_stall_ += now - slept_from_;
    sleep_stall_ = nullptr;
  }
  wake_at_ = 0;
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
      stall = probe_head(now);
      if (stall == nullptr) return;  // the head retired or issued
    }
  }
  // Every later cycle would repeat this one until a wake event: the head,
  // the tags, the MSHR and the write-backs change only through accept(),
  // dram_done() and the head's own progress, and room in the channel's
  // queue appears only through an issue.
  wake_at_ = wake_at;
  channel_wait_ =
      stall == &L2Stats::stall_dram_full || !pending_writebacks_.empty();
  channel_commands_ = channel_.commands();
  slept_from_ = now + 1;
  sleep_stall_ = stall;
}

u64 L2Stats::*L2Partition::probe_head(Cycle now) {
  const MemRequest& req = probe_queue_.front().req;

  // A probe that stalls changes nothing: a tag miss leaves LRU alone, and
  // the MSHR is only read.
  if (req.is_write) {
    // Write-back, write-allocate. GPU stores are warp-coalesced full-line
    // writes, so allocation needs no fill from DRAM; a dirty eviction may
    // need a write-back slot in the DRAM queue. Worst case the allocation
    // evicts a dirty line, so a miss waits for a queue slot up front to
    // keep the state machine single-step.
    if (LineMeta* meta = cache_.access(req.line)) {  // a hit refreshes LRU
      ++stats_.accesses;
      ++stats_.hits;
      meta->dirty = true;
      probe_queue_.pop();
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
    probe_queue_.pop();
    return nullptr;
  } else if (cache_.access(req.line) != nullptr) {
    ++stats_.accesses;
    ++stats_.hits;
    replies_.push_back(req);
    probe_queue_.pop();
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
    LineMeta meta;
    meta.dirty = true;
    if (auto evicted = cache_.fill(req.line, meta);
        evicted && evicted->second.dirty) {
      MemRequest wb;
      wb.line = evicted->first;
      wb.is_write = true;
      wb.sm_id = req.sm_id;
      wb.created = now;
      channel_.submit(wb);
      ++stats_.writebacks;
    }
  } else {
    mshr_.allocate(req.line, req);
    MemRequest to_dram = req;
    to_dram.created = now;
    channel_.submit(to_dram);
  }
  probe_queue_.pop();
  return nullptr;
}

void L2Partition::dram_done(const MemRequest& req, Cycle now) {
  if (req.is_write) return;
  wake_at_ = 0;
  if (auto evicted = cache_.fill(req.line, LineMeta{});
      evicted && evicted->second.dirty) {
    // Dirty eviction on a fill: queue the write-back; if the DRAM queue is
    // momentarily full the write-back is deferred to the overflow buffer
    // and drained by cycle().
    MemRequest wb;
    wb.line = evicted->first;
    wb.is_write = true;
    wb.sm_id = req.sm_id;
    wb.created = now;
    pending_writebacks_.push_back(wb);
    ++stats_.writebacks;
  }
  mshr_.fill_into(req.line, fill_scratch_);
  for (MemRequest& waiter : fill_scratch_) replies_.push_back(waiter);
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
