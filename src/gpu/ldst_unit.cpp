#include "gpu/ldst_unit.hpp"

#include <algorithm>
#include <sstream>

#include "gpu/sm.hpp"
#include "mem/memory_system.hpp"

namespace caps {

LdStUnit::LdStUnit(const GpuConfig& cfg, StreamingMultiprocessor& sm,
                   u32 sm_id, MemorySystem& mem, SmStats& stats,
                   const TraceSink* trace)
    : cfg_(cfg),
      sm_(sm),
      sm_id_(sm_id),
      mem_(mem),
      stats_(stats),
      l1_(cfg.l1d, &mem.slot_region()),
      mshr_(cfg.l1d.mshr_entries, cfg.l1d.mshr_max_merged,
            &mem.slot_region()),
      demand_q_(cfg.ldst_queue_size, &mem.slot_region()),
      prefetch_q_(cfg.ldst_queue_size * 2, &mem.slot_region()),
      // One hit per cycle, each retiring l1_hit_latency cycles later.
      completions_(std::max(1u, cfg.l1_hit_latency), &mem.slot_region()),
      trace_(trace),
      ledger_(mem.calendar(), WakeCalendar::kLdStRow, sm_id) {
  // Scratch for MSHR fills: sized once so process_replies never allocates
  // in the steady state (DESIGN.md §13).
  fill_scratch_.reserve(cfg.l1d.mshr_max_merged);
}

void LdStUnit::push_demand(const L1Access& access) {
  CAPS_CHECK(can_accept(1), "LD/ST demand queue overflow");
  if (demand_q_.empty()) ledger_.wake();
  demand_q_.push_back(access);
}

void LdStUnit::push_prefetches(const std::vector<PrefetchRequest>& reqs,
                               Cycle now) {
  if (prefetch_q_.empty()) ledger_.wake();
  for (const PrefetchRequest& r : reqs) {
    ++stats_.pf_generated;
    if (prefetch_q_.full()) {
      ++stats_.pf_dropped_queue_full;
      continue;
    }
    // Deduplicate against queued prefetches for the same line.
    bool dup = false;
    for (std::size_t i = 0; i < prefetch_q_.size() && !dup; ++i)
      dup = prefetch_q_[i].line == r.line;
    if (dup) {
      ++stats_.pf_dropped_inflight;
      continue;
    }
    L1Access a;
    a.line = r.line;
    a.pc = r.pc;
    a.is_load = true;
    a.is_prefetch = true;
    a.warp_slot = r.target_warp_slot;
    a.issue_cycle = now;
    prefetch_q_.push_back(a);
  }
}

void LdStUnit::complete_load(const L1Access& access, Cycle now) {
  if (access.is_load && !access.is_prefetch && access.warp_slot != kNoWarp)
    sm_.on_load_done(static_cast<u32>(access.warp_slot), now);
}

void LdStUnit::process_replies(Cycle now) {
  // Up to two fills per cycle (reply-network drain bandwidth at the SM).
  for (u32 k = 0; k < 2; ++k) {
    MemRequest reply;
    if (!mem_.pop_reply(sm_id_, now, reply)) break;
    mshr_.fill_into(reply.line, fill_scratch_);
    const std::vector<L1Access>& waiters = fill_scratch_;
    CAPS_CHECK(!waiters.empty(), "MSHR fill returned no waiters");
    ++stats_.l1_fills;

    // Determine line metadata: a prefetch-allocated entry with no merged
    // demand keeps its prefetched bit; any merged demand consumes the data
    // on arrival (late prefetch). A prefetch never merges (process_prefetch
    // drops a head whose line is in flight), so an entry has a prefetch
    // waiter exactly when a prefetch allocated it.
    L1LineMeta meta;
    bool any_demand = false;
    const L1Access* pf_origin = nullptr;
    for (const L1Access& w : waiters) {
      if (w.is_prefetch)
        pf_origin = &w;
      else
        any_demand = true;
    }
    if (pf_origin != nullptr) {
      if (any_demand) {
        ++stats_.pf_useful_late;
        // Count late prefetches in the distance stat at half credit: the
        // demand arrived before the data, so the covered gap is the
        // request's in-flight window.
        stats_.pf_distance.add(static_cast<double>(now - pf_origin->issue_cycle) / 2.0);
        if (trace_ != nullptr) {
          i32 consumer = kNoWarp;
          for (const L1Access& w : waiters) {
            if (!w.is_prefetch) {
              consumer = w.warp_slot;
              break;
            }
          }
          (*trace_)({.kind = TraceKind::kPrefetchLate, .sm_id = sm_id_,
                     .cycle = now, .warp_slot = consumer,
                     .pc = pf_origin->pc, .line = reply.line,
                     .issue_cycle = pf_origin->issue_cycle});
        }
      } else {
        meta.prefetched = true;
        meta.pf_issue_cycle = pf_origin->issue_cycle;
        meta.pf_pc = pf_origin->pc;
      }
    }

    auto evicted = l1_.fill(reply.line, meta);
    if (evicted && evicted->second.prefetched) {
      ++stats_.pf_early_evicted;
      if (trace_ != nullptr)
        (*trace_)({.kind = TraceKind::kPrefetchEarlyEvicted, .sm_id = sm_id_,
                   .cycle = now, .pc = evicted->second.pf_pc,
                   .line = evicted->first,
                   .issue_cycle = evicted->second.pf_issue_cycle});
    }

    for (const L1Access& w : waiters) {
      if (w.is_prefetch) continue;
      stats_.demand_miss_latency.add(static_cast<double>(now - w.issue_cycle));
      complete_load(w, now);
    }

    // Eager wake-up: notify the warp bound to a pure prefetch fill.
    if (!any_demand && pf_origin != nullptr &&
        pf_origin->warp_slot != kNoWarp) {
      sm_.on_prefetch_fill(static_cast<u32>(pf_origin->warp_slot), now);
      ++stats_.pf_wakeups;
    }
  }
}

void LdStUnit::process_completions(Cycle now) {
  while (!completions_.empty() && completions_.front().ready_at <= now) {
    complete_load(completions_.front().access, now);
    completions_.pop_front();
  }
}

u64 SmStats::*LdStUnit::process_demand(Cycle now) {
  const L1Access access = demand_q_.front();

  // Accesses are counted once, when the head leaves (retries after a
  // structural stall are not double counted). A probe that stalls changes
  // nothing: a tag miss leaves LRU alone, and the MSHR is only read.
  if (access.is_load) {
    if (L1LineMeta* meta = l1_.access(access.line)) {
      ++stats_.l1_accesses;
      ++stats_.l1_hits;
      if (meta->prefetched) {
        ++stats_.pf_useful;
        stats_.pf_distance.add(static_cast<double>(now - meta->pf_issue_cycle));
        if (trace_ != nullptr)
          (*trace_)({.kind = TraceKind::kPrefetchTimely, .sm_id = sm_id_,
                     .cycle = now, .warp_slot = access.warp_slot,
                     .pc = meta->pf_pc, .line = access.line,
                     .issue_cycle = meta->pf_issue_cycle});
        meta->prefetched = false;  // consumed
      }
      const Cycle ready_at = now + cfg_.l1_hit_latency;
      // pop order is completion order only while ready cycles increase.
      CAPS_CHECK(
          completions_.empty() || completions_.back().ready_at < ready_at,
          "L1 hit completions out of order");
      completions_.push_back(Completion{ready_at, access});
      demand_q_.pop_front();
      return nullptr;
    }
    // Miss path. A demand that catches up with an in-flight prefetch merges
    // like any other; late-useful accounting happens at fill time.
    if (const u32 slot = mshr_.slot_of(access.line);
        slot != Mshr<L1Access>::kNone) {
      if (!mshr_.can_merge_at(slot)) {
        ++stats_.stall_merge_full;
        return &SmStats::stall_merge_full;
      }
      ++stats_.l1_accesses;
      ++stats_.l1_misses;
      ++stats_.l1_mshr_merges;
      mshr_.merge_at(slot, access);
      demand_q_.pop_front();
      return nullptr;
    }
    if (mshr_.full()) {
      ++stats_.stall_mshr_full;
      return &SmStats::stall_mshr_full;
    }
  }

  // A store (write-through, no-allocate, non-blocking) or a primary miss.
  if (!mem_.can_accept(access.line)) {
    ++stats_.stall_xbar_full;
    mem_.note_inject_stall();
    return &SmStats::stall_xbar_full;  // the tag port stays free this cycle
  }
  MemRequest req;
  req.line = access.line;
  req.sm_id = sm_id_;
  if (access.is_load) {
    ++stats_.l1_accesses;
    ++stats_.l1_misses;
    ++stats_.demand_to_mem;
    sm_.on_demand_miss(access.line, access.pc, access.warp_slot, now);
    mshr_.allocate(access.line, access);
  } else {
    req.is_write = true;
    ++stats_.stores_to_mem;
  }
  mem_.submit(req, now);
  demand_q_.pop_front();
  return nullptr;
}

u64 SmStats::*LdStUnit::process_prefetch(Cycle now) {
  const L1Access& head = prefetch_q_.front();

  if (l1_.contains(head.line)) {
    ++stats_.pf_dropped_hit;
    prefetch_q_.pop_front();
    return nullptr;
  }
  if (mshr_.slot_of(head.line) != Mshr<L1Access>::kNone) {
    ++stats_.pf_dropped_inflight;
    prefetch_q_.pop_front();
    return nullptr;
  }
  if (mshr_.full() || !mem_.can_accept(head.line)) {
    // Structural backpressure: keep the head and retry; newly generated
    // prefetches are dropped upstream when the queue overflows.
    ++stats_.pf_stall_structural;
    return &SmStats::pf_stall_structural;
  }
  const L1Access access = head;
  prefetch_q_.pop_front();
  mshr_.allocate(access.line, access);
  MemRequest req;
  req.line = access.line;
  req.sm_id = sm_id_;
  req.is_prefetch = true;
  mem_.submit(req, now);
  ++stats_.pf_issued_to_mem;
  return nullptr;
}

void LdStUnit::cycle(Cycle now) {
  if (ledger_.owes(&SmStats::stall_xbar_full))
    mem_.wake_inject_staller(ledger_.from(), now);
  ledger_.settle(stats_, now);
  if (lane_wait_) wait_lanes(false);

  process_replies(now);
  process_completions(now);
  // One L1 port: demand first, prefetch only when the demand head is idle
  // or blocked.
  u64 SmStats::*demand = nullptr;
  if (!demand_q_.empty() && (demand = process_demand(now)) == nullptr) return;
  u64 SmStats::*prefetch = nullptr;
  if (!prefetch_q_.empty() && (prefetch = process_prefetch(now)) == nullptr)
    return;
  sleep(now, demand, prefetch);
}

void LdStUnit::sleep(Cycle now, u64 SmStats::*demand,
                     u64 SmStats::*prefetch) {
  // Every later tick would repeat this one's port outcome until due() sees
  // what a head waits for: the tags and the MSHR change only on a fill (a
  // reply) or this unit's own progress, a push behind a head changes
  // neither head, and a blocked head moves once its lane has room.
  ledger_.sleep(now + 1, completions_.empty() ? kNever
                                               : completions_.front().ready_at);
  if (demand != nullptr) ledger_.owe(demand);
  if (prefetch != nullptr) ledger_.owe(prefetch);
  // A blocked prefetch head waits on its lane exactly when the MSHR has
  // room. Wait on the lanes of the heads that wait on one, the same lane
  // twice when only one does.
  const bool demand_lane = demand == &SmStats::stall_xbar_full;
  const bool prefetch_lane = prefetch != nullptr && !mshr_.full();
  if (demand_lane) mem_.sleep_inject_staller(now + 1);
  if (!demand_lane && !prefetch_lane) return;
  lanes_[0] = mem_.partition_of(
      (demand_lane ? demand_q_ : prefetch_q_).front().line);
  lanes_[1] = prefetch_lane ? mem_.partition_of(prefetch_q_.front().line)
                            : lanes_[0];
  wait_lanes(true);
}

void LdStUnit::wait_lanes(bool waits) {
  lane_wait_ = waits;
  for (const u32 lane : lanes_)
    mem_.calendar().wait_room(WakeCalendar::kRequestLane, lane, sm_id_, waits);
}

bool LdStUnit::idle() const {
  return demand_q_.empty() && prefetch_q_.empty() && completions_.empty() &&
         mshr_.size() == 0;
}

void LdStUnit::snapshot_into(MachineSnapshot& snap) const {
  SnapshotSection& s =
      snap.section("sm " + std::to_string(sm_id_) + " ld/st");
  std::ostringstream q;
  q << "demand_q " << demand_q_.size() << "/" << demand_q_.capacity()
    << "  prefetch_q " << prefetch_q_.size() << "/" << prefetch_q_.capacity()
    << "  completions " << completions_.size() << "  mshr " << mshr_.size()
    << "/" << mshr_.entries();
  s.lines.push_back(q.str());
  // The in-flight lines are the most useful lead on a lost reply; cap the
  // dump so a saturated MSHR stays readable.
  constexpr std::size_t kMaxLines = 8;
  const std::vector<Addr> lines = mshr_.outstanding_lines();
  std::ostringstream m;
  m << "outstanding:";
  for (std::size_t i = 0; i < lines.size() && i < kMaxLines; ++i)
    m << " 0x" << std::hex << lines[i] << std::dec;
  if (lines.size() > kMaxLines)
    m << " (+" << lines.size() - kMaxLines << " more)";
  if (!lines.empty()) s.lines.push_back(m.str());
}

}  // namespace caps
