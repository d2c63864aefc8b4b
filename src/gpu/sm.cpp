#include "gpu/sm.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

#include "mem/memory_system.hpp"

namespace caps {

StreamingMultiprocessor::StreamingMultiprocessor(
    const GpuConfig& cfg, u32 id, const Kernel& kernel, MemorySystem& mem,
    const SmPolicyFactories& policies, const TraceSink* trace)
    : cfg_(cfg),
      id_(id),
      kernel_(kernel),
      mem_(mem),
      ldst_(cfg, *this, id, mem, stats_, trace),
      coalescer_(cfg.l1d.line_size),
      warps_(cfg.max_warps_per_sm),
      ctas_(cfg.max_ctas_per_sm),
      trace_(trace),
      elided_(mem.calendar(), WakeCalendar::kIssueRow, id) {
  const u32 wpc = kernel.warps_per_cta();
  max_concurrent_ctas_ =
      std::min(cfg.max_ctas_per_sm, cfg.max_warps_per_sm / wpc);
  if (max_concurrent_ctas_ == 0)
    throw SimError(SimErrorKind::kConfigError,
                   "kernel CTA too large for this SM (warps/CTA exceeds "
                   "max_warps_per_sm)");
  // Pre-size the per-issue scratch buffers: a warp coalesces to at most
  // kWarpSize lines, and a prefetch burst is at most CAPS case 1's fan-out
  // (every resident warp, kMaxCoalescedLines lines each), a stride
  // engine's degree or a LAP macro block. Both are reused every issue, so
  // a run never allocates (DESIGN.md §13).
  coalesce_scratch_.reserve(kWarpSize);
  pf_buffer_.reserve(
      std::max({cfg.max_warps_per_sm * CapsConfig::kMaxCoalescedLines,
                cfg.baseline_pf.degree, cfg.baseline_pf.macro_block_lines}));
  elided_.sleep(0, kNever);  // no warp is resident yet
  for (u32 b = 0; b < max_concurrent_ctas_; ++b)
    free_warp_blocks_.push_back(b * wpc);
  // Hand out in ascending slot order.
  std::reverse(free_warp_blocks_.begin(), free_warp_blocks_.end());

  prefetcher_ = policies.make_prefetcher(cfg);
  scheduler_ = policies.make_scheduler(cfg, warps_, {}, {});
  scheduler_->set_trace_sink(trace_, id_);
}

bool StreamingMultiprocessor::launch_cta(const Dim3& cta_id, Cycle now) {
  if (!can_launch_cta()) return false;
  wake_issue(now);
  elided_.wake();
  // Find a free CTA slot.
  u32 cta_slot = cfg_.max_ctas_per_sm;
  for (u32 c = 0; c < ctas_.size(); ++c) {
    if (!ctas_[c].active) {
      cta_slot = c;
      break;
    }
  }
  CAPS_CHECK(cta_slot < cfg_.max_ctas_per_sm, "no free CTA slot on launch");
  CAPS_CHECK(!free_warp_blocks_.empty(), "no free warp block on CTA launch");
  const u32 first_warp = free_warp_blocks_.back();
  free_warp_blocks_.pop_back();

  const u32 wpc = kernel_.warps_per_cta();
  const u32 cta_flat = flatten(cta_id, kernel_.grid());
  CtaSlot& cta = ctas_[cta_slot];
  cta.active = true;
  cta.cta_id = cta_id;
  cta.first_warp_slot = first_warp;
  cta.num_warps = wpc;
  cta.warps_done = 0;
  cta.barrier_arrived = 0;

  for (u32 w = 0; w < wpc; ++w) {
    WarpContext& wc = warps_[first_warp + w];
    wc = WarpContext{};
    wc.status = WarpStatus::kActive;
    wc.cta_slot = cta_slot;
    wc.warp_in_cta = w;
    wc.cta_id = cta_id;
    wc.cta_flat = cta_flat;
    wc.ready_at = now;
    wc.launch_order = launch_counter_++;
    update_mem_wait(first_warp + w);
  }
  ++resident_ctas_;
  resident_warps_ += wpc;
  prefetcher_->on_cta_launch(cta_slot, cta_id, first_warp, wpc);
  scheduler_->on_cta_launch(cta_slot, first_warp, wpc);
  return true;
}

void StreamingMultiprocessor::update_mem_wait(u32 slot) {
  WarpContext& wc = warps_[slot];
  const bool waits = wc.status == WarpStatus::kActive &&
                     wc.outstanding_loads > 0 &&
                     kernel_.instruction(wc.pc_idx).waits_mem;
  const u64 bit = u64{1} << slot;
  issuable_ = wc.runnable() && !waits ? issuable_ | bit : issuable_ & ~bit;
  if (waits == wc.mem_wait) return;
  wc.mem_wait = waits;
  if (waits)
    ++mem_wait_warps_;
  else
    --mem_wait_warps_;
}

void StreamingMultiprocessor::on_load_done(u32 slot, Cycle now) {
  WarpContext& wc = warps_[slot];
  CAPS_CHECK(wc.outstanding_loads > 0,
             "load completion for a warp with no outstanding loads");
  if (--wc.outstanding_loads == 0) {
    wake_issue(now);
    update_mem_wait(slot);
    scheduler_->on_loads_complete(slot);
  }
}

void StreamingMultiprocessor::on_prefetch_fill(u32 slot, Cycle now) {
  wake_issue(now);
  if (warps_[slot].status == WarpStatus::kActive)
    scheduler_->on_prefetch_fill(slot);
}

void StreamingMultiprocessor::on_demand_miss(Addr line, Addr pc, i32 warp_slot,
                                             Cycle now) {
  pf_buffer_.clear();
  prefetcher_->on_demand_miss(line, pc, warp_slot, pf_buffer_);
  if (!pf_buffer_.empty()) ldst_.push_prefetches(pf_buffer_, now);
}

void StreamingMultiprocessor::arrive_barrier(u32 slot, Cycle now) {
  WarpContext& wc = warps_[slot];
  CtaSlot& cta = ctas_[wc.cta_slot];
  ++wc.pc_idx;  // retire the barrier; warp resumes past it
  if (++cta.barrier_arrived == cta.num_warps) {
    cta.barrier_arrived = 0;
    for (u32 w = cta.first_warp_slot; w < cta.first_warp_slot + cta.num_warps;
         ++w) {
      if (warps_[w].status == WarpStatus::kAtBarrier)
        warps_[w].status = WarpStatus::kActive;
      warps_[w].ready_at = now + 1;
      update_mem_wait(w);
    }
  } else {
    wc.status = WarpStatus::kAtBarrier;
  }
}

void StreamingMultiprocessor::finish_warp(u32 slot) {
  WarpContext& wc = warps_[slot];
  wc.status = WarpStatus::kDone;
  update_mem_wait(slot);
  --resident_warps_;
  scheduler_->on_warp_done(slot);
  CtaSlot& cta = ctas_[wc.cta_slot];
  if (++cta.warps_done == cta.num_warps) {
    cta.active = false;
    free_warp_blocks_.push_back(cta.first_warp_slot);
    --resident_ctas_;
    ++stats_.ctas_completed;
    prefetcher_->on_cta_complete(wc.cta_slot);
  }
}

void StreamingMultiprocessor::issue_memory(u32 slot, const Instruction& ins,
                                           std::span<const Addr> lines,
                                           Cycle now) {
  WarpContext& wc = warps_[slot];
  CAPS_CHECK(!lines.empty(), "memory instruction coalesced to zero lines");

  for (const Addr line : lines) {
    L1Access a;
    a.line = line;
    a.pc = ins.pc;
    a.is_load = ins.is_load;
    a.warp_slot = static_cast<i32>(slot);
    a.issue_cycle = now;
    ldst_.push_demand(a);
  }
  if (ins.is_load) wc.outstanding_loads += static_cast<u32>(lines.size());

  if (trace_ != nullptr && ins.is_load) {
    (*trace_)({.kind = TraceKind::kLoadIssue, .sm_id = id_, .cycle = now,
               .warp_slot = static_cast<i32>(slot),
               .warp_in_cta = wc.warp_in_cta, .cta_id = wc.cta_id,
               .cta_flat = wc.cta_flat, .pc = ins.pc, .line = lines.front(),
               .num_lines = static_cast<u32>(lines.size())});
  }

  // Let the prefetch engine observe the issue.
  const CtaSlot& cta = ctas_[wc.cta_slot];
  LoadIssueInfo info;
  info.pc = ins.pc;
  info.sm_id = id_;
  info.cta_slot = wc.cta_slot;
  info.cta_id = wc.cta_id;
  info.warp_slot = slot;
  info.warp_in_cta = wc.warp_in_cta;
  info.warps_in_cta = cta.num_warps;
  info.lines = lines;
  info.is_load = ins.is_load;
  info.indirect = ins.addr.indirect;
  info.iteration = wc.current_iteration();
  info.cycle = now;
  pf_buffer_.clear();
  prefetcher_->on_load_issue(info, pf_buffer_);
  if (!pf_buffer_.empty()) ldst_.push_prefetches(pf_buffer_, now);

  // The scheduler owns the leading-warp marker protocol (Section V-A): the
  // PAS variants clear the marker at the warp's first global access.
  scheduler_->on_global_access(slot);

  // Address generation + access throughput: one line per cycle.
  wc.ready_at = now + std::max<u64>(1, lines.size());
  ++wc.pc_idx;
}

bool StreamingMultiprocessor::issue(u32 slot, Cycle now) {
  WarpContext& wc = warps_[slot];
  const Instruction& ins = kernel_.instruction(wc.pc_idx);

  switch (ins.op) {
    case Opcode::kAlu:
    case Opcode::kSfu: {
      const u32 lat = ins.latency != 0
                          ? ins.latency
                          : (ins.op == Opcode::kAlu ? cfg_.alu_latency
                                                    : cfg_.sfu_latency);
      wc.ready_at = now + (ins.dep_next ? lat : 1);
      ++wc.pc_idx;
      break;
    }
    case Opcode::kShared:
      wc.ready_at = now + 2;
      ++wc.pc_idx;
      break;
    case Opcode::kMem: {
      // A refused instruction keeps its pc_idx and iteration, so its lines
      // cannot change: retry against the remembered count and coalesce
      // again only once the LD/ST unit has room for them.
      if (wc.stalled_lines != 0 && !ldst_.can_accept(wc.stalled_lines)) {
        ++stats_.stall_ldst_full;
        return false;
      }
      coalescer_.coalesce_into(ins.addr, kernel_.block(), wc.cta_id,
                               wc.cta_flat, wc.warp_in_cta,
                               wc.current_iteration(), coalesce_scratch_);
      const auto lines = static_cast<u32>(coalesce_scratch_.size());
      if (!ldst_.can_accept(lines)) {
        wc.stalled_lines = lines;
        ++stats_.stall_ldst_full;
        return false;
      }
      wc.stalled_lines = 0;
      issue_memory(slot, ins, coalesce_scratch_, now);
      break;
    }
    case Opcode::kBarrier:
      arrive_barrier(slot, now);
      break;
    case Opcode::kLoopBegin:
      wc.loops[wc.loop_depth++] = 0;  // Kernel::finalize bounds the nest
      ++wc.pc_idx;
      wc.ready_at = now + 1;
      break;
    case Opcode::kLoopEnd:
      // Counted per warp, never read from Instruction::loop, so the issued
      // count stays a check on the kernel's static nest.
      CAPS_CHECK(wc.loop_depth > 0, "LoopEnd with no open loop frame");
      if (++wc.loops[wc.loop_depth - 1] <
          kernel_.instruction(ins.match).trip_count) {
        wc.pc_idx = ins.match + 1;
      } else {
        --wc.loop_depth;
        ++wc.pc_idx;
      }
      wc.ready_at = now + 1;
      break;
    case Opcode::kExit:
      ++stats_.issued_instructions;
      finish_warp(slot);
      return true;
  }
  ++stats_.issued_instructions;
  if (wc.ready_at <= now) wc.ready_at = now + 1;
  update_mem_wait(slot);
  return true;
}

void StreamingMultiprocessor::cycle(Cycle now) {
  if (ldst_.due(now)) {
    ldst_.cycle(now);
    // The demand queue pops only in the tick. While it has less room than
    // the fewest lines of any warp refused in this round, each of them is
    // refused again: the round, or its elided span, goes on.
    if (round_min_lines_ != 0 && ldst_.can_accept(round_min_lines_))
      wake_issue(now);
  }

  if (!elided_.due(now)) return;
  // A launch, a hook or the next ready_at woke the issue stage.
  if (elided_.owes(&SmStats::active_cycles)) end_elision(now);
  ++stats_.active_cycles;
  stats_.issue_slots += cfg_.issue_width;

  u32 issued = 0;
  i32 refused = kNoWarp;
  for (u32 i = 0; i < cfg_.issue_width; ++i) {
    const i32 slot = scheduler_->pick(now);
    if (slot == kNoWarp) break;
    if (!issue(static_cast<u32>(slot), now)) {  // structural stall
      if (issued == 0) refused = slot;
      break;
    }
    ++issued;
  }
  if (refused != kNoWarp) {
    note_refused(refused, now);
  } else {
    round_warp_ = kNoWarp;
    round_min_lines_ = 0;
  }
  // Whole-SM stall; attribute it to memory if any warp waits on loads.
  if (issued == 0 && mem_wait_warps_ > 0) ++stats_.stall_cycles_all_mem;
  if (resident_warps_ == 0) elided_.sleep(now + 1, kNever);  // until launch
}

Cycle StreamingMultiprocessor::next_ready(Cycle after) const {
  Cycle next = kNever;
  for (u64 w = issuable_; w != 0; w &= w - 1) {
    const Cycle r = warps_[static_cast<u32>(std::countr_zero(w))].ready_at;
    if (r > after) next = std::min(next, r);
  }
  return next;
}

void StreamingMultiprocessor::note_refused(i32 slot, Cycle now) {
  const u32 lines = warps_[static_cast<u32>(slot)].stalled_lines;
  if (round_min_lines_ == 0 || lines < round_min_lines_)
    round_min_lines_ = lines;
  if (slot != round_warp_) {
    if (round_warp_ == kNoWarp) {
      round_warp_ = slot;
      round_start_ = now;
    }
    return;
  }
  // A whole round of picks since round_start_ was refused with no hook in
  // between: the scheduler visited every warp it can pick, and each repeats
  // its refusal while the demand queue keeps its size. The round repeats
  // while the eligible set holds, so elide until the next ready_at of an
  // active warp that does not wait on memory, unless one passed during the
  // round (then its warp may not have been picked yet).
  const Cycle next = next_ready(round_start_);
  if (next <= now) {
    round_start_ = now;
    return;
  }
  // Each elided cycle picks one warp and has it refused. Whether a warp
  // waits on memory changes only in a hook, and every hook ends the span.
  elided_.sleep(now + 1, next);
  elided_.owe(&SmStats::active_cycles);
  elided_.owe(&SmStats::issue_slots, cfg_.issue_width);
  elided_.owe(&SmStats::stall_ldst_full);
  if (mem_wait_warps_ > 0) elided_.owe(&SmStats::stall_cycles_all_mem);
}

void StreamingMultiprocessor::end_elision(Cycle now) {
  if (now != elided_.from())
    scheduler_->elide_refused(elided_.from(), now - 1);
  elided_.settle(stats_, now);
}

SmStats StreamingMultiprocessor::stats() const {
  SmStats s = stats_;
  const Cycle now = mem_.elapsed();
  ldst_.add_slept(s, now);
  elided_.add_to(s, now);
  return s;
}

bool StreamingMultiprocessor::busy() const {
  return resident_warps_ > 0 || !ldst_.idle();
}

void StreamingMultiprocessor::wedge_warp_for_test(u32 slot) {
  warps_[slot].ready_at = std::numeric_limits<Cycle>::max();
}

namespace {

const char* status_name(WarpStatus s) {
  switch (s) {
    case WarpStatus::kInvalid: return "invalid";
    case WarpStatus::kActive: return "active";
    case WarpStatus::kAtBarrier: return "barrier";
    case WarpStatus::kDone: return "done";
  }
  return "?";
}

}  // namespace

void StreamingMultiprocessor::snapshot_into(MachineSnapshot& snap) const {
  SnapshotSection& s = snap.section("sm " + std::to_string(id_));
  {
    std::ostringstream os;
    os << "resident_ctas " << resident_ctas_ << "/" << max_concurrent_ctas_
       << "  resident_warps " << resident_warps_;
    s.lines.push_back(os.str());
  }
  for (u32 w = 0; w < warps_.size(); ++w) {
    const WarpContext& wc = warps_[w];
    if (wc.status == WarpStatus::kInvalid || wc.status == WarpStatus::kDone)
      continue;
    std::ostringstream os;
    os << "warp " << w << " [" << status_name(wc.status) << "] cta_slot "
       << wc.cta_slot << " pc_idx " << wc.pc_idx << " outstanding_loads "
       << wc.outstanding_loads << " ready_at " << wc.ready_at;
    s.lines.push_back(os.str());
  }
  ldst_.snapshot_into(snap);
}

}  // namespace caps
