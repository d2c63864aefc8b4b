#include "mem/memory_system.hpp"

#include <bit>
#include <sstream>

namespace caps {

MemorySystem::MemorySystem(const GpuConfig& cfg)
    : cfg_(cfg),
      req_xbar_(cfg.num_l2_partitions, cfg.xbar_latency, /*queue=*/16),
      reply_xbar_(cfg.num_sms, cfg.xbar_latency, /*queue=*/16),
      calendar_(cfg.num_sms, cfg.num_l2_partitions) {
  for (u32 c = 0; c < cfg_.num_dram_channels; ++c)
    channels_.push_back(std::make_unique<DramChannel>(cfg_));
  for (u32 p = 0; p < cfg_.num_l2_partitions; ++p) {
    DramChannel& ch = *channels_[p % cfg_.num_dram_channels];
    partitions_.push_back(
        std::make_unique<L2Partition>(cfg_, ch, calendar_, p));
  }
}

void MemorySystem::submit(const MemRequest& req, Cycle now) {
  const u32 p = partition_of(req.line);
  req_xbar_.push(p, req, now);
  ++req_stats_.messages;
  if (req_xbar_.queued(p) == 1) arm_pull(p);  // a new head
}

void MemorySystem::arm_pull(u32 p) {
  calendar_.arm(WakeCalendar::kPullRow, p,
                partitions_[p]->can_accept() ? req_xbar_.head_at(p) : kNever);
}

void MemorySystem::cycle(Cycle now) {
  // Each due partition pulls at most one request from its crossbar lane,
  // then ticks if it has work. Pulling touches only the partition and its
  // lane, so one pass keeps the order of pulling all partitions first.
  for (u64 due = calendar_.take(WakeCalendar::kPartition, now); due != 0;
       due &= due - 1) {
    const auto p = static_cast<u32>(std::countr_zero(due));
    L2Partition& part = *partitions_[p];
    MemRequest req;
    const Cycle arrived_at = req_xbar_.head_at(p);
    const bool had_room = part.can_accept();
    const bool pulled = had_room && req_xbar_.pop(p, now, req);
    if (pulled) {
      req_stats_.total_queue_delay += now - arrived_at;
      part.accept(req, now);
      calendar_.room(WakeCalendar::kRequestLane, p);
    }
    // The partition marks its channel and its reply head itself.
    if (part.due(now)) part.cycle(now);
    // The pull wake moves only with the lane head or the partition's room.
    if (pulled || part.can_accept() != had_room) arm_pull(p);
  }

  for (u32 c = 0; c < channels_.size(); ++c) {
    DramChannel& ch = *channels_[c];
    // Completed transfers first, in completion order: reads fill L2.
    MemRequest done;
    while (ch.pop_done(now, done))
      partitions_[partition_of(done.line)]->dram_done(done);
    if (ch.cycle(now)) calendar_.room(WakeCalendar::kDramQueue, c);
  }

  // Each due partition injects at most one reply into the reply crossbar.
  // A reply the crossbar cannot take stays at the head of its queue, and
  // its head is visited again in the next cycle.
  for (u64 due = calendar_.take(WakeCalendar::kReplyHead, now); due != 0;
       due &= due - 1) {
    const auto p = static_cast<u32>(std::countr_zero(due));
    L2Partition& part = *partitions_[p];
    const MemRequest* reply = part.front_reply();
    if (reply == nullptr) continue;
    const u32 sm = reply->sm_id;
    if (!reply_xbar_.can_accept(sm)) {
      calendar_.mark(WakeCalendar::kReplyHead, WakeCalendar::bit(p));
      continue;
    }
    reply_xbar_.push(sm, *reply, now);
    part.pop_reply();
    if (reply_xbar_.queued(sm) == 1)  // a new head
      calendar_.arm(WakeCalendar::kReplyRow, sm, reply_xbar_.head_at(sm));
  }
  elapsed_ = now + 1;
}

const XbarStats& MemorySystem::request_xbar_stats() const {
  request_xbar_read_ = req_stats_;
  request_xbar_read_.inject_stalls +=
      inject_sleepers_ * elapsed_ - inject_sleep_from_sum_;
  return request_xbar_read_;
}

bool MemorySystem::idle() const {
  if (!req_xbar_.idle() || !reply_xbar_.idle()) return false;
  for (const auto& p : partitions_)
    if (!p->idle()) return false;
  for (const auto& c : channels_)
    if (!c->idle()) return false;
  return true;
}

DramStats MemorySystem::dram_stats() const {
  DramStats agg;
  for (const auto& c : channels_) agg.merge(c->stats());
  return agg;
}

void MemorySystem::snapshot_into(MachineSnapshot& snap) const {
  auto xbar_line = [](const Crossbar& x, const char* what) {
    std::ostringstream os;
    os << what << " queued:";
    for (u32 d = 0; d < x.num_dests(); ++d)
      os << " " << x.queued(d) << "/" << x.queue_capacity();
    return os.str();
  };
  SnapshotSection& s = snap.section("memory system");
  s.lines.push_back(xbar_line(req_xbar_, "req_xbar"));
  s.lines.push_back(xbar_line(reply_xbar_, "reply_xbar"));
  for (u32 p = 0; p < partitions_.size(); ++p) {
    const L2Partition& part = *partitions_[p];
    if (part.idle()) continue;
    std::ostringstream os;
    os << "l2 partition " << p << ": probe_q " << part.probe_queue_size()
       << " replies " << part.reply_queue_size() << " mshr "
       << part.mshr_size() << " pending_wb " << part.pending_writebacks();
    s.lines.push_back(os.str());
  }
  for (u32 c = 0; c < channels_.size(); ++c) {
    const DramChannel& ch = *channels_[c];
    if (ch.idle()) continue;
    std::ostringstream os;
    os << "dram channel " << c << ": queue " << ch.queue_size() << "/"
       << ch.queue_capacity() << " in_service " << ch.in_service();
    s.lines.push_back(os.str());
  }
  if (dropped_replies_ > 0) {
    s.lines.push_back("dropped_replies " + std::to_string(dropped_replies_) +
                      " (fault injection)");
  }
}

L2Stats MemorySystem::l2_stats() const {
  L2Stats agg;
  for (const auto& p : partitions_) {
    agg.merge(p->stats());
    p->add_slept(agg, elapsed_);
  }
  return agg;
}

}  // namespace caps
