#include "core/caps_prefetcher.hpp"


namespace caps {

CapsPrefetcher::CapsPrefetcher(const GpuConfig& cfg)
    : dist_(cfg.caps.dist_entries, cfg.caps.mispredict_threshold),
      ctas_(cfg.max_ctas_per_sm) {
  percta_.reserve(cfg.max_ctas_per_sm);
  for (u32 c = 0; c < cfg.max_ctas_per_sm; ++c)
    percta_.emplace_back(cfg.caps.percta_entries);
}

void CapsPrefetcher::on_cta_launch(u32 cta_slot, const Dim3& /*cta_id*/,
                                   u32 first_warp_slot, u32 num_warps) {
  ctas_[cta_slot] = CtaInfo{true, first_warp_slot, num_warps};
  percta_[cta_slot].clear();
}

void CapsPrefetcher::on_cta_complete(u32 cta_slot) {
  ctas_[cta_slot].active = false;
  percta_[cta_slot].clear();
}

void CapsPrefetcher::generate_for_cta(u32 cta_slot, Addr pc,
                                      PerCtaEntry& entry, i64 stride,
                                      std::vector<PrefetchRequest>& out) {
  const CtaInfo& cta = ctas_[cta_slot];
  if (!cta.active) return;
  for (u32 w = 0; w < cta.num_warps; ++w) {
    if (w == entry.leading_warp) continue;
    const u64 bit = 1ULL << w;
    if (entry.issued_mask & bit) continue;      // warp already ran the load
    if (entry.prefetched_mask & bit) continue;  // already prefetched
    const i64 dw = static_cast<i64>(w) - static_cast<i64>(entry.leading_warp);
    for (const Addr base : entry.bases())
      emit(out, static_cast<Addr>(static_cast<i64>(base) + stride * dw),
           pc, static_cast<i32>(cta.first_warp_slot + w));
    entry.prefetched_mask |= bit;
    ++stats_.table_writes;
  }
}

void CapsPrefetcher::on_load_issue(const LoadIssueInfo& info,
                                   std::vector<PrefetchRequest>& out) {
  if (!info.is_load || info.lines.empty()) return;
  if (info.indirect) {
    ++stats_.excluded_indirect;
    return;
  }
  if (info.lines.size() > CapsConfig::kMaxCoalescedLines) {
    ++stats_.excluded_uncoalesced;
    return;
  }

  PerCtaTable& table = percta_[info.cta_slot];
  ++stats_.table_reads;
  PerCtaEntry* entry = table.find(info.pc);
  DistTable::Entry* dist = dist_.find(info.pc);
  const u64 my_bit = 1ULL << info.warp_in_cta;

  if (entry == nullptr) {
    if (dist == nullptr && !dist_.can_admit()) {
      // CAPS already tracks its maximum number of distinct loads and this
      // PC is not one of them: leave it alone entirely.
      return;
    }
    // First warp of this CTA to reach the load: it becomes the CTA's
    // leading warp and registers the base addresses.
    entry = &table.insert(info.pc);
    entry->leading_warp = info.warp_in_cta;
    entry->iteration = info.iteration;
    entry->set_bases(info.lines);
    entry->issued_mask = my_bit;
    entry->prefetched_mask = my_bit;
    ++stats_.table_writes;
    // Case 2 (Fig. 9b): stride already known -> fan out to this CTA's
    // trailing warps immediately.
    if (dist != nullptr && !dist_.throttled(*dist))
      generate_for_cta(info.cta_slot, info.pc, *entry, dist->stride, out);
    else if (dist != nullptr)
      ++stats_.throttle_suppressed;
    return;
  }

  entry->issued_mask |= my_bit;

  if (info.warp_in_cta == entry->leading_warp) {
    // The leading warp re-executed the load (next loop iteration): refresh
    // the bases and re-arm prefetch generation for the new iteration.
    entry->iteration = info.iteration;
    entry->set_bases(info.lines);
    entry->issued_mask = my_bit;
    entry->prefetched_mask = my_bit;
    ++stats_.table_writes;
    if (dist != nullptr && !dist_.throttled(*dist))
      generate_for_cta(info.cta_slot, info.pc, *entry, dist->stride, out);
    return;
  }

  // Trailing warp of a CTA whose base is registered.
  const i64 dw = static_cast<i64>(info.warp_in_cta) -
                 static_cast<i64>(entry->leading_warp);
  const bool comparable = info.iteration == entry->iteration &&
                          info.lines.size() == entry->bases().size();

  if (dist == nullptr) {
    // Stride unknown: derive it from this warp vs. the stored base.
    if (!comparable) return;
    i64 stride = 0;
    bool uniform = true;
    for (std::size_t i = 0; i < info.lines.size(); ++i) {
      const i64 da = static_cast<i64>(info.lines[i]) -
                     static_cast<i64>(entry->bases()[i]);
      if (da % dw != 0) {
        uniform = false;
        break;
      }
      const i64 s = da / dw;
      if (i == 0)
        stride = s;
      else if (s != stride)
        uniform = false;
      if (!uniform) break;
    }
    if (!uniform) {
      // "Not a striding load": drop the PerCTA entry (Section V-B).
      table.erase(info.pc);
      return;
    }
    if (dist_.record(info.pc, stride) == nullptr) {
      // DIST full with healthy entries: this PC is not targeted. Drop the
      // PerCTA entry too so it stops occupying a slot.
      table.erase(info.pc);
      return;
    }
    ++stats_.table_writes;
    // Case 1 (Fig. 9a): stride just became known -> fan out to every CTA
    // that already registered a base address for this PC.
    for (u32 c = 0; c < ctas_.size(); ++c) {
      if (!ctas_[c].active) continue;
      if (PerCtaEntry* e = percta_[c].find(info.pc))
        generate_for_cta(c, info.pc, *e, stride, out);
    }
    return;
  }

  // Stride known: verify the prediction against the demand addresses
  // ("every warp instruction that issues a demand fetch also calculates the
  // prefetch address to detect a misprediction"). The check is independent
  // of loop iteration: if warps skew across iterations the predictions are
  // stale, and exactly this counter is what detects and throttles it.
  if (info.lines.size() == entry->bases().size()) {
    bool match = true;
    for (std::size_t i = 0; i < info.lines.size(); ++i) {
      const Addr predicted = static_cast<Addr>(
          static_cast<i64>(entry->bases()[i]) + dist->stride * dw);
      if (predicted != info.lines[i]) {
        match = false;
        break;
      }
    }
    if (!match) {
      dist_.mispredict(*dist);
      ++stats_.mispredictions;
    }
  }
  if (dist_.throttled(*dist)) {
    ++stats_.throttle_suppressed;
    return;
  }
  // Keep covering any still-unprefetched trailing warps of this CTA.
  generate_for_cta(info.cta_slot, info.pc, *entry, dist->stride, out);
}

}  // namespace caps
