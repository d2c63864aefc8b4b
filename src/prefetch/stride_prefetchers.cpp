#include "prefetch/stride_prefetchers.hpp"

#include "common/rng.hpp"

namespace caps {

bool StridePrefetcher::intra_warp(const LoadIssueInfo& info,
                                  std::vector<PrefetchRequest>& out) {
  if (!info.is_load || info.lines.empty()) return false;
  const Addr addr = info.lines.front();
  ++stats_.table_reads;
  ++stats_.table_writes;
  const StrideTable::Entry& e =
      intra_.observe(hash_combine(info.pc, info.warp_slot), addr);
  if (e.confidence < 2) return false;
  for (u32 d = 1; d <= cfg_.baseline_pf.degree; ++d)
    emit(out, static_cast<Addr>(static_cast<i64>(addr) + e.stride * d),
         info.pc, static_cast<i32>(info.warp_slot));
  return true;
}

void StridePrefetcher::inter_warp(const LoadIssueInfo& info,
                                  std::vector<PrefetchRequest>& out) {
  if (!info.is_load || info.lines.empty()) return;
  const Addr addr = info.lines.front();
  ++stats_.table_reads;
  ++stats_.table_writes;
  const StrideTable::Entry& e =
      inter_.observe_warp(info.pc, info.warp_slot, addr);
  if (e.confidence < 2) return;
  // Prefetch for the next `degree` warp slots, CTA boundaries be damned.
  for (u32 d = 1; d <= cfg_.baseline_pf.degree; ++d) {
    const u32 target = info.warp_slot + d;
    if (target >= cfg_.max_warps_per_sm) break;
    emit(out, static_cast<Addr>(static_cast<i64>(addr) + e.stride * d),
         info.pc, static_cast<i32>(target));
  }
}

}  // namespace caps
