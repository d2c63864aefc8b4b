#include "gpu/coalescer.hpp"

#include <algorithm>

namespace caps {

void Coalescer::coalesce_into(const AddressPattern& p, const Dim3& block,
                              const Dim3& cta_id, u32 cta_flat,
                              u32 warp_in_cta, u32 iter,
                              std::vector<Addr>& out) const {
  out.clear();
  const u32 threads = block.count();
  const u32 first_thread = warp_in_cta * kWarpSize;
  if (first_thread >= threads) return;
  const u32 lanes = std::min(kWarpSize, threads - first_thread);  // active
  // Adjacent lanes mostly share a line: skip a repeat of the previous
  // lane's, then sort and deduplicate what is left.
  const auto add = [&](Addr a) {
    const Addr line = line_base(a, line_size_);
    if (out.empty() || out.back() != line) out.push_back(line);
  };
  if (p.indirect) {
    // The lanes of one hash group share one hash.
    const u64 gtid = static_cast<u64>(cta_flat) * threads + first_thread;
    u64 group = gtid / p.indirect_group;
    u64 in_group = gtid % p.indirect_group;
    for (u32 lane = 0; lane < lanes; ++group, in_group = 0) {
      const Addr run = p.indirect_base(group, iter);
      for (; in_group < p.indirect_group && lane < lanes; ++in_group, ++lane)
        add(run + p.indirect_lane_offset(in_group));
    }
  } else {
    // Walk the thread ids x, then y, then z from the warp's first thread.
    Dim3 tid = unflatten(first_thread, block);
    for (u32 lane = 0; lane < lanes; ++lane) {
      add(p.evaluate(tid, cta_id, iter, /*gtid, indirect only=*/0));
      if (++tid.x == block.x) {
        tid.x = 0;
        if (++tid.y == block.y) {
          tid.y = 0;
          ++tid.z;
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace caps
