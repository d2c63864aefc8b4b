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
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    const u32 t = first_thread + lane;
    if (t >= threads) break;  // inactive lane
    const Dim3 tid = unflatten(t, block);
    const u64 gtid = static_cast<u64>(cta_flat) * threads + t;
    const Addr a = p.evaluate(tid, cta_id, iter, gtid);
    const Addr line = line_base(a, line_size_);
    if (std::find(out.begin(), out.end(), line) == out.end())
      out.push_back(line);
  }
  std::sort(out.begin(), out.end());
}

}  // namespace caps
