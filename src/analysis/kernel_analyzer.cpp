#include "analysis/kernel_analyzer.hpp"

#include <algorithm>

namespace caps::analysis {

const char* to_string(LoadClass c) {
  switch (c) {
    case LoadClass::kIndirect: return "indirect";
    case LoadClass::kUncoalesced: return "uncoalesced";
    case LoadClass::kNonStrided: return "non-strided";
    case LoadClass::kZeroStride: return "zero-stride";
    case LoadClass::kCtaAffine: return "cta-affine";
  }
  return "?";
}

const LoadAnalysis* KernelAnalysis::find(Addr pc) const {
  for (const LoadAnalysis& l : loads)
    if (l.pc == pc) return &l;
  return nullptr;
}

u32 KernelAnalysis::num_prefetchable() const {
  u32 n = 0;
  for (const LoadAnalysis& l : loads)
    if (l.prefetchable()) ++n;
  return n;
}

namespace {

/// Signed affine offset (before wrap masking) for one lane.
i64 affine_offset(const AddressPattern& p, const Dim3& tid, const Dim3& cta,
                  u32 iter) {
  return p.c_tid_x * static_cast<i64>(tid.x) +
         p.c_tid_y * static_cast<i64>(tid.y) +
         p.c_cta_x * static_cast<i64>(cta.x) +
         p.c_cta_y * static_cast<i64>(cta.y) +
         p.c_iter * static_cast<i64>(iter);
}

/// Wrap the signed offset into [0, wrap_bytes). wrap_bytes is validated as
/// a power of two at kernel build time; two's-complement masking therefore
/// equals a Euclidean modulo, which is the semantics the IR documents.
u64 wrap_offset(const AddressPattern& p, i64 offset) {
  const u64 uoffset = static_cast<u64>(offset);
  return p.wrap_bytes == 0 ? uoffset : (uoffset & (p.wrap_bytes - 1));
}

/// Analyze one affine load by exact enumeration of every (cta, iteration,
/// warp) issue. Suite kernels stay well under ~10^5 warp issues, so exact
/// enumeration is cheap and avoids any sampling blind spot.
void analyze_affine(LoadAnalysis& la, const Dim3& grid, const Dim3& block,
                    u32 warps_per_cta, u32 line_size, u64 outer_mult) {
  const AddressPattern& p = la.pattern;
  const u32 threads = block.count();

  bool stride_known = false;
  bool uniform = true;          // one Δ across every comparable warp pair
  bool count_uniform = true;    // identical line count on every issue
  i64 delta = 0;                // the Δ candidate (per consecutive warps)
  u32 max_lines_seen = 0;
  u64 uncoalesced_issues = 0;
  bool wrap_engaged = false;
  bool wrap_hazard = false;

  std::vector<std::vector<Addr>> warp_lines(warps_per_cta);
  for (u32 cf = 0; cf < grid.count(); ++cf) {
    const Dim3 cta = unflatten(cf, grid);
    for (u32 iter = 0; iter < la.innermost_trip; ++iter) {
      // Does a wrap seam fall inside this CTA's lane offsets? Offsets are
      // monotone in neither tid.x nor tid.y in general, so test the actual
      // min/max signed offset over the CTA's lanes (cheap: reuse the lane
      // sweep below).
      i64 off_min = 0, off_max = 0;
      bool first_lane = true;
      for (u32 w = 0; w < warps_per_cta; ++w) {
        warp_lines[w].clear();
        const u32 first_thread = w * kWarpSize;
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          const u32 t = first_thread + lane;
          if (t >= threads) break;
          const Dim3 tid = unflatten(t, block);
          const i64 off = affine_offset(p, tid, cta, iter);
          if (first_lane || off < off_min) off_min = off;
          if (first_lane || off > off_max) off_max = off;
          first_lane = false;
          const Addr a = p.base + wrap_offset(p, off);
          const Addr line = line_base(a, line_size);
          if (std::find(warp_lines[w].begin(), warp_lines[w].end(), line) ==
              warp_lines[w].end())
            warp_lines[w].push_back(line);
        }
        std::sort(warp_lines[w].begin(), warp_lines[w].end());
        const u32 n = static_cast<u32>(warp_lines[w].size());
        if (max_lines_seen != 0 && n != max_lines_seen) count_uniform = false;
        max_lines_seen = std::max(max_lines_seen, n);
        if (n > CapsConfig::kMaxCoalescedLines)
          uncoalesced_issues += outer_mult;
      }
      if (p.wrap_bytes != 0) {
        if (off_min < 0 || off_max >= static_cast<i64>(p.wrap_bytes))
          wrap_engaged = true;
        // A seam inside this CTA: the offsets span a wrap boundary, so some
        // adjacent-warp pair wraps and its delta differs by ±wrap_bytes.
        const i64 w = static_cast<i64>(p.wrap_bytes);
        const i64 lo = off_min >= 0 ? off_min / w : (off_min - (w - 1)) / w;
        const i64 hi = off_max >= 0 ? off_max / w : (off_max - (w - 1)) / w;
        if (lo != hi) wrap_hazard = true;
      }
      // Consecutive-warp line deltas. Uniformity across every comparable
      // pair implies any (leading, trailing) pair CAP trains on yields the
      // same per-warp stride.
      for (u32 w = 0; w + 1 < warps_per_cta; ++w) {
        const auto& a = warp_lines[w];
        const auto& b = warp_lines[w + 1];
        if (a.empty() || b.empty()) continue;
        if (a.size() != b.size()) continue;  // not comparable (partial warp)
        for (std::size_t i = 0; i < a.size(); ++i) {
          const i64 d = static_cast<i64>(b[i]) - static_cast<i64>(a[i]);
          if (!stride_known) {
            delta = d;
            stride_known = true;
          } else if (d != delta) {
            uniform = false;
          }
        }
      }
    }
  }

  la.lines_per_warp = max_lines_seen;
  la.uniform_line_count = count_uniform;
  la.wrap_engaged = wrap_engaged;
  la.wrap_hazard = wrap_hazard;
  la.partial_tail_warp = threads % kWarpSize != 0;
  la.predicted_uncoalesced_issues = uncoalesced_issues;

  // Lane-0 byte stride between adjacent warps (reported for the Θ/Δ table;
  // line_stride below is what DIST learns).
  if (warps_per_cta > 1) {
    const Dim3 t0 = unflatten(0, block);
    const Dim3 t1 = unflatten(kWarpSize, block);
    la.warp_stride_bytes =
        affine_offset(p, t1, {0, 0}, 0) - affine_offset(p, t0, {0, 0}, 0);
  }

  if (max_lines_seen > CapsConfig::kMaxCoalescedLines) {
    la.cls = LoadClass::kUncoalesced;
  } else if (!stride_known || (!uniform && !wrap_hazard)) {
    // Non-uniform deltas with no wrap seam to blame: genuinely non-strided.
    // (A single-warp CTA never yields a comparable pair either: CAP can
    // never learn it, which kNonStrided conservatively models.)
    la.cls = LoadClass::kNonStrided;
  } else {
    // Uniform, or uniform except across wrap seams (then Δ is the seam-free
    // delta — CTA 0, iteration 0 — and wrap_hazard tells consumers that a
    // seam-straddling CTA trains/verifies against a wrapped delta instead).
    la.line_stride = delta;
    la.cls = delta == 0 ? LoadClass::kZeroStride : LoadClass::kCtaAffine;
  }

  la.theta_base = p.base;
  la.theta_cta_x = p.c_cta_x;
  la.theta_cta_y = p.c_cta_y;
}

}  // namespace

Addr affine_lane_address(const AddressPattern& p, const Dim3& tid,
                         const Dim3& cta, u32 iter) {
  return p.base + wrap_offset(p, affine_offset(p, tid, cta, iter));
}

std::vector<Addr> predicted_warp_lines(const AddressPattern& p,
                                       const Dim3& block, const Dim3& cta,
                                       u32 warp_in_cta, u32 iter,
                                       u32 line_size) {
  std::vector<Addr> lines;
  const u32 threads = block.count();
  const u32 first_thread = warp_in_cta * kWarpSize;
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    const u32 t = first_thread + lane;
    if (t >= threads) break;
    const Addr a = affine_lane_address(p, unflatten(t, block), cta, iter);
    const Addr line = line_base(a, line_size);
    if (std::find(lines.begin(), lines.end(), line) == lines.end())
      lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

KernelAnalysis analyze_kernel(const Kernel& k, const GpuConfig& cfg) {
  KernelAnalysis ka;
  ka.kernel = k.name();
  ka.grid = k.grid();
  ka.block = k.block();
  ka.warps_per_cta = k.warps_per_cta();
  ka.line_size = cfg.l1d.line_size;

  const u64 warp_issues_per_pc =
      static_cast<u64>(k.num_ctas()) * ka.warps_per_cta;

  for (u32 i = 0; i < k.instructions().size(); ++i) {
    const Instruction& ins = k.instruction(i);
    if (ins.op != Opcode::kMem || !ins.is_load) continue;

    LoadAnalysis la;
    la.instr_index = i;
    la.pc = ins.pc;
    la.pattern = ins.addr;
    la.in_loop = ins.loop != kNoLoop;
    la.loop_variant = la.in_loop && ins.addr.c_iter != 0;
    la.innermost_trip = la.in_loop ? k.instruction(ins.loop).trip_count : 1;
    la.trip_product = k.issues(i);
    la.dynamic_issues = warp_issues_per_pc * la.trip_product;

    if (ins.addr.indirect) {
      la.cls = LoadClass::kIndirect;
      ka.predicted_excluded_indirect += la.dynamic_issues;
    } else {
      // The enumeration in analyze_affine covers every (cta, innermost
      // iteration, warp) issue; outer-loop passes replay the same addresses,
      // so per-issue counts scale by the enclosing-trip product.
      const u64 outer_mult = la.trip_product / la.innermost_trip;
      analyze_affine(la, k.grid(), k.block(), ka.warps_per_cta, ka.line_size,
                     outer_mult);
      ka.predicted_excluded_uncoalesced += la.predicted_uncoalesced_issues;
    }
    ka.loads.push_back(la);
  }

  u32 prefetchable = 0, non_excluded = 0;
  for (const LoadAnalysis& l : ka.loads) {
    if (l.prefetchable()) ++prefetchable;
    if (!l.excluded()) ++non_excluded;
  }
  ka.predicted_dist_valid = std::min(prefetchable, cfg.caps.dist_entries);
  ka.predicted_percta_peak = std::min(non_excluded, cfg.caps.percta_entries);
  return ka;
}

}  // namespace caps::analysis
