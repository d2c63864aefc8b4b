// Address generation for the kernel IR.
//
// The paper (Section IV) observes that GPU load addresses decompose into a
// CTA-specific base plus a thread-id stride:
//     addr = Theta(ctaid) + threadIdx * C3
// with Theta = C1 + C2*C3 computed per CTA. AffinePattern models exactly
// that algebra (plus a loop-iteration term for in-loop loads); indirect
// patterns model data-dependent accesses (graph workloads) by hashing.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"

namespace caps {

/// How a load/store computes per-lane byte addresses.
struct AddressPattern {
  /// Base address of the array touched by this access.
  Addr base = 0;

  // Affine coefficients, in bytes. For lane l of warp w in CTA c at loop
  // iteration i the address is:
  //   base + c_tid_x*tid.x + c_tid_y*tid.y + c_cta_x*ctaid.x + c_cta_y*ctaid.y
  //        + c_iter*i   (+ indirect hash, see below)
  i64 c_tid_x = 0;
  i64 c_tid_y = 0;
  i64 c_cta_x = 0;
  i64 c_cta_y = 0;
  i64 c_iter = 0;

  /// True for data-dependent accesses (e.g. g_graph_visited[id] in BFS).
  /// The affine part is ignored; addresses are hashed uniformly into
  /// [base, base + region_bytes).
  bool indirect = false;
  u64 region_bytes = 0;
  /// Seed mixed into indirect hashing so distinct loads differ.
  u64 seed = 0;
  /// Lanes per hash group: consecutive lanes inside a group access
  /// consecutive elements (a BFS node's edges are contiguous even though
  /// the node itself is random). 1 = fully scattered. Must be in
  /// [1, kWarpSize]; Kernel::finalize() rejects anything else.
  u32 indirect_group = 8;

  /// If nonzero, the affine offset wraps modulo this size: the array has a
  /// bounded footprint and far-apart CTAs re-touch the same lines (temporal
  /// reuse in L2, as real inputs of this size exhibit). Must be a power of
  /// two — evaluate() masks with wrap_bytes-1, which is only a modulo for
  /// powers of two; Kernel::finalize() rejects anything else.
  u64 wrap_bytes = 0;

  /// Compute the address for one lane. Patterns reaching this method have
  /// been validated by Kernel::finalize() (wrap_bytes power of two,
  /// indirect_group in [1, kWarpSize]).
  /// @param tid      thread index within the CTA (x/y)
  /// @param ctaid    CTA index within the grid (x/y)
  /// @param iter     innermost-loop iteration count at this execution
  /// @param gtid     globally unique flat thread id (for indirect hashing)
  Addr evaluate(const Dim3& tid, const Dim3& ctaid, u32 iter, u64 gtid) const {
    if (indirect)
      return indirect_base(gtid / indirect_group, iter) +
             indirect_lane_offset(gtid % indirect_group);
    const i64 offset = c_tid_x * static_cast<i64>(tid.x) +
                       c_tid_y * static_cast<i64>(tid.y) +
                       c_cta_x * static_cast<i64>(ctaid.x) +
                       c_cta_y * static_cast<i64>(ctaid.y) +
                       c_iter * static_cast<i64>(iter);
    u64 uoffset = static_cast<u64>(offset);
    if (wrap_bytes != 0) uoffset &= (wrap_bytes - 1);
    return base + uoffset;
  }

  /// Indirect addressing split at the hash: every lane of hash group
  /// `group` (gtid / indirect_group) reads indirect_base(group, iter) plus
  /// the offset of its place in the group (gtid % indirect_group).
  Addr indirect_base(u64 group, u32 iter) const {
    return region_bytes == 0
               ? base
               : base + hash_combine(seed, group, iter) % region_bytes;
  }
  u64 indirect_lane_offset(u64 in_group) const {
    return region_bytes == 0 ? 0 : in_group * 4;
  }
};

/// Convenience factory: the canonical "array[flat_tid]" pattern of width
/// `elem_bytes`, for a 1-D block of `block_x` threads.
AddressPattern linear_pattern(Addr base, u32 elem_bytes, u32 block_x);

/// Convenience factory: uniform-random accesses into a region.
AddressPattern indirect_pattern(Addr base, u64 region_bytes, u64 seed);

}  // namespace caps
