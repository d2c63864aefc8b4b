// Fundamental types shared by every capsim subsystem.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>

namespace caps {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Byte address in the simulated global address space.
using Addr = u64;
/// Core clock cycle count.
using Cycle = u64;

/// A cycle that never comes: the wake time of a component that waits only
/// for events.
inline constexpr Cycle kNever = ~Cycle{0};

/// Number of threads in a warp (fixed by the modeled architecture).
inline constexpr u32 kWarpSize = 32;

/// Sentinel for "no warp" in warp-slot fields.
inline constexpr i32 kNoWarp = -1;

/// 3-component launch dimension (CUDA-style). z is carried for completeness
/// but the modeled kernels use x/y only.
struct Dim3 {
  u32 x = 1;
  u32 y = 1;
  u32 z = 1;

  constexpr u32 count() const { return x * y * z; }
  constexpr bool operator==(const Dim3&) const = default;
};

/// Linearize a 3D coordinate within an extent (x fastest).
constexpr u32 flatten(const Dim3& id, const Dim3& extent) {
  return id.x + extent.x * (id.y + extent.y * id.z);
}

/// Inverse of flatten().
constexpr Dim3 unflatten(u32 flat, const Dim3& extent) {
  Dim3 id;
  id.x = flat % extent.x;
  id.y = (flat / extent.x) % extent.y;
  id.z = flat / (extent.x * extent.y);
  return id;
}

/// Align an address down to its cache-line base.
constexpr Addr line_base(Addr addr, u32 line_size) {
  return addr & ~static_cast<Addr>(line_size - 1);
}

std::string format_dim3(const Dim3& d);

}  // namespace caps
