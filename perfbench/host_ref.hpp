// Host-speed reference of the CAPSim benchmark.
//
// Shared hosts drift in speed by up to 2x within seconds to minutes, as
// neighbours contend for the last-level cache, memory bandwidth and cores.
// A fixed piece of host work, timed on the worker right before every
// simulation, measures that speed, and run.py scales a sweep's host times by
// kReferenceNominalS / (the references' mean time over the sweep). The work mixes what
// the simulator's host time is sensitive to: dependent random reads of a
// 4 MiB table (cache and memory contention) and a binary heap with
// data-dependent branches (core contention). It shares no
// code with the simulator, so a change to the simulator moves simulation
// times and never the reference.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace caps::perfbench {

/// Reference seconds that count as nominal host speed: about the
/// reference's median time on a shared 4-vCPU 2.0 GHz x86-64 host, so scaled
/// times read as seconds on such a host.
constexpr double kReferenceNominalS = 0.024;

/// Resident size of the reference's table, which the benchmark subtracts
/// from the process's peak resident memory.
constexpr std::size_t kReferenceTableKiB = 4096;

namespace detail {

/// The 4 MiB table, built once per process and only read afterwards, so
/// workers share it without coherence traffic.
inline const std::vector<std::uint32_t>& reference_table() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kReferenceTableKiB * 1024 / 4);
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    return t;
  }();
  return table;
}

/// Per-thread state: a small scratch table and the heap's buffer.
struct ReferenceState {
  std::vector<std::uint32_t> scratch = std::vector<std::uint32_t>(16384);
  std::vector<std::uint64_t> heap;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;

  ReferenceState() { heap.reserve(4096); }

  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

inline volatile std::uint64_t reference_sink = 0;

}  // namespace detail

/// Host seconds of one fixed piece of reference work on this thread. The
/// first call in a process builds the shared table, and the first on a
/// thread its state, outside the timed span.
inline double reference_seconds() {
  constexpr std::uint64_t kTableSteps = 150000;
  constexpr std::uint64_t kHeapSteps = 60000;
  const std::vector<std::uint32_t>& table = detail::reference_table();
  thread_local detail::ReferenceState s;
  const auto t0 = std::chrono::steady_clock::now();

  const std::size_t mask = table.size() - 1;
  for (std::uint64_t i = 0; i < kTableSteps; ++i) {
    const std::uint64_t r = s.next();
    s.acc += table[(r ^ s.acc) & mask] + r % 7;
  }

  std::vector<std::uint64_t>& h = s.heap;
  const auto later = std::greater<std::uint64_t>{};
  h.clear();
  for (int i = 0; i < 4096; ++i) {
    h.push_back(s.next() & 0xffffff);
    std::push_heap(h.begin(), h.end(), later);
  }
  const std::size_t smask = s.scratch.size() - 1;
  for (std::uint64_t i = 0; i < kHeapSteps; ++i) {
    std::pop_heap(h.begin(), h.end(), later);
    const std::uint64_t t = h.back();
    const std::uint64_t r = s.next();
    switch (r & 3) {
      case 0: s.acc += t; break;
      case 1: s.acc ^= s.scratch[t & smask]; break;
      case 2: s.scratch[r & smask] += static_cast<std::uint32_t>(s.acc); break;
      default: s.acc = s.acc * 31 + 1;
    }
    h.back() = t + (r & 1023) + 1;
    std::push_heap(h.begin(), h.end(), later);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  detail::reference_sink = s.acc;
  return seconds;
}

}  // namespace caps::perfbench
