// Build a custom kernel with the IR builder API and compare warp
// schedulers on it. Shows the workflow a user follows to model their own
// workload: describe the launch geometry, the per-thread address algebra
// (Section IV: theta = C1 + C2*C3 per CTA plus a threadIdx stride), and the
// compute between loads — then sweep policies.
#include <cstdio>
#include <string>

#include "harness/experiment.hpp"
#include "isa/kernel.hpp"

using namespace caps;

int main() {
  // A 2D 5-point stencil: block (32,4), each CTA owns a 32x4 tile.
  const Dim3 block{32, 4, 1};
  const Dim3 grid{16, 16, 1};
  const i64 pitch = 4 * 32 * grid.x;

  auto tap = [&](i64 offset) {
    AddressPattern p;
    p.base = 0x1000'0000 + static_cast<Addr>(8192 + offset);
    p.c_tid_x = 4;          // threadIdx.x * 4B   (the C3 stride)
    p.c_tid_y = pitch;      // threadIdx.y * pitch
    p.c_cta_x = 4 * 32;     // blockIdx.x * BLOCK_X * 4B   (CTA base: C2*C3)
    p.c_cta_y = pitch * 4;  // blockIdx.y * BLOCK_Y * pitch
    p.wrap_bytes = 1 << 20;
    return p;
  };

  KernelBuilder b("stencil5", grid, block);
  b.loop(8);
  b.load(tap(0), /*consume=*/false);
  b.load(tap(4), /*consume=*/false);
  b.load(tap(-4), /*consume=*/false);
  b.load(tap(pitch), /*consume=*/false);
  b.wait_mem();                    // first consumer of the loads
  b.alu(8, /*dep_next=*/true);     // dependent FLOP chain
  AddressPattern out = tap(0);
  out.base = 0x3000'0000;
  b.store(out);
  b.end_loop();
  const Kernel k = b.build();

  std::printf("custom kernel '%s': %u CTAs x %u warps, %llu warp-instrs "
              "per warp\n\n", k.name().c_str(), k.num_ctas(),
              k.warps_per_cta(),
              static_cast<unsigned long long>(k.dynamic_warp_instructions()));

  std::printf("%-24s %10s %8s %10s\n", "configuration", "cycles", "IPC",
              "L1 miss");
  bool all_ok = true;
  for (auto [label, sched, pf] :
       {std::tuple{"LRR", SchedulerKind::kLrr, PrefetcherKind::kNone},
        std::tuple{"GTO", SchedulerKind::kGto, PrefetcherKind::kNone},
        std::tuple{"two-level", SchedulerKind::kTwoLevel, PrefetcherKind::kNone},
        std::tuple{"two-level + CAPS", SchedulerKind::kTwoLevel, PrefetcherKind::kCaps},
        std::tuple{"PAS + CAPS", SchedulerKind::kPas, PrefetcherKind::kCaps}}) {
    GpuConfig cfg;
    SmPolicyFactories pol = make_policies(pf, sched, true);
    GpuStats s;
    std::string error;
    try {
      Gpu gpu(cfg, k, pol);
      s = gpu.run();
      if (!s.audit_clean()) error = s.audit_violations.front();
      else if (s.hit_cycle_limit) error = "cut off at max_cycles";
    } catch (...) {
      error = current_run_fault().error;
    }
    if (!error.empty()) {
      std::fprintf(stderr, "%s: run failed: %s\n", label, error.c_str());
      all_ok = false;
      continue;
    }
    std::printf("%-24s %10llu %8.1f %9.1f%%\n", label,
                static_cast<unsigned long long>(s.cycles), s.ipc(),
                100.0 * s.l1_miss_rate());
  }
  return all_ok ? 0 : 1;
}
