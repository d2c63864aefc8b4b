// CNV, HST, SCN and MM: the CUDA SDK [5] benchmarks of Table IV.
#include "workloads/builders.hpp"

namespace caps::workloads {

// convolutionSeparable: ten one-shot, perfectly strided tap loads per
// thread with little compute behind them — the most memory-bound regular
// kernel here and the paper's best case for CAPS (+27%, Fig. 10).
Workload make_cnv() {
  const Dim3 block{16, 8, 1};
  const Dim3 grid{16, 14, 1};
  const i64 pitch = 4 * 16 * grid.x;  // 1024B: line-aligned rows

  // Direct (register-blocked) form of the SDK kernel: each thread loads its
  // main pixel plus left/right halo and filters in registers — no barrier,
  // so every warp's progress is independent and trailing-warp prefetches
  // shorten the CTA tail. Three load PCs (fits the 4-entry PerCTA table),
  // all perfectly warp-strided; the image tile is L2-resident.
  auto image = [&](i64 halo) {
    AddressPattern p{};
    p.base = arr(0) + static_cast<Addr>(4096 + halo);
    p.c_tid_x = 4;
    p.c_tid_y = pitch;
    p.c_cta_x = 4 * 16;
    p.c_cta_y = pitch * 8;
    p.wrap_bytes = kTiny;
    return p;
  };

  // The SDK kernel is unrolled over RESULT_STEPS row groups per thread; we
  // express the steps as a short counted loop advancing one row group per
  // iteration (c_iter = 8 rows).
  auto stepped = [&](i64 halo) {
    AddressPattern p = image(halo);
    p.c_iter = pitch * 8;
    return p;
  };

  KernelBuilder b("cnv", grid, block);
  b.alu(2);
  b.loop(6);
  b.load(stepped(0), /*consume=*/false);     // main pixel
  b.load(stepped(-512), /*consume=*/false);  // left halo
  b.load(stepped(512), /*consume=*/false);   // right halo
  b.wait_mem();
  // Row + column filter passes: 10 MACs each, dependent chains.
  b.alu(14, /*dep_next=*/true);
  b.alu(12, /*dep_next=*/true);
  b.alu(10, /*dep_next=*/true);
  AddressPattern out{};
  out.base = arr(1);
  out.c_tid_x = 4;
  out.c_tid_y = pitch;
  out.c_cta_x = 4 * 16;
  out.c_cta_y = pitch * 8;
  out.c_iter = pitch * 8;
  out.wrap_bytes = kTiny;
  b.store(out);
  b.end_loop();

  Workload w{"CNV", "convolutionSeparable", "CUDA SDK", false, b.build()};
  w.paper_repeated_loads = 0;
  w.paper_total_loads = 10;
  w.paper_avg_iterations = 1;
  return w;
}

// histogram: one load striding through the input inside a loop (each thread
// walks the data with a grid-wide stride), bins accumulated in shared
// memory. Fig. 4: 1 repeated / 1 total load, ~33 iterations.
Workload make_hst() {
  const Dim3 block{256, 1, 1};
  const Dim3 grid{60, 1, 1};
  const i64 grid_stride = 4 * 256 * grid.x;  // all threads advance together

  AddressPattern data = linear_pattern(arr(0), 4, block.x);
  data.c_iter = grid_stride;
  data.wrap_bytes = kMedium;

  KernelBuilder b("hst", grid, block);
  b.alu(2);
  b.loop(33);
  b.load(data);
  b.shared_op(2);  // atomic bin update
  b.alu(4, /*dep_next=*/true);
  b.alu(3, /*dep_next=*/true);
  b.end_loop();
  b.barrier();
  b.shared_op(4);  // merge per-block histogram
  AddressPattern bins = linear_pattern(arr(1), 4, block.x);
  b.store(bins);

  Workload w{"HST", "histogram", "CUDA SDK", false, b.build()};
  w.paper_repeated_loads = 1;
  w.paper_total_loads = 1;
  w.paper_avg_iterations = 33;
  return w;
}

// scan: one strided load, then a barrier-heavy shared-memory tree sweep.
// Fig. 4: 0 repeated / 1 total load.
Workload make_scn() {
  const Dim3 block{256, 1, 1};
  const Dim3 grid{24, 20, 1};

  AddressPattern in = linear_pattern(arr(0), 4, block.x);
  in.wrap_bytes = kSmall;
  AddressPattern out = linear_pattern(arr(1), 4, block.x);

  KernelBuilder b("scn", grid, block);
  b.load(in);
  b.shared_op(2);
  b.barrier();
  b.shared_op(3);
  b.alu(3, /*dep_next=*/true);
  b.barrier();
  b.shared_op(3);
  b.alu(2);
  b.barrier();
  b.store(out);

  Workload w{"SCN", "scan", "CUDA SDK", false, b.build()};
  w.paper_repeated_loads = 0;
  w.paper_total_loads = 1;
  w.paper_avg_iterations = 1;
  return w;
}

// matrixMul: the Fig. 1 subject. 8 warps per CTA (32x8 blocks); both loads
// live in the tile loop, separated by barriers. Fig. 4: 2 repeated / 2
// total loads.
Workload make_mm() {
  const Dim3 block{32, 8, 1};
  const Dim3 grid{12, 12, 1};
  const i64 pitch_a = 4 * 32 * grid.x;  // row length of A (and C)
  const i64 tile = 32;

  AddressPattern a_tile{};  // A[ty][k*TILE + tx]
  a_tile.base = arr(0);
  a_tile.wrap_bytes = kMedium;
  a_tile.c_tid_x = 4;
  a_tile.c_tid_y = pitch_a;
  a_tile.c_cta_y = pitch_a * 8;
  a_tile.c_iter = tile * 4;

  AddressPattern b_tile{};  // B[k*TILE + ty][bx*TILE + tx]
  b_tile.base = arr(1);
  b_tile.wrap_bytes = kMedium;
  b_tile.c_tid_x = 4;
  b_tile.c_tid_y = pitch_a;
  b_tile.c_cta_x = 4 * 32;
  b_tile.c_iter = tile * pitch_a;

  AddressPattern c_out{};
  c_out.base = arr(2);
  c_out.c_tid_x = 4;
  c_out.c_tid_y = pitch_a;
  c_out.c_cta_x = 4 * 32;
  c_out.c_cta_y = pitch_a * 8;

  KernelBuilder b("mm", grid, block);
  b.alu(2);
  b.loop(8);
  b.load(a_tile, /*consume=*/false);
  b.load(b_tile, /*consume=*/false);
  b.wait_mem();
  b.barrier();
  b.shared_op(4);
  b.alu(16, /*dep_next=*/true);
  b.barrier();
  b.end_loop();
  b.store(c_out);

  Workload w{"MM", "MatrixMul", "CUDA SDK", false, b.build()};
  w.paper_repeated_loads = 2;
  w.paper_total_loads = 2;
  w.paper_avg_iterations = 8;
  return w;
}

}  // namespace caps::workloads
