// Kernel description: launch geometry plus the IR instruction sequence.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace caps {

/// A validated, launch-ready kernel. Build with KernelBuilder.
class Kernel {
 public:
  Kernel(std::string name, Dim3 grid, Dim3 block,
         std::vector<Instruction> instrs);

  const std::string& name() const { return name_; }
  const Dim3& grid() const { return grid_; }
  const Dim3& block() const { return block_; }
  const std::vector<Instruction>& instructions() const { return instrs_; }
  const Instruction& instruction(u32 idx) const { return instrs_[idx]; }

  u32 num_ctas() const { return grid_.count(); }
  u32 threads_per_cta() const { return block_.count(); }
  u32 warps_per_cta() const {
    return (threads_per_cta() + kWarpSize - 1) / kWarpSize;
  }

  /// Times one warp issues instruction `idx`: the product of the trip
  /// counts up its Instruction::loop chain.
  u64 issues(u32 idx) const;

  /// Dynamic warp-instruction count for one warp executing this kernel
  /// (loops expanded): the sum of issues() over every instruction. Useful
  /// for sizing runs and IPC sanity checks.
  u64 dynamic_warp_instructions() const;

  /// Static number of global-load instructions.
  u32 num_global_loads() const;

 private:
  void finalize();  ///< resolves the loop nest, assigns PCs, validates

  std::string name_;
  Dim3 grid_;
  Dim3 block_;
  std::vector<Instruction> instrs_;
};

/// Fluent builder for kernel IR. Example (the LPS-like pattern of Fig. 6a):
///
///   KernelBuilder b("lps", /*grid=*/{32, 32}, /*block=*/{32, 4});
///   b.alu(2);
///   b.loop(99);
///     b.load(pattern_u, /*dep=*/true).alu(6, /*dep_next=*/false);
///   b.end_loop();
///   b.store(pattern_out);
///   Kernel k = b.build();
class KernelBuilder {
 public:
  KernelBuilder(std::string name, Dim3 grid, Dim3 block);

  /// `count` back-to-back ALU ops; the last one optionally feeds the next
  /// instruction (dep_next).
  KernelBuilder& alu(u32 count = 1, bool dep_next = false, u32 latency = 0);
  KernelBuilder& sfu(u32 count = 1, bool dep_next = false);
  /// Global load. waits_mem marks the first *consumer*: pass
  /// consume=true to emit a dependent ALU right after the load.
  KernelBuilder& load(const AddressPattern& p, bool consume = true);
  KernelBuilder& store(const AddressPattern& p);
  KernelBuilder& shared_op(u32 count = 1);
  KernelBuilder& barrier();
  KernelBuilder& loop(u32 trip_count);
  KernelBuilder& end_loop();
  /// Explicit stall-until-loads-drain without a consuming ALU.
  KernelBuilder& wait_mem();

  Kernel build();

 private:
  std::string name_;
  Dim3 grid_;
  Dim3 block_;
  std::vector<Instruction> instrs_;
  std::vector<u32> loop_stack_;
};

}  // namespace caps
