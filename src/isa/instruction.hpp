// The kernel IR instruction set.
//
// Kernels are straight-line instruction sequences with structured loops and
// CTA-wide barriers — enough to reproduce the control/data behaviour of the
// paper's 16 benchmarks while keeping execution deterministic.
#pragma once

#include "common/types.hpp"
#include "isa/address_pattern.hpp"

namespace caps {

enum class Opcode : u8 {
  kAlu,        ///< integer/fp pipeline op
  kSfu,        ///< special-function op (longer latency)
  kMem,        ///< global memory load/store (see is_load)
  kShared,     ///< shared-memory access (fixed latency, no L1 traffic)
  kBarrier,    ///< CTA-wide barrier (__syncthreads)
  kLoopBegin,  ///< begin counted loop (trip_count iterations)
  kLoopEnd,    ///< jump back to matching kLoopBegin
  kExit,       ///< thread-block program end
};

const char* to_string(Opcode op);

/// Instruction::loop of an instruction outside every loop.
inline constexpr u32 kNoLoop = ~u32{0};

/// The deepest loop nest a kernel may have: each warp keeps one iteration
/// counter per open loop (WarpContext::loops). The suite's kernels nest
/// one loop and its tests two; Kernel::finalize rejects a deeper nest.
inline constexpr u32 kMaxLoopDepth = 2;

struct Instruction {
  Opcode op = Opcode::kAlu;

  /// Result latency in core cycles (ALU/SFU). 0 = use config default.
  u32 latency = 0;

  /// If true the warp may not issue this instruction while it still has
  /// outstanding global loads — this is how data dependence on loads is
  /// expressed (scoreboard-lite).
  bool waits_mem = false;

  /// If true the *next* instruction depends on this one's result, so the
  /// warp stalls for `latency` cycles instead of a single issue cycle.
  bool dep_next = false;

  // --- kMem fields ---
  bool is_load = true;
  /// Every op (declared here to fill padding): index of the innermost
  /// kLoopBegin whose body issues this instruction in every iteration, or
  /// kNoLoop. A kLoopEnd belongs to its own loop, a kLoopBegin to the
  /// enclosing one. Resolved by Kernel::finalize().
  u32 loop = kNoLoop;
  AddressPattern addr{};

  // --- kLoopBegin fields ---
  u32 trip_count = 0;
  /// Instruction index of the matching kLoopEnd / kLoopBegin; resolved by
  /// Kernel::finalize().
  u32 match = 0;

  /// Synthetic PC: byte address of this instruction (index*8). Assigned by
  /// Kernel::finalize(); prefetchers key their tables on it.
  Addr pc = 0;
};

}  // namespace caps
