#include "isa/kernel.hpp"

#include <bit>
#include <stdexcept>
#include <utility>
#include <vector>

namespace caps {

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::kAlu: return "ALU";
    case Opcode::kSfu: return "SFU";
    case Opcode::kMem: return "MEM";
    case Opcode::kShared: return "SHMEM";
    case Opcode::kBarrier: return "BAR";
    case Opcode::kLoopBegin: return "LOOP";
    case Opcode::kLoopEnd: return "ENDLOOP";
    case Opcode::kExit: return "EXIT";
  }
  return "?";
}

Kernel::Kernel(std::string name, Dim3 grid, Dim3 block,
               std::vector<Instruction> instrs)
    : name_(std::move(name)), grid_(grid), block_(block),
      instrs_(std::move(instrs)) {
  finalize();
}

void Kernel::finalize() {
  if (grid_.count() == 0) throw std::invalid_argument("kernel: empty grid");
  if (block_.count() == 0 || block_.count() > 1024)
    throw std::invalid_argument("kernel: block size out of range");
  if (instrs_.empty() || instrs_.back().op != Opcode::kExit)
    throw std::invalid_argument("kernel: must end with EXIT");

  // Resolve the loop nest (each instruction's innermost loop and the
  // begin/end matches) and assign synthetic PCs.
  std::vector<u32> stack;
  for (u32 i = 0; i < instrs_.size(); ++i) {
    Instruction& ins = instrs_[i];
    ins.loop = stack.empty() ? kNoLoop : stack.back();
    ins.pc = static_cast<Addr>(i) * 8;
    switch (ins.op) {
      case Opcode::kLoopBegin:
        if (ins.trip_count == 0)
          throw std::invalid_argument("kernel: loop trip count must be >= 1");
        if (stack.size() == kMaxLoopDepth)
          throw std::invalid_argument(
              "kernel: loops nest deeper than kMaxLoopDepth");
        stack.push_back(i);
        break;
      case Opcode::kLoopEnd: {
        if (stack.empty())
          throw std::invalid_argument("kernel: unmatched ENDLOOP");
        const u32 begin = stack.back();
        stack.pop_back();
        instrs_[begin].match = i;
        ins.match = begin;
        break;
      }
      case Opcode::kMem: {
        // AddressPattern invariants are enforced here, once, at build time,
        // so evaluate() on the hot path never has to patch bad fields.
        const AddressPattern& p = ins.addr;
        if (p.wrap_bytes != 0 && !std::has_single_bit(p.wrap_bytes))
          throw std::invalid_argument(
              "kernel: wrap_bytes must be a power of two (evaluate() wraps "
              "by masking with wrap_bytes-1)");
        if (p.indirect &&
            (p.indirect_group == 0 || p.indirect_group > kWarpSize))
          throw std::invalid_argument(
              "kernel: indirect_group must be in [1, warp size]");
        break;
      }
      case Opcode::kShared:
        // A shared op always costs the SM two cycles: it has no latency.
        if (ins.dep_next || ins.latency != 0)
          throw std::invalid_argument(
              "kernel: a shared op takes no dep_next or latency");
        break;
      case Opcode::kAlu:
      case Opcode::kSfu:
      case Opcode::kBarrier:
      case Opcode::kExit:
        break;
    }
  }
  if (!stack.empty()) throw std::invalid_argument("kernel: unclosed LOOP");
}

u64 Kernel::issues(u32 idx) const {
  u64 n = 1;
  for (u32 l = instrs_[idx].loop; l != kNoLoop; l = instrs_[l].loop)
    n *= instrs_[l].trip_count;
  return n;
}

u64 Kernel::dynamic_warp_instructions() const {
  u64 count = 0;
  for (u32 i = 0; i < instrs_.size(); ++i) count += issues(i);
  return count;
}

u32 Kernel::num_global_loads() const {
  u32 n = 0;
  for (const Instruction& ins : instrs_)
    if (ins.op == Opcode::kMem && ins.is_load) ++n;
  return n;
}

KernelBuilder::KernelBuilder(std::string name, Dim3 grid, Dim3 block)
    : name_(std::move(name)), grid_(grid), block_(block) {}

KernelBuilder& KernelBuilder::alu(u32 count, bool dep_next, u32 latency) {
  for (u32 i = 0; i < count; ++i) {
    Instruction ins;
    ins.op = Opcode::kAlu;
    ins.latency = latency;
    ins.dep_next = (i + 1 == count) ? dep_next : false;
    instrs_.push_back(ins);
  }
  return *this;
}

KernelBuilder& KernelBuilder::sfu(u32 count, bool dep_next) {
  for (u32 i = 0; i < count; ++i) {
    Instruction ins;
    ins.op = Opcode::kSfu;
    ins.dep_next = (i + 1 == count) ? dep_next : false;
    instrs_.push_back(ins);
  }
  return *this;
}

KernelBuilder& KernelBuilder::load(const AddressPattern& p, bool consume) {
  Instruction ld;
  ld.op = Opcode::kMem;
  ld.is_load = true;
  ld.addr = p;
  instrs_.push_back(ld);
  if (consume) {
    Instruction use;
    use.op = Opcode::kAlu;
    use.waits_mem = true;
    instrs_.push_back(use);
  }
  return *this;
}

KernelBuilder& KernelBuilder::store(const AddressPattern& p) {
  Instruction st;
  st.op = Opcode::kMem;
  st.is_load = false;
  st.addr = p;
  instrs_.push_back(st);
  return *this;
}

KernelBuilder& KernelBuilder::shared_op(u32 count) {
  for (u32 i = 0; i < count; ++i) {
    Instruction ins;
    ins.op = Opcode::kShared;
    instrs_.push_back(ins);
  }
  return *this;
}

KernelBuilder& KernelBuilder::barrier() {
  Instruction ins;
  ins.op = Opcode::kBarrier;
  instrs_.push_back(ins);
  return *this;
}

KernelBuilder& KernelBuilder::loop(u32 trip_count) {
  Instruction ins;
  ins.op = Opcode::kLoopBegin;
  ins.trip_count = trip_count;
  loop_stack_.push_back(static_cast<u32>(instrs_.size()));
  instrs_.push_back(ins);
  return *this;
}

KernelBuilder& KernelBuilder::end_loop() {
  if (loop_stack_.empty())
    throw std::logic_error("KernelBuilder: end_loop without loop");
  loop_stack_.pop_back();
  Instruction ins;
  ins.op = Opcode::kLoopEnd;
  instrs_.push_back(ins);
  return *this;
}

KernelBuilder& KernelBuilder::wait_mem() {
  Instruction ins;
  ins.op = Opcode::kAlu;
  ins.waits_mem = true;
  instrs_.push_back(ins);
  return *this;
}

Kernel KernelBuilder::build() {
  if (!loop_stack_.empty())
    throw std::logic_error("KernelBuilder: unclosed loop at build()");
  Instruction exit;
  exit.op = Opcode::kExit;
  instrs_.push_back(exit);
  return Kernel(name_, grid_, block_, std::move(instrs_));
}

}  // namespace caps
