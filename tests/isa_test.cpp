// Unit tests for the kernel IR: address patterns, builder, validation.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "isa/address_pattern.hpp"
#include "isa/kernel.hpp"

namespace caps {
namespace {

TEST(AddressPatternTest, AffineEvaluation) {
  AddressPattern p;
  p.base = 0x1000;
  p.c_tid_x = 4;
  p.c_tid_y = 256;
  p.c_cta_x = 1024;
  p.c_cta_y = 8192;
  p.c_iter = 65536;
  EXPECT_EQ(p.evaluate({0, 0}, {0, 0}, 0, 0), 0x1000u);
  EXPECT_EQ(p.evaluate({3, 0}, {0, 0}, 0, 0), 0x1000u + 12);
  EXPECT_EQ(p.evaluate({0, 2}, {0, 0}, 0, 0), 0x1000u + 512);
  EXPECT_EQ(p.evaluate({0, 0}, {2, 1}, 0, 0), 0x1000u + 2048 + 8192);
  EXPECT_EQ(p.evaluate({0, 0}, {0, 0}, 3, 0), 0x1000u + 3 * 65536);
}

TEST(AddressPatternTest, NegativeCoefficients) {
  AddressPattern p;
  p.base = 0x10000;
  p.c_tid_x = -4;
  EXPECT_EQ(p.evaluate({4, 0}, {0, 0}, 0, 0), 0x10000u - 16);
}

TEST(AddressPatternTest, WrapBoundsFootprint) {
  AddressPattern p;
  p.base = 0x4000'0000;
  p.c_tid_x = 4;
  p.c_cta_x = 1 << 20;
  p.wrap_bytes = 1 << 16;  // 64 KB
  for (u32 cta = 0; cta < 64; ++cta) {
    const Addr a = p.evaluate({7, 0}, {cta, 0}, 0, 0);
    EXPECT_GE(a, p.base);
    EXPECT_LT(a, p.base + p.wrap_bytes);
  }
}

TEST(AddressPatternTest, WrapPreservesInWindowStride) {
  AddressPattern p;
  p.base = 0x1000;
  p.c_tid_y = 128;
  p.wrap_bytes = 1 << 20;
  const Addr a0 = p.evaluate({0, 0}, {0, 0}, 0, 0);
  const Addr a1 = p.evaluate({0, 1}, {0, 0}, 0, 0);
  EXPECT_EQ(a1 - a0, 128u);
}

TEST(AddressPatternTest, IndirectStaysInRegion) {
  AddressPattern p = indirect_pattern(0x2000'0000, 1 << 20, /*seed=*/7);
  for (u64 gtid = 0; gtid < 256; ++gtid) {
    const Addr a = p.evaluate({0, 0}, {0, 0}, 0, gtid);
    EXPECT_GE(a, 0x2000'0000u);
    EXPECT_LT(a, 0x2000'0000u + (1 << 20) + 4 * p.indirect_group);
  }
}

TEST(AddressPatternTest, IndirectIsDeterministic) {
  AddressPattern p = indirect_pattern(0x2000'0000, 1 << 20, 7);
  EXPECT_EQ(p.evaluate({0, 0}, {0, 0}, 3, 42), p.evaluate({0, 0}, {0, 0}, 3, 42));
  EXPECT_NE(p.evaluate({0, 0}, {0, 0}, 3, 42), p.evaluate({0, 0}, {0, 0}, 4, 42));
}

TEST(AddressPatternTest, IndirectGroupsLanesContiguously) {
  AddressPattern p = indirect_pattern(0x2000'0000, 1 << 20, 7);
  p.indirect_group = 8;
  // Lanes 0..7 share a hash group: consecutive 4-byte elements.
  const Addr a0 = p.evaluate({0, 0}, {0, 0}, 0, 0);
  for (u64 lane = 1; lane < 8; ++lane)
    EXPECT_EQ(p.evaluate({0, 0}, {0, 0}, 0, lane), a0 + lane * 4);
  // Lane 8 starts a new group.
  EXPECT_NE(p.evaluate({0, 0}, {0, 0}, 0, 8), a0 + 32);
}

TEST(AddressPatternTest, DifferentSeedsDiffer) {
  AddressPattern a = indirect_pattern(0, 1 << 20, 1);
  AddressPattern b = indirect_pattern(0, 1 << 20, 2);
  EXPECT_NE(a.evaluate({0, 0}, {0, 0}, 0, 0), b.evaluate({0, 0}, {0, 0}, 0, 0));
}

TEST(LinearPatternTest, MatchesFlatThreadIndexing) {
  // array[flat_tid] for a 1-D block: lane stride = elem, warp stride =
  // elem * 32 via c_tid_y... for 1-D blocks tid.y is always 0, so the warp
  // stride comes from tid.x spanning the block.
  AddressPattern p = linear_pattern(0x1000, 4, 256);
  EXPECT_EQ(p.evaluate({1, 0}, {0, 0}, 0, 0) - p.evaluate({0, 0}, {0, 0}, 0, 0), 4u);
  EXPECT_EQ(p.evaluate({0, 0}, {1, 0}, 0, 0) - p.evaluate({0, 0}, {0, 0}, 0, 0),
            4u * 256);
}

TEST(KernelBuilderTest, BuildsValidKernel) {
  KernelBuilder b("k", {4, 4}, {32, 2});
  b.alu(2);
  b.load(linear_pattern(0x1000, 4, 64));
  Kernel k = b.build();
  EXPECT_EQ(k.name(), "k");
  EXPECT_EQ(k.num_ctas(), 16u);
  EXPECT_EQ(k.threads_per_cta(), 64u);
  EXPECT_EQ(k.warps_per_cta(), 2u);
  EXPECT_EQ(k.instructions().back().op, Opcode::kExit);
}

TEST(KernelBuilderTest, LoadEmitsConsumer) {
  KernelBuilder b("k", {1}, {32});
  b.load(linear_pattern(0, 4, 32), /*consume=*/true);
  Kernel k = b.build();
  // load + waiting ALU + exit
  ASSERT_EQ(k.instructions().size(), 3u);
  EXPECT_EQ(k.instructions()[0].op, Opcode::kMem);
  EXPECT_TRUE(k.instructions()[1].waits_mem);
}

TEST(KernelBuilderTest, LoopMatchingResolved) {
  KernelBuilder b("k", {1}, {32});
  b.loop(5);
  b.alu(1);
  b.loop(3);
  b.alu(1);
  b.end_loop();
  b.end_loop();
  Kernel k = b.build();
  const auto& ins = k.instructions();
  ASSERT_EQ(ins[0].op, Opcode::kLoopBegin);
  EXPECT_EQ(ins[ins[0].match].op, Opcode::kLoopEnd);
  EXPECT_EQ(ins[ins[0].match].match, 0u);
  ASSERT_EQ(ins[2].op, Opcode::kLoopBegin);
  EXPECT_EQ(ins[2].match, 4u);
  // The nest: a LOOP sits in the enclosing loop, an ENDLOOP in its own.
  // Fatal, since issues() walks these links.
  ASSERT_EQ(ins[0].loop, kNoLoop);
  ASSERT_EQ(ins[1].loop, 0u);
  ASSERT_EQ(ins[2].loop, 0u);
  ASSERT_EQ(ins[3].loop, 2u);
  ASSERT_EQ(ins[4].loop, 2u);
  ASSERT_EQ(ins[5].loop, 0u);
  ASSERT_EQ(ins[6].loop, kNoLoop);
  EXPECT_EQ(k.issues(0), 1u);
  EXPECT_EQ(k.issues(2), 5u);
  EXPECT_EQ(k.issues(3), 15u);  // inner body: 5 x 3
  EXPECT_EQ(k.issues(4), 15u);
  EXPECT_EQ(k.issues(5), 5u);
  EXPECT_EQ(k.issues(6), 1u);
}

TEST(KernelBuilderTest, UnclosedLoopThrows) {
  KernelBuilder b("k", {1}, {32});
  b.loop(2);
  EXPECT_THROW(b.build(), std::logic_error);
}

TEST(KernelBuilderTest, UnmatchedEndLoopThrows) {
  KernelBuilder b("k", {1}, {32});
  EXPECT_THROW(b.end_loop(), std::logic_error);
}

TEST(KernelBuilderTest, NestDeeperThanMaxLoopDepthThrows) {
  KernelBuilder b("k", {1}, {32});
  for (u32 d = 0; d <= kMaxLoopDepth; ++d) b.loop(2);
  for (u32 d = 0; d <= kMaxLoopDepth; ++d) b.end_loop();
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(KernelBuilderTest, PcsAreUniqueAndOrdered) {
  KernelBuilder b("k", {1}, {32});
  b.alu(3);
  b.load(linear_pattern(0, 4, 32));
  Kernel k = b.build();
  std::set<Addr> pcs;
  Addr prev = 0;
  for (const Instruction& ins : k.instructions()) {
    EXPECT_TRUE(pcs.insert(ins.pc).second);
    EXPECT_GE(ins.pc, prev);
    prev = ins.pc;
  }
}

TEST(KernelTest, DynamicInstructionCountExpandsLoops) {
  KernelBuilder b("k", {1}, {32});
  b.alu(2);       // 2
  b.loop(10);     // 1 (LOOP issues once)
  b.alu(3);       // 30
  b.end_loop();   // 10 (ENDLOOP once per iteration)
  Kernel k = b.build();
  // 2 + 1 + 30 + 10 + exit(1)
  EXPECT_EQ(k.dynamic_warp_instructions(), 44u);
}

TEST(KernelTest, NestedLoopDynamicCount) {
  KernelBuilder b("k", {1}, {32});
  b.loop(2);
  b.loop(3);
  b.alu(1);
  b.end_loop();
  b.end_loop();
  Kernel k = b.build();
  // outer LOOP 1 + inner LOOP 2 + alu 6 + inner END 6 + outer END 2 + exit 1
  EXPECT_EQ(k.dynamic_warp_instructions(), 18u);
}

TEST(KernelTest, CountsGlobalLoads) {
  KernelBuilder b("k", {1}, {32});
  b.load(linear_pattern(0, 4, 32), false);
  b.load(linear_pattern(64, 4, 32), false);
  b.store(linear_pattern(128, 4, 32));
  Kernel k = b.build();
  EXPECT_EQ(k.num_global_loads(), 2u);
}

TEST(KernelTest, RejectsEmptyGrid) {
  EXPECT_THROW(Kernel("k", Dim3{0, 1, 1}, Dim3{32}, {}), std::invalid_argument);
}

TEST(KernelTest, RejectsOversizedBlock) {
  KernelBuilder b("k", {1}, {2048, 1, 1});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(KernelTest, RejectsTimedSharedOp) {
  // The SM charges a shared op two cycles whatever it carries.
  const Instruction exit{.op = Opcode::kExit};
  const Instruction dep{.op = Opcode::kShared, .dep_next = true};
  const Instruction lat{.op = Opcode::kShared, .latency = 24};
  EXPECT_THROW(Kernel("k", {1}, {32}, {dep, exit}), std::invalid_argument);
  EXPECT_THROW(Kernel("k", {1}, {32}, {lat, exit}), std::invalid_argument);
}

TEST(AddressPatternTest, WrapMaskEqualsModuloForPowerOfTwo) {
  // evaluate() implements the wrap with `& (wrap_bytes - 1)`, which is only
  // a modulo for powers of two — the build-time validation below exists
  // precisely to keep this equivalence sound.
  AddressPattern p;
  p.base = 0x8000;
  p.c_tid_x = 4;
  p.c_cta_x = 1000;  // deliberately not a multiple of the window
  p.wrap_bytes = 1 << 12;
  for (u32 cta = 0; cta < 16; ++cta) {
    const u64 offset = 4u * 31 + 1000u * cta;
    EXPECT_EQ(p.evaluate({31, 0}, {cta, 0}, 0, 0),
              p.base + offset % p.wrap_bytes);
  }
}

TEST(AddressPatternTest, WrapAliasesFarCtasOntoSameLines) {
  // Bounded-footprint arrays: CTAs one window apart touch identical
  // addresses (temporal L2 reuse), CTAs inside the window do not.
  AddressPattern p;
  p.base = 0x4000'0000;
  p.c_tid_x = 4;
  p.c_cta_x = 1 << 12;
  p.wrap_bytes = 1 << 16;  // 16 CTAs per window
  const Addr a0 = p.evaluate({5, 0}, {0, 0}, 0, 0);
  EXPECT_EQ(p.evaluate({5, 0}, {16, 0}, 0, 0), a0);
  EXPECT_EQ(p.evaluate({5, 0}, {32, 0}, 0, 0), a0);
  EXPECT_NE(p.evaluate({5, 0}, {15, 0}, 0, 0), a0);
}

TEST(AddressPatternTest, NegativeOffsetWrapsIntoWindow) {
  // A negative affine offset must wrap to the top of the window, not
  // underflow below base.
  AddressPattern p;
  p.base = 0x1000;
  p.c_tid_x = -4;
  p.wrap_bytes = 1 << 16;
  const Addr a = p.evaluate({1, 0}, {0, 0}, 0, 0);
  EXPECT_EQ(a, p.base + p.wrap_bytes - 4);
  EXPECT_GE(a, p.base);
  EXPECT_LT(a, p.base + p.wrap_bytes);
}

TEST(AddressPatternTest, IndirectGroupWholeWarpIsContiguous) {
  AddressPattern p = indirect_pattern(0x2000'0000, 1 << 20, 11);
  p.indirect_group = kWarpSize;
  const Addr a0 = p.evaluate({0, 0}, {0, 0}, 0, 0);
  for (u64 lane = 1; lane < kWarpSize; ++lane)
    EXPECT_EQ(p.evaluate({0, 0}, {0, 0}, 0, lane), a0 + lane * 4);
}

TEST(AddressPatternTest, IndirectGroupOneScattersEveryLane) {
  AddressPattern p = indirect_pattern(0x2000'0000, 1 << 20, 11);
  p.indirect_group = 1;
  // With fully scattered lanes the odds of any two consecutive lanes being
  // adjacent are negligible; require that not all of them are.
  u32 adjacent = 0;
  for (u64 lane = 1; lane < kWarpSize; ++lane) {
    const Addr prev = p.evaluate({0, 0}, {0, 0}, 0, lane - 1);
    const Addr cur = p.evaluate({0, 0}, {0, 0}, 0, lane);
    if (cur == prev + 4) ++adjacent;
  }
  EXPECT_LT(adjacent, kWarpSize - 1);
}

TEST(AddressPatternTest, IterationTermAdvancesOnlyWithIteration) {
  AddressPattern p;
  p.base = 0x1000;
  p.c_tid_x = 4;
  p.c_iter = 512;
  const Addr a0 = p.evaluate({3, 0}, {2, 0}, 0, 0);
  for (u32 iter = 1; iter < 8; ++iter)
    EXPECT_EQ(p.evaluate({3, 0}, {2, 0}, iter, 0), a0 + iter * 512u);
  // Iteration-invariant pattern: same address every trip.
  p.c_iter = 0;
  EXPECT_EQ(p.evaluate({3, 0}, {2, 0}, 7, 0), p.evaluate({3, 0}, {2, 0}, 0, 0));
}

TEST(KernelTest, RejectsNonPowerOfTwoWrap) {
  // Regression: evaluate() masks with wrap_bytes-1, which silently computes
  // garbage for non-powers-of-two; the kernel must refuse to build instead.
  AddressPattern p = linear_pattern(0x1000, 4, 32);
  p.wrap_bytes = 3000;
  KernelBuilder b("k", {1}, {32});
  b.load(p);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(KernelTest, AcceptsPowerOfTwoAndZeroWrap) {
  for (const u64 wrap : {u64{0}, u64{1} << 16}) {
    AddressPattern p = linear_pattern(0x1000, 4, 32);
    p.wrap_bytes = wrap;
    KernelBuilder b("k", {1}, {32});
    b.load(p);
    EXPECT_NO_THROW(b.build());
  }
}

TEST(KernelTest, RejectsBadIndirectGroup) {
  // Regression: evaluate() used to silently patch indirect_group == 0 to 1;
  // now the kernel refuses to build with an out-of-range group.
  for (const u32 group : {0u, kWarpSize + 1, 1000u}) {
    AddressPattern p = indirect_pattern(0x2000'0000, 1 << 20, 7);
    p.indirect_group = group;
    KernelBuilder b("k", {1}, {32});
    b.load(p);
    EXPECT_THROW(b.build(), std::invalid_argument) << "group=" << group;
  }
}

TEST(KernelTest, IndirectGroupBoundsAreInclusive) {
  for (const u32 group : {1u, kWarpSize}) {
    AddressPattern p = indirect_pattern(0x2000'0000, 1 << 20, 7);
    p.indirect_group = group;
    KernelBuilder b("k", {1}, {32});
    b.load(p);
    EXPECT_NO_THROW(b.build()) << "group=" << group;
  }
}

TEST(KernelTest, AffineLoadIgnoresIndirectGroupValidation) {
  // indirect_group is dead state for affine patterns; a stray value must
  // not reject an otherwise valid kernel.
  AddressPattern p = linear_pattern(0x1000, 4, 32);
  p.indirect_group = 0;
  KernelBuilder b("k", {1}, {32});
  b.load(p);
  EXPECT_NO_THROW(b.build());
}

TEST(KernelTest, RejectsZeroTripLoop) {
  std::vector<Instruction> ins(3);
  ins[0].op = Opcode::kLoopBegin;
  ins[0].trip_count = 0;
  ins[1].op = Opcode::kLoopEnd;
  ins[2].op = Opcode::kExit;
  EXPECT_THROW(Kernel("k", Dim3{1}, Dim3{32}, ins), std::invalid_argument);
}

}  // namespace
}  // namespace caps
