#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "core/profiler.hpp"
#include "vp/machine.hpp"

namespace s4e::core {
namespace {

TEST(Profiler, HotLoopDominates) {
  auto program = assembler::assemble(R"(
_start:
    li t0, 100
hot_loop:
    addi t1, t1, 1
    xor t2, t1, t0
    addi t0, t0, -1
    bnez t0, hot_loop
cold_tail:
    li a7, 93
    li a0, 0
    ecall
  )");
  ASSERT_TRUE(program.ok());
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(*program).ok());
  ProfilerPlugin profiler;
  profiler.attach(machine.vm_handle());
  auto result = machine.run();
  ASSERT_TRUE(result.normal_exit());

  // The hot block executed 99 times: the first iteration runs inside the
  // entry translation block, which extends past the hot_loop label until
  // the first control-flow instruction (QEMU-style block formation).
  const u32 loop_addr = *program->symbol("hot_loop");
  ASSERT_EQ(profiler.exec_counts().count(loop_addr), 1u);
  EXPECT_EQ(profiler.exec_counts().at(loop_addr), 99u);
  EXPECT_EQ(profiler.exec_counts().at(*program->symbol("_start")), 1u);

  // Attributed instructions equal the retired count (no truncated blocks).
  EXPECT_EQ(profiler.attributed_instructions(), result.instructions);

  const std::string report = profiler.report(*program);
  EXPECT_NE(report.find("hot_loop"), std::string::npos);
  // The hottest row comes first.
  EXPECT_LT(report.find("hot_loop"), report.find("_start"));
}

TEST(Profiler, SymbolizationUsesNearestPrecedingSymbol) {
  auto program = assembler::assemble(R"(
fn:
    beqz a0, skip
    nop
skip:
    li a7, 93
    li a0, 0
    ecall
  )");
  ASSERT_TRUE(program.ok());
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(*program).ok());
  ProfilerPlugin profiler;
  profiler.attach(machine.vm_handle());
  machine.run();
  const std::string report = profiler.report(*program);
  // The block at `skip` is symbolized by its own label; fn appears too.
  EXPECT_NE(report.find("skip"), std::string::npos);
  EXPECT_NE(report.find("fn"), std::string::npos);
}

TEST(Profiler, TopNLimitsRows) {
  auto program = assembler::assemble(R"(
    beqz a0, b1
b1: beqz a1, b2
b2: beqz a2, b3
b3: li a7, 93
    li a0, 0
    ecall
  )");
  ASSERT_TRUE(program.ok());
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(*program).ok());
  ProfilerPlugin profiler;
  profiler.attach(machine.vm_handle());
  machine.run();
  const std::string limited = profiler.report(*program, 2);
  // Header + 2 rows only.
  unsigned lines = 0;
  for (char c : limited) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
}

// A block cut short by a trap is charged only the instructions it retired:
// the faulting load ends the loop block after two of its five
// instructions on every iteration.
TEST(Profiler, MidBlockTrapIsAttributedExactly) {
  auto program = assembler::assemble(R"(
_start:
    la t0, handler
    csrw mtvec, t0
    li s0, 5
loop:
    addi s1, s1, 1
    lw t1, 1(zero)
    addi s2, s2, 1
    addi s0, s0, -1
    bnez s0, loop
    li a7, 93
    li a0, 0
    ecall
handler:
    csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
  )");
  ASSERT_TRUE(program.ok());
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(*program).ok());
  ProfilerPlugin profiler;
  profiler.attach(machine.vm_handle());
  const auto result = machine.run();
  ASSERT_TRUE(result.normal_exit());
  EXPECT_EQ(profiler.attributed_instructions(), result.instructions);

  // The loop head is dispatched on the four back edges (the first
  // iteration runs inside the entry block, which the trap also cuts).
  const u32 loop_addr = *program->symbol("loop");
  EXPECT_EQ(profiler.exec_counts().at(loop_addr), 4u);
  // Every handler return resumes after the load, in a block of its own.
  EXPECT_EQ(profiler.exec_counts().at(loop_addr + 8), 5u);
}

// Attaching to a machine that already ran: the blocks it cached are
// retranslated, so every later instruction is attributed.
TEST(Profiler, LateAttachAttributesEveryLaterInstruction) {
  auto program = assembler::assemble(R"(
    li t0, 100
hot_loop:
    addi t1, t1, 1
    addi t0, t0, -1
    bnez t0, hot_loop
    li a7, 93
    li a0, 0
    ecall
  )");
  ASSERT_TRUE(program.ok());
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(*program).ok());
  ASSERT_EQ(machine.run(150).reason, vp::StopReason::kMaxInstructions);
  ProfilerPlugin profiler;
  profiler.attach(machine.vm_handle());
  const auto result = machine.run();
  ASSERT_TRUE(result.normal_exit());
  EXPECT_EQ(profiler.attributed_instructions(), result.instructions - 150);
}

}  // namespace
}  // namespace s4e::core
