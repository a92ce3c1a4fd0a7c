// GDB remote-debug subsystem tests (ctest -L debug; also tsan-labeled —
// the loopback test runs a real client thread against the TCP transport):
//   * RSP packet codec: checksum, framing, escaping, RLE, incremental
//     decoding across arbitrary chunk boundaries
//   * Machine run control: breakpoints (cold and hot translation blocks),
//     watchpoints (write/read/access), single-step, bounded slices,
//     interrupt requests — and that exit callbacks fire exactly once
//   * N x step() == run(N) equivalence, property-tested over torture
//     programs, including across a snapshot save/restore mid-stepping
//   * a scripted in-process RSP session covering the full attach ->
//     breakpoint -> watchpoint -> step -> detach acceptance flow
//   * the same flow over a real loopback TCP connection (port 0)
//   * `s4e-run --gdb=0` end to end: attach to the spawned tool through the
//     port it announces, detach, and watch it free-run to completion
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "asm/assembler.hpp"
#include "common/hex.hpp"
#include "debug/rsp.hpp"
#include "debug/server.hpp"
#include "debug/target.hpp"
#include "debug/tcp.hpp"
#include "obs/trace.hpp"
#include "testgen/testgen.hpp"
#include "vp/machine.hpp"
#include "vp/runner.hpp"
#include "vp/snapshot.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace s4e::debug {
namespace {

using vp::Machine;
using vp::RunResult;
using vp::StopReason;
using vp::WatchKind;

assembler::Program assemble_or_die(const char* source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok());
  return *program;
}

u32 symbol(const assembler::Program& program, const std::string& name) {
  auto it = program.symbols.find(name);
  EXPECT_NE(it, program.symbols.end()) << name;
  return it == program.symbols.end() ? 0 : it->second;
}

// Counts a bounded loop, stores the total to `counter`, prints "ok",
// exits 3. Symbols mark the loop head and the watched data word.
const char* kLoopSource = R"(
_start:
    li t0, 0
    li t1, 25
loop_head:
    addi t0, t0, 1
    bne t0, t1, loop_head
    la t2, counter
    sw t0, 0(t2)
    lw t3, 0(t2)
    li t0, 0x10000000
    li t1, 111
    sw t1, 0(t0)
    li t1, 107
    sw t1, 0(t0)
    li a0, 3
    li a7, 93
    ecall
.data
counter:
    .word 0
)";

// --------------------------------------------------------------------------
// Packet codec.

TEST(RspCodec, ChecksumAndFraming) {
  EXPECT_EQ(rsp_checksum(""), "00");
  EXPECT_EQ(rsp_frame("OK"), "$OK#9a");
  EXPECT_EQ(rsp_frame(""), "$#00");
}

TEST(RspCodec, EscapesFramingCharacters) {
  const std::string wire = rsp_frame("a#b$c}d*e");
  // The escaped body must not contain a bare '#' before the checksum mark.
  const std::size_t hash = wire.rfind('#');
  EXPECT_EQ(wire.find('#'), hash);
  PacketDecoder decoder;
  decoder.feed(wire);
  ASSERT_TRUE(decoder.has_event());
  auto event = decoder.next_event();
  EXPECT_EQ(event.kind, PacketDecoder::EventKind::kPacket);
  EXPECT_EQ(event.payload, "a#b$c}d*e");
}

TEST(RspCodec, RleRoundTripsLongRuns) {
  const std::string payload(200, '0');
  const std::string wire = rsp_frame_rle(payload);
  EXPECT_LT(wire.size(), payload.size() / 2);
  PacketDecoder decoder;
  decoder.feed(wire);
  ASSERT_TRUE(decoder.has_event());
  auto event = decoder.next_event();
  ASSERT_EQ(event.kind, PacketDecoder::EventKind::kPacket);
  EXPECT_EQ(rsp_rle_expand(event.payload), payload);
}

TEST(RspCodec, RleNeverEmitsIllegalCountCharacters) {
  // Run lengths 1..120 of several characters: every produced count char must
  // be printable and must not collide with framing bytes.
  for (char c : {'0', 'f', 'x'}) {
    for (std::size_t n = 1; n <= 120; ++n) {
      const std::string payload(n, c);
      const std::string wire = rsp_frame_rle(payload);
      // Walk the body sequentially: a '*' marks a run, and the next byte is
      // its count (which may itself be '*', so consume it explicitly).
      const std::size_t body_end = wire.rfind('#');
      for (std::size_t i = 1; i < body_end; ++i) {
        if (wire[i] != '*') continue;
        ASSERT_LT(i + 1, body_end) << n;
        const char count = wire[++i];
        EXPECT_GE(count, 29 + 3) << n;
        EXPECT_LE(count, '~') << n;
        EXPECT_NE(count, '#') << n;
        EXPECT_NE(count, '$') << n;
        EXPECT_NE(count, '+') << n;
        EXPECT_NE(count, '-') << n;
      }
      PacketDecoder decoder;
      decoder.feed(wire);
      ASSERT_TRUE(decoder.has_event());
      EXPECT_EQ(rsp_rle_expand(decoder.next_event().payload), payload);
    }
  }
}

TEST(RspCodec, DecodesAcrossChunkBoundaries) {
  const std::string wire = rsp_frame("qSupported:multiprocess+") + "+" +
                           rsp_frame("g") + "\x03";
  for (std::size_t chunk = 1; chunk <= 5; ++chunk) {
    PacketDecoder decoder;
    for (std::size_t i = 0; i < wire.size(); i += chunk) {
      decoder.feed(wire.substr(i, chunk));
    }
    ASSERT_TRUE(decoder.has_event());
    auto first = decoder.next_event();
    EXPECT_EQ(first.kind, PacketDecoder::EventKind::kPacket);
    EXPECT_EQ(first.payload, "qSupported:multiprocess+");
    EXPECT_EQ(decoder.next_event().kind, PacketDecoder::EventKind::kAck);
    EXPECT_EQ(decoder.next_event().payload, "g");
    EXPECT_EQ(decoder.next_event().kind,
              PacketDecoder::EventKind::kInterrupt);
    EXPECT_FALSE(decoder.has_event());
  }
}

TEST(RspCodec, BadChecksumYieldsBadPacketEvent) {
  PacketDecoder decoder;
  decoder.feed("$OK#00");
  ASSERT_TRUE(decoder.has_event());
  EXPECT_EQ(decoder.next_event().kind, PacketDecoder::EventKind::kBadPacket);
  // The decoder recovers: the next well-formed packet still parses.
  decoder.feed(rsp_frame("OK"));
  ASSERT_TRUE(decoder.has_event());
  EXPECT_EQ(decoder.next_event().payload, "OK");
}

// --------------------------------------------------------------------------
// Machine run control.

TEST(RunControl, BreakpointStopsBeforeExecuting) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  const u32 head = symbol(program, "loop_head");
  machine.add_breakpoint(head);

  RunResult stop = machine.run();
  EXPECT_EQ(stop.reason, StopReason::kDebugBreak);
  EXPECT_EQ(stop.final_pc, head);
  EXPECT_EQ(stop.debug_addr, head);
  EXPECT_EQ(machine.cpu().pc, head);
  // t0 still 0: the breakpointed instruction has not executed.
  EXPECT_EQ(machine.cpu().gpr[5], 0u);

  machine.remove_breakpoint(head);
  RunResult done = machine.run();
  EXPECT_TRUE(done.normal_exit());
  EXPECT_EQ(done.exit_code, 3);
  EXPECT_EQ(machine.uart()->tx_log(), "ok");
}

TEST(RunControl, BreakpointInsertedIntoHotBlockStillHits) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  // Warm the loop's translation block, then plant a breakpoint inside it.
  RunResult warm = machine.run_slice(30);
  ASSERT_EQ(warm.reason, StopReason::kDebugSlice);
  const u32 head = symbol(program, "loop_head");
  machine.add_breakpoint(head);
  RunResult stop = machine.run();
  EXPECT_EQ(stop.reason, StopReason::kDebugBreak);
  EXPECT_EQ(stop.final_pc, head);
}

TEST(RunControl, ResumeStepsOverBreakpointAtCurrentPc) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  const u32 head = symbol(program, "loop_head");
  machine.add_breakpoint(head);
  ASSERT_EQ(machine.run().reason, StopReason::kDebugBreak);

  // step() executes the breakpointed instruction instead of re-reporting.
  RunResult stepped = machine.step();
  EXPECT_EQ(stepped.reason, StopReason::kDebugStep);
  EXPECT_EQ(machine.cpu().gpr[5], 1u);  // t0 incremented
  // Continuing hits the same breakpoint on the next loop iteration.
  RunResult again = machine.run();
  EXPECT_EQ(again.reason, StopReason::kDebugBreak);
  EXPECT_EQ(machine.cpu().gpr[5], 1u);
}

TEST(RunControl, WatchpointKindsAndOverlap) {
  auto program = assemble_or_die(kLoopSource);
  const u32 counter = symbol(program, "counter");

  {  // Write watch: stops after the sw, with the faulting address.
    Machine machine;
    ASSERT_TRUE(machine.load_program(program).ok());
    machine.add_watchpoint(counter, 4, WatchKind::kWrite);
    RunResult stop = machine.run();
    EXPECT_EQ(stop.reason, StopReason::kDebugWatch);
    EXPECT_EQ(stop.debug_addr, counter);
    EXPECT_EQ(stop.watch_kind, WatchKind::kWrite);
    // GDB semantics: the write has landed by the time the stop reports.
    u32 value = 0;
    ASSERT_TRUE(machine.bus().ram_read(counter, &value, 4).ok());
    EXPECT_EQ(value, 25u);
    // The read of `counter` later must not re-trigger the write watch.
    RunResult done = machine.run();
    EXPECT_TRUE(done.normal_exit());
  }
  {  // Read watch: triggers on the lw, not the sw.
    Machine machine;
    ASSERT_TRUE(machine.load_program(program).ok());
    machine.add_watchpoint(counter, 4, WatchKind::kRead);
    RunResult stop = machine.run();
    EXPECT_EQ(stop.reason, StopReason::kDebugWatch);
    EXPECT_EQ(stop.watch_kind, WatchKind::kRead);
    u32 value = 0;
    ASSERT_TRUE(machine.bus().ram_read(counter, &value, 4).ok());
    EXPECT_EQ(value, 25u);  // the store already happened
  }
  {  // Access watch on a 1-byte range inside the word still overlaps.
    Machine machine;
    ASSERT_TRUE(machine.load_program(program).ok());
    machine.add_watchpoint(counter + 2, 1, WatchKind::kAccess);
    RunResult stop = machine.run();
    EXPECT_EQ(stop.reason, StopReason::kDebugWatch);
    EXPECT_EQ(stop.watch_kind, WatchKind::kAccess);
  }
  {  // Removed watchpoints never fire.
    Machine machine;
    ASSERT_TRUE(machine.load_program(program).ok());
    machine.add_watchpoint(counter, 4, WatchKind::kWrite);
    EXPECT_TRUE(machine.remove_watchpoint(counter, 4, WatchKind::kWrite));
    EXPECT_FALSE(machine.remove_watchpoint(counter, 4, WatchKind::kWrite));
    EXPECT_TRUE(machine.run().normal_exit());
  }
}

TEST(RunControl, SliceAndInterruptRequests) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());

  RunResult slice = machine.run_slice(5);
  EXPECT_EQ(slice.reason, StopReason::kDebugSlice);
  EXPECT_EQ(slice.instructions, 5u);

  machine.request_debug_stop();
  RunResult interrupted = machine.run();
  EXPECT_EQ(interrupted.reason, StopReason::kDebugInterrupt);

  // The request is one-shot: the machine then runs to completion.
  RunResult done = machine.run();
  EXPECT_TRUE(done.normal_exit());
  EXPECT_EQ(done.exit_code, 3);
}

TEST(RunControl, ExitCallbacksFireOnceDespiteDebugStops) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());

  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* sink = open_memstream(&buffer, &size);
  ASSERT_NE(sink, nullptr);
  obs::JsonlTracePlugin trace(sink, 1);  // budget 1: only meta + exit lines
  trace.attach(machine.vm_handle());

  machine.add_breakpoint(symbol(program, "loop_head"));
  ASSERT_EQ(machine.run().reason, StopReason::kDebugBreak);
  machine.clear_breakpoints();
  ASSERT_EQ(machine.run_slice(3).reason, StopReason::kDebugSlice);
  ASSERT_TRUE(machine.run().normal_exit());

  std::fclose(sink);
  std::string text(buffer, size);
  free(buffer);
  std::size_t exits = 0;
  for (std::size_t at = text.find("\"exit\""); at != std::string::npos;
       at = text.find("\"exit\"", at + 1)) {
    ++exits;
  }
  EXPECT_EQ(exits, 1u);
}

// --------------------------------------------------------------------------
// N x step() == run(N), property-tested over torture programs.

struct MachineDigest {
  std::array<u32, isa::kGprCount> gpr{};
  u32 pc = 0;
  u64 cycles = 0;
  u64 memory_hash = 0;
  std::string uart;
  u32 mepc = 0;
  u32 mcause = 0;
  u32 mstatus = 0;

  bool operator==(const MachineDigest&) const = default;
};

MachineDigest digest(Machine& machine, const assembler::Program& program) {
  MachineDigest d;
  d.gpr = machine.cpu().gpr;
  d.pc = machine.cpu().pc;
  d.cycles = machine.cycles();
  d.memory_hash = vp::data_memory_hash(machine, program);
  d.uart = machine.uart()->tx_log();
  d.mepc = machine.cpu().csr.mepc;
  d.mcause = machine.cpu().csr.mcause;
  d.mstatus = machine.cpu().csr.mstatus;
  return d;
}

class StepEquivalenceSeed : public ::testing::TestWithParam<u64> {};

TEST_P(StepEquivalenceSeed, SteppingMatchesFreeRunning) {
  testgen::TortureConfig config;
  config.seed = GetParam();
  config.programs = 3;
  for (const auto& test : testgen::torture_suite(config)) {
    auto program = assembler::assemble(test.source);
    ASSERT_TRUE(program.ok()) << test.name;

    Machine golden;
    ASSERT_TRUE(golden.load_program(*program).ok());
    const RunResult golden_result = golden.run();
    ASSERT_TRUE(golden_result.normal_exit()) << test.name;
    const MachineDigest want = digest(golden, *program);

    // Step the whole program, snapshotting partway through; the restored
    // machine must replay the remaining steps to the identical end state.
    Machine stepper;
    ASSERT_TRUE(stepper.load_program(*program).ok());
    vp::Snapshot snap;
    u64 steps = 0;
    u64 snap_at = golden_result.instructions / 2;
    bool saved = false;
    RunResult last;
    for (;;) {
      if (steps == snap_at) {
        stepper.save_state(snap);
        saved = true;
      }
      last = stepper.step();
      if (last.reason != StopReason::kDebugStep) break;
      ++steps;
      ASSERT_LT(steps, golden_result.instructions + 8) << test.name;
    }
    EXPECT_TRUE(last.normal_exit()) << test.name;
    EXPECT_EQ(last.exit_code, golden_result.exit_code) << test.name;
    EXPECT_EQ(steps + 1, golden_result.instructions) << test.name;
    EXPECT_EQ(digest(stepper, *program), want) << test.name;

    ASSERT_TRUE(saved) << test.name;
    stepper.restore_state(snap);
    RunResult rest;
    for (;;) {
      rest = stepper.step();
      if (rest.reason != StopReason::kDebugStep) break;
    }
    EXPECT_TRUE(rest.normal_exit()) << test.name;
    EXPECT_EQ(digest(stepper, *program), want) << test.name << " restored";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepEquivalenceSeed,
                         ::testing::Values(11u, 47u, 90210u));

// --------------------------------------------------------------------------
// Scripted in-process RSP session.

// A ByteChannel fed from a script: read_blocking() pops pre-recorded client
// chunks; read_poll() pops a separate async queue (the Ctrl-C path); writes
// accumulate into a transcript the test decodes afterwards.
class ScriptChannel final : public ByteChannel {
 public:
  void push(std::string bytes) { script_.push_back(std::move(bytes)); }
  void push_async(std::string bytes) { async_.push_back(std::move(bytes)); }

  std::string read_blocking() override {
    if (next_ >= script_.size()) return {};  // script over = peer hung up
    return script_[next_++];
  }
  std::string read_poll() override {
    if (async_next_ >= async_.size()) return {};
    return async_[async_next_++];
  }
  bool write_all(std::string_view bytes) override {
    transcript_.append(bytes);
    return true;
  }

  // Decode every packet the server sent, RLE-expanded.
  std::vector<std::string> replies() const {
    PacketDecoder decoder;
    decoder.feed(transcript_);
    std::vector<std::string> out;
    while (decoder.has_event()) {
      auto event = decoder.next_event();
      if (event.kind == PacketDecoder::EventKind::kPacket) {
        out.push_back(rsp_rle_expand(event.payload));
      }
    }
    return out;
  }

 private:
  std::vector<std::string> script_;
  std::vector<std::string> async_;
  std::size_t next_ = 0;
  std::size_t async_next_ = 0;
  std::string transcript_;
};

TEST(RspSession, FullAcceptanceFlowScripted) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  const u32 head = symbol(program, "loop_head");
  const u32 counter = symbol(program, "counter");

  ScriptChannel channel;
  // Ack-mode handshake: the client ack ('+') for each server reply rides in
  // front of the next command chunk.
  channel.push(rsp_frame("qSupported:swbreak+;hwbreak+"));
  channel.push("+" + rsp_frame("QStartNoAckMode"));
  channel.push("+");  // ack for the OK; no-ack mode from here on
  channel.push(rsp_frame("qXfer:features:read:target.xml:0,ffb"));
  channel.push(rsp_frame("?"));
  channel.push(rsp_frame("Z0," + hex32(head) + ",4"));
  channel.push(rsp_frame("c"));
  channel.push(rsp_frame("g"));
  channel.push(rsp_frame("m" + hex32(counter) + ",4"));
  channel.push(rsp_frame("Z2," + hex32(counter) + ",4"));
  channel.push(rsp_frame("z0," + hex32(head) + ",4"));
  channel.push(rsp_frame("c"));
  channel.push(rsp_frame("s"));
  channel.push(rsp_frame("D"));

  DebugTarget target(machine);
  RspServer server(target, channel);
  const auto outcome = server.serve();
  EXPECT_EQ(outcome, RspServer::ServeResult::kDetached);

  const auto replies = channel.replies();
  ASSERT_EQ(replies.size(), 13u);
  // qSupported advertises the feature set.
  EXPECT_NE(replies[0].find("PacketSize="), std::string::npos);
  EXPECT_NE(replies[0].find("qXfer:features:read+"), std::string::npos);
  EXPECT_NE(replies[0].find("swbreak+"), std::string::npos);
  EXPECT_EQ(replies[1], "OK");  // QStartNoAckMode
  // Target XML fits one chunk ('l' prefix) and names the architecture.
  EXPECT_EQ(replies[2].front(), 'l');
  EXPECT_NE(replies[2].find("riscv:rv32"), std::string::npos);
  EXPECT_EQ(replies[3], "S05");  // halted at entry
  EXPECT_EQ(replies[4], "OK");   // Z0
  EXPECT_EQ(replies[5], "T05swbreak:;");

  // `g`: all 33 registers, matching the machine state at the breakpoint —
  // the two `li`s before loop_head have run, the loop body has not.
  ASSERT_EQ(replies[6].size(), 33u * 8u);
  EXPECT_EQ(replies[6].substr(0, 8), hex32_le(0));         // x0
  EXPECT_EQ(replies[6].substr(5 * 8, 8), hex32_le(0));     // t0: untouched
  EXPECT_EQ(replies[6].substr(6 * 8, 8), hex32_le(25));    // t1: loop bound
  EXPECT_EQ(replies[6].substr(32 * 8, 8), hex32_le(head));  // pc

  // `m` of the counter word: still zero at the breakpoint.
  EXPECT_EQ(replies[7], "00000000");
  EXPECT_EQ(replies[8], "OK");  // Z2
  EXPECT_EQ(replies[9], "OK");  // z0
  // The continue ran the loop to the store and stopped on the write watch.
  EXPECT_EQ(replies[10], "T05watch:" + hex32(counter) + ";");
  u32 value = 0;
  ASSERT_TRUE(machine.bus().ram_read(counter, &value, 4).ok());
  EXPECT_EQ(value, 25u);

  EXPECT_EQ(replies[11], "S05");  // `s`: exactly one instruction
  EXPECT_EQ(replies[12], "OK");   // D

  // Detach leaves a resumable machine; free-running finishes the program.
  RunResult done = machine.run();
  EXPECT_TRUE(done.normal_exit());
  EXPECT_EQ(done.exit_code, 3);
  EXPECT_EQ(machine.uart()->tx_log(), "ok");
}

TEST(RspSession, StepReplyReflectsSingleInstruction) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());

  ScriptChannel channel;
  channel.push(rsp_frame("QStartNoAckMode"));
  channel.push("+");
  channel.push(rsp_frame("s"));
  channel.push(rsp_frame("p20"));  // read the PC (regnum 0x20)
  channel.push(rsp_frame("k"));

  DebugTarget target(machine);
  RspServer server(target, channel);
  EXPECT_EQ(server.serve(), RspServer::ServeResult::kKilled);

  const auto replies = channel.replies();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[1], "S05");
  // One `li` executed: the machine sits on the second instruction.
  EXPECT_EQ(replies[2], hex32_le(machine.cpu().pc));
}

TEST(RspSession, CtrlCInterruptsARunningProgram) {
  // Infinite loop: only the interrupt can stop it.
  auto program = assemble_or_die(R"(
_start:
    j _start
)");
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());

  ScriptChannel channel;
  channel.push(rsp_frame("QStartNoAckMode"));
  channel.push("+");
  channel.push(rsp_frame("c"));
  channel.push_async("\x03");  // arrives while the machine runs
  channel.push(rsp_frame("k"));

  DebugTarget target(machine);
  target.set_slice(64);  // poll often so the test is fast
  RspServer server(target, channel);
  EXPECT_EQ(server.serve(), RspServer::ServeResult::kKilled);

  const auto replies = channel.replies();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1], "S02");  // SIGINT stop reply
}

TEST(RspSession, RegisterAndMemoryWritesLand) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  const u32 counter = symbol(program, "counter");

  ScriptChannel channel;
  channel.push(rsp_frame("QStartNoAckMode"));
  channel.push("+");
  channel.push(rsp_frame("P5=" + hex32_le(0xdeadbeef)));  // t0 = x5
  channel.push(rsp_frame("M" + hex32(counter) + ",4:" + "aabbccdd"));
  channel.push(rsp_frame("m" + hex32(counter) + ",4"));
  channel.push(rsp_frame("X"));  // unsupported -> empty reply
  channel.push(rsp_frame("k"));

  DebugTarget target(machine);
  RspServer server(target, channel);
  EXPECT_EQ(server.serve(), RspServer::ServeResult::kKilled);

  const auto replies = channel.replies();
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_EQ(replies[1], "OK");
  EXPECT_EQ(machine.cpu().gpr[5], 0xdeadbeefu);
  EXPECT_EQ(replies[2], "OK");
  EXPECT_EQ(replies[3], "aabbccdd");
  EXPECT_EQ(replies[4], "");
}

TEST(RspSession, ProgramExitReportsWStatus) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());

  ScriptChannel channel;
  channel.push(rsp_frame("QStartNoAckMode"));
  channel.push("+");
  channel.push(rsp_frame("c"));
  channel.push(rsp_frame("D"));

  DebugTarget target(machine);
  RspServer server(target, channel);
  // The program finished under the debugger; detach maps to kExited.
  EXPECT_EQ(server.serve(), RspServer::ServeResult::kExited);
  EXPECT_FALSE(server.last_stop().debug_stop());
  EXPECT_EQ(server.last_stop().exit_code, 3);

  const auto replies = channel.replies();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[1], "W03");  // exit code 3
}

// --------------------------------------------------------------------------
// Loopback TCP transport.

// Minimal blocking client used by the test thread.
class TestClient {
 public:
  explicit TestClient(u16 port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void send_raw(std::string_view bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  // Send a framed command and return the server's (expanded) reply payload,
  // consuming acks. `ack` acknowledges the reply when still in ack mode.
  std::string transact(const std::string& payload, bool ack) {
    send_raw(rsp_frame(payload));
    for (;;) {
      while (decoder_.has_event()) {
        auto event = decoder_.next_event();
        if (event.kind == PacketDecoder::EventKind::kPacket) {
          if (ack) send_raw("+");
          return rsp_rle_expand(event.payload);
        }
      }
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n <= 0) return "<closed>";
      decoder_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  PacketDecoder decoder_;
};

TEST(TcpTransport, LoopbackSessionOnEphemeralPort) {
  auto program = assemble_or_die(kLoopSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  const u32 head = symbol(program, "loop_head");

  std::string error;
  auto listener = TcpListener::listen_loopback(0, error);
  ASSERT_NE(listener, nullptr) << error;
  ASSERT_NE(listener->port(), 0) << "ephemeral port must be resolved";

  std::thread client_thread([port = listener->port(), head] {
    TestClient client(port);
    ASSERT_TRUE(client.connected());
    EXPECT_NE(client.transact("qSupported", true).find("PacketSize="),
              std::string::npos);
    EXPECT_EQ(client.transact("QStartNoAckMode", true), "OK");
    EXPECT_EQ(client.transact("Z0," + hex32(head) + ",4", false), "OK");
    EXPECT_EQ(client.transact("c", false), "T05swbreak:;");
    const std::string regs = client.transact("g", false);
    EXPECT_EQ(regs.size(), 33u * 8u);
    EXPECT_EQ(regs.substr(32 * 8, 8), hex32_le(head));
    EXPECT_EQ(client.transact("D", false), "OK");
  });

  auto channel = listener->accept_one(error);
  ASSERT_NE(channel, nullptr) << error;
  DebugTarget target(machine);
  RspServer server(target, *channel);
  EXPECT_EQ(server.serve(), RspServer::ServeResult::kDetached);
  client_thread.join();

  EXPECT_EQ(machine.cpu().pc, head);
  EXPECT_TRUE(machine.run().normal_exit());
}

TEST(TcpTransport, AcceptDeadlinePassesWithoutClient) {
  std::string error;
  auto listener = TcpListener::listen_loopback(0, error);
  ASSERT_NE(listener, nullptr) << error;
  bool timed_out = false;
  auto channel = listener->accept_one_for(50, error, timed_out);
  EXPECT_EQ(channel, nullptr);
  EXPECT_TRUE(timed_out);
  EXPECT_TRUE(error.empty()) << error;
}

#ifdef S4E_TOOL_DIR
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Poll `path` until `needle` shows up (the tool announces its port / the
// guest finishes asynchronously). ~5 s cap keeps a wedged tool from hanging
// the suite.
bool wait_for(const std::string& path, const std::string& needle,
              std::string& content) {
  for (int i = 0; i < 500; ++i) {
    content = slurp(path);
    if (content.find(needle) != std::string::npos) return true;
    usleep(10'000);
  }
  return false;
}

TEST(TcpTransport, S4eRunGdbFlagEndToEnd) {
  const std::string base =
      ::testing::TempDir() + "/" + std::to_string(getpid()) + "_gdbcli";
  const std::string elf = base + ".elf";
  const std::string out_path = base + ".out";
  const std::string err_path = base + ".err";
  const std::string tools = S4E_TOOL_DIR;
  ASSERT_EQ(std::system((tools + "/s4e-as --workload lock_ctrl -o " + elf)
                            .c_str()),
            0);

  // Launch detached with --gdb=0; the tool prints the resolved port on
  // stderr before blocking in accept().
  const std::string launch = tools + "/s4e-run " + elf +
                             " --uart-input 1234 --gdb=0 >" + out_path +
                             " 2>" + err_path + " & echo $!";
  std::FILE* pipe = popen(launch.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char pid_line[64] = {};
  ASSERT_NE(std::fgets(pid_line, sizeof pid_line, pipe), nullptr);
  pclose(pipe);
  const pid_t pid = static_cast<pid_t>(std::atol(pid_line));
  ASSERT_GT(pid, 0);

  std::string err_text;
  ASSERT_TRUE(wait_for(err_path, "listening on 127.0.0.1:", err_text))
      << err_text;
  const std::size_t colon = err_text.rfind(':');
  const int port = std::atoi(err_text.c_str() + colon + 1);
  ASSERT_GT(port, 0) << err_text;

  {
    TestClient client(static_cast<u16>(port));
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.transact("QStartNoAckMode", true), "OK");
    EXPECT_EQ(client.transact("s", false), "S05");
    EXPECT_EQ(client.transact("D", false), "OK");
  }

  // Detached: the guest free-runs, reads the scripted UART pin and opens.
  std::string out_text;
  EXPECT_TRUE(wait_for(out_path, "OPEN", out_text)) << out_text;
  for (int i = 0; i < 500 && ::kill(pid, 0) == 0; ++i) usleep(10'000);
  EXPECT_NE(::kill(pid, 0), 0) << "s4e-run did not exit after detach";

  std::remove(elf.c_str());
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
}
#endif  // S4E_TOOL_DIR

}  // namespace
}  // namespace s4e::debug
