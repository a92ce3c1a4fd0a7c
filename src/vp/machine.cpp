#include "vp/machine.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "isa/decoder.hpp"
#include "isa/rvc.hpp"

// The C-API handle just wraps the Machine pointer; defined here so both
// machine.cpp and plugin_api.cpp see the same layout.
struct s4e_vm {
  s4e::vp::Machine* machine;
};

namespace s4e::vp {

using isa::Instr;
using isa::Op;

std::string_view to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kExitEcall: return "exit-ecall";
    case StopReason::kExitTestDevice: return "exit-testdev";
    case StopReason::kExitRequested: return "exit-requested";
    case StopReason::kEbreak: return "ebreak";
    case StopReason::kTrapUnhandled: return "trap-unhandled";
    case StopReason::kMaxInstructions: return "max-instructions";
    case StopReason::kWfiHalt: return "wfi-halt";
    case StopReason::kDebugBreak: return "debug-break";
    case StopReason::kDebugWatch: return "debug-watch";
    case StopReason::kDebugStep: return "debug-step";
    case StopReason::kDebugInterrupt: return "debug-interrupt";
    case StopReason::kDebugSlice: return "debug-slice";
  }
  return "?";
}

Machine::Machine(const MachineConfig& config)
    : config_(config), timing_(config.timing) {
  num_harts_ = std::clamp(config_.num_harts, 1u, Clint::kMaxHarts);
  config_.num_harts = num_harts_;
  if (config_.smp_slice_quantum == 0) config_.smp_slice_quantum = 1;
  smp_ = num_harts_ > 1 || config_.force_slice_scheduler;
  harts_.resize(num_harts_);
  hart_stats_.resize(num_harts_);
  hart_icount_.resize(num_harts_);
  bus_.add_ram(config_.ram_base, config_.ram_size);
  if (config_.map_uart) {
    auto uart = std::make_unique<Uart>();
    uart_ = uart.get();
    bus_.add_device(Uart::kDefaultBase, Uart::kWindowSize, std::move(uart));
  }
  if (config_.map_clint) {
    auto clint = std::make_unique<Clint>();
    clint_ = clint.get();
    bus_.add_device(Clint::kDefaultBase, Clint::kWindowSize, std::move(clint));
  }
  if (config_.map_gpio) {
    auto gpio = std::make_unique<Gpio>();
    gpio_ = gpio.get();
    bus_.add_device(Gpio::kDefaultBase, Gpio::kWindowSize, std::move(gpio));
  }
  if (config_.map_testdev) {
    auto testdev = std::make_unique<TestDevice>([this](int code) {
      if (!pending_stop_) {
        pending_stop_ = PendingStop{StopReason::kExitTestDevice, code, 0, ""};
      }
    });
    bus_.add_device(TestDevice::kDefaultBase, TestDevice::kWindowSize,
                    std::move(testdev));
  }
  vm_handle_ = std::make_unique<s4e_vm>(s4e_vm{this});
  refresh_ram_window();
  reset();
}

void Machine::refresh_ram_window() noexcept {
  const Bus::RamWindow window = bus_.ram_window(config_.ram_base);
  ram_data_ = window.data;
  ram_dirty_ = window.dirty;
  ram_base_ = window.base;
  ram_size_ = window.size;
}

Machine::~Machine() = default;

s4e_vm* Machine::vm_handle() noexcept { return vm_handle_.get(); }

void Machine::reset(bool clear_ram) {
  // Stacks grow down from the top of RAM with a 16-byte red zone; SMP harts
  // get staggered stack tops so bare-metal code that never partitions the
  // stack itself still runs (hart 0 keeps the exact single-hart layout).
  const u32 stack_stride =
      num_harts_ > 1 ? (config_.ram_size / (2 * num_harts_)) & ~u32{15} : 0;
  for (unsigned h = 0; h < num_harts_; ++h) {
    Hart& hart = harts_[h];
    hart.cpu = CpuState{};
    hart.cpu.pc = config_.ram_base;
    hart.cpu.write_gpr(2,
                       config_.ram_base + config_.ram_size - 16 -
                           h * stack_stride);
    hart.res_valid = false;
    hart.res_addr = 0;
    hart_stats_[h] = EngineStats{};
    hart_icount_[h] = 0;
  }
  active_hart_ = 0;
  cpu_ = harts_[0].cpu;
  reservations_active_ = 0;
  slice_start_icount_ = 0;
  slice_end_ = smp_ ? config_.smp_slice_quantum : 0;
  icount_ = 0;
  cycles_ = 0;
  pending_stop_.reset();
  debug_stop_request_ = false;
  chain_epoch_recheck_ = false;
  estats_ = EngineStats{};
  update_debug_check();
  tb_cache_.flush();
  icache_.reset(config_.timing);
  bimodal_.reset();
  bus_.reset_devices();
  if (clear_ram) {
    std::vector<u8> zeros(config_.ram_size, 0);
    (void)bus_.ram_write(config_.ram_base, zeros.data(), config_.ram_size);
  }
}

void Machine::sync_active_hart() {
  harts_[active_hart_].cpu = cpu_;
  hart_stats_[active_hart_] = estats_;
  hart_icount_[active_hart_] += icount_ - slice_start_icount_;
  slice_start_icount_ = icount_;
}

void Machine::rotate_hart() {
  sync_active_hart();
  active_hart_ = (active_hart_ + 1) % num_harts_;
  cpu_ = harts_[active_hart_].cpu;
  estats_ = hart_stats_[active_hart_];
  slice_end_ = saturating_add(icount_, config_.smp_slice_quantum);
  // The incoming hart's mie/mstatus may gate the fast path differently.
  chain_epoch_recheck_ = true;
}

void Machine::clear_remote_reservations(u32 address, unsigned size) noexcept {
  for (unsigned h = 0; h < num_harts_; ++h) {
    if (h == active_hart_) continue;
    Hart& hart = harts_[h];
    if (hart.res_valid && address < hart.res_addr + 4 &&
        address + size > hart.res_addr) {
      hart.res_valid = false;
      --reservations_active_;
    }
  }
}

void Machine::save_state(Snapshot& snap) {
  sync_active_hart();
  snap.cpu = cpu_;
  snap.harts = harts_;
  snap.active_hart = active_hart_;
  snap.slice_end = slice_end_;
  snap.slice_start_icount = slice_start_icount_;
  snap.hart_icount = hart_icount_;
  snap.icount = icount_;
  snap.cycles = cycles_;
  snap.icache_misses = icache_.misses();
  snap.icache_tags = icache_.tags();
  snap.bimodal = bimodal_.table();
  bus_.ram_snapshot(snap.ram);
  bus_.save_device_state(snap.device_state);
  snap.valid = true;
  ++snap_stats_.snapshots;
}

void Machine::restore_state(const Snapshot& snap) {
  S4E_CHECK_MSG(snap.valid, "restore from an empty Snapshot");
  S4E_CHECK_MSG(snap.harts.size() == harts_.size(),
                "snapshot hart count mismatch");
  harts_ = snap.harts;
  active_hart_ = snap.active_hart;
  slice_end_ = snap.slice_end;
  slice_start_icount_ = snap.slice_start_icount;
  hart_icount_ = snap.hart_icount;
  reservations_active_ = 0;
  for (const Hart& hart : harts_) {
    if (hart.res_valid) ++reservations_active_;
  }
  cpu_ = snap.cpu;
  icount_ = snap.icount;
  cycles_ = snap.cycles;
  icache_.restore(snap.icache_tags, snap.icache_misses);
  bimodal_.table() = snap.bimodal;
  pending_stop_.reset();
  tb_flush_pending_ = false;
  chain_epoch_recheck_ = false;
  scratch_block_.reset();
  // Dirty pages carry everything the run wrote — including patched code, so
  // invalidating the blocks on restored pages is exactly what keeps the
  // warm TB cache consistent with the restored RAM.
  std::vector<std::pair<u32, u32>> restored;
  snap_stats_.pages_copied += bus_.ram_restore(snap.ram, &restored);
  snap_stats_.pages_total += bus_.ram_pages();
  for (const auto& [address, size] : restored) {
    snap_stats_.tb_blocks_invalidated +=
        tb_cache_.invalidate_range(address, size);
  }
  bus_.restore_device_state(snap.device_state);
  ++snap_stats_.restores;
}

void Machine::invalidate_code(u32 address, u32 size) {
  tb_cache_.invalidate_range(address, size);
  scratch_block_.reset();
}

void Machine::add_breakpoint(u32 address) {
  if (!breakpoints_.insert(address).second) return;
  // A block translated before this insert may carry the breakpointed
  // instruction mid-block where the dispatch check cannot see it; drop any
  // such block so retranslation splits at the breakpoint.
  tb_cache_.invalidate_range(address, 2);
  scratch_block_.reset();
  update_debug_check();
}

bool Machine::remove_breakpoint(u32 address) {
  if (breakpoints_.erase(address) == 0) return false;
  // Let the splits around the removed breakpoint re-merge into full blocks.
  tb_cache_.invalidate_range(address, 2);
  scratch_block_.reset();
  update_debug_check();
  return true;
}

bool Machine::has_breakpoint(u32 address) const noexcept {
  return breakpoints_.count(address) != 0;
}

void Machine::clear_breakpoints() {
  for (u32 address : breakpoints_) tb_cache_.invalidate_range(address, 2);
  breakpoints_.clear();
  scratch_block_.reset();
  update_debug_check();
}

void Machine::add_watchpoint(u32 address, u32 length, WatchKind kind) {
  const Watchpoint wp{address, length == 0 ? 1 : length, kind};
  for (const Watchpoint& existing : watchpoints_) {
    if (existing == wp) return;
  }
  watchpoints_.push_back(wp);
  update_mem_slow();
}

bool Machine::remove_watchpoint(u32 address, u32 length, WatchKind kind) {
  const Watchpoint wp{address, length == 0 ? 1 : length, kind};
  for (auto it = watchpoints_.begin(); it != watchpoints_.end(); ++it) {
    if (*it == wp) {
      watchpoints_.erase(it);
      update_mem_slow();
      return true;
    }
  }
  return false;
}

void Machine::clear_watchpoints() {
  watchpoints_.clear();
  update_mem_slow();
}

void Machine::check_watchpoints(u32 address, unsigned size, bool is_store) {
  if (pending_stop_) return;
  for (const Watchpoint& wp : watchpoints_) {
    const bool kind_matches =
        wp.kind == WatchKind::kAccess ||
        (is_store ? wp.kind == WatchKind::kWrite
                  : wp.kind == WatchKind::kRead);
    if (!kind_matches) continue;
    if (address < wp.address + wp.length && address + size > wp.address) {
      PendingStop stop{StopReason::kDebugWatch, 0, 0,
                       format("watchpoint at 0x%08x (%s access to 0x%08x)",
                              wp.address,
                              is_store ? "store" : "load", address),
                       address, wp.kind};
      pending_stop_ = std::move(stop);
      return;
    }
  }
}

void Machine::clear_plugins() noexcept {
  tb_trans_cbs_.clear();
  tb_exec_cbs_.clear();
  insn_exec_cbs_.clear();
  mem_cbs_.clear();
  trap_cbs_.clear();
  exit_cbs_.clear();
  update_mem_slow();
}

Status Machine::load_program(const assembler::Program& program) {
  for (const auto& section : program.sections) {
    if (section.bytes.empty()) continue;
    S4E_TRY_STATUS(bus_.ram_write(section.base, section.bytes.data(),
                                  static_cast<u32>(section.bytes.size())));
  }
  // Every hart starts at the entry point; SMP programs branch on mhartid.
  cpu_.pc = program.entry;
  for (Hart& hart : harts_) hart.cpu.pc = program.entry;
  tb_cache_.flush();
  return Status();
}

s4e_insn_info Machine::to_insn_info(const Instr& instr, u32 address) {
  s4e_insn_info info{};
  info.address = address;
  info.encoding = instr.raw;
  info.op = static_cast<u16>(instr.op);
  info.op_class = static_cast<u8>(instr.info().op_class);
  info.rd = instr.rd;
  info.rs1 = instr.rs1;
  info.rs2 = instr.rs2;
  info.csr = instr.csr;
  info.imm = instr.imm;
  return info;
}

TranslationBlock* Machine::translate(u32 pc) {
  auto block = std::make_unique<TranslationBlock>();
  block->start = pc;
  u32 address = pc;
  while (block->insns.size() < TbCache::kMaxBlockInsns) {
    // A debug breakpoint must sit at a block head so the per-block dispatch
    // check can stop before executing it: end the block when the *next*
    // instruction is breakpointed. (A breakpoint at the block's own start is
    // fine — dispatch already stopped there, or we are resuming over it.)
    if (!breakpoints_.empty() && !block->insns.empty() &&
        breakpoints_.count(address) != 0) {
      break;
    }
    // Fetch the first 16-bit parcel to distinguish RVC from 32-bit forms.
    auto half = bus_.fetch_half(address);
    if (!half.ok()) {
      if (block->insns.empty()) {
        // Instruction access fault at the block head.
        take_trap(1 /* instruction access fault */, address, false);
        return nullptr;
      }
      break;  // fault will be taken when (if) execution reaches it
    }
    Instr instr;
    if (isa::is_compressed(static_cast<u16>(*half))) {
      auto decompressed = isa::decompress(static_cast<u16>(*half));
      if (!decompressed.ok()) {
        if (block->insns.empty()) {
          take_trap(kCauseIllegalInstruction, *half, false);
          return nullptr;
        }
        break;
      }
      instr = *decompressed;
    } else {
      auto word = bus_.fetch_word(address);
      if (!word.ok() || !isa::decoder().try_decode(*word, instr)) {
        if (block->insns.empty()) {
          take_trap(kCauseIllegalInstruction, word.ok() ? *word : *half,
                    false);
          return nullptr;
        }
        break;
      }
    }
    block->insns.push_back(instr);
    address += instr.length;
    if (instr.is_control_flow()) break;
    // WFI must end the block: the timer interrupt it waits for is only
    // delivered at block boundaries.
    if (instr.op == Op::kWfi) break;
  }
  block->byte_size = address - pc;
  lower_block(*block);

  if (!tb_trans_cbs_.empty()) {
    std::vector<s4e_insn_info> infos;
    infos.reserve(block->insns.size());
    u32 a = block->start;
    for (const Instr& instr : block->insns) {
      infos.push_back(to_insn_info(instr, a));
      a += instr.length;
    }
    s4e_tb_info tb_info{block->start, static_cast<u32>(infos.size()),
                        infos.data()};
    for (const auto& reg : tb_trans_cbs_) {
      reg.callback(reg.userdata, vm_handle(), &tb_info);
    }
  }

  if (config_.enable_tb_cache) {
    return tb_cache_.insert(std::move(block));
  }
  // Uncached (pure-interpreter ablation): hand the block to a scratch slot.
  scratch_block_ = std::move(block);
  return scratch_block_.get();
}

void Machine::take_trap(u32 cause, u32 tval, bool interrupt) {
  if (!trap_cbs_.empty()) {
    s4e_trap_event event{cause | (interrupt ? kCauseInterrupt : 0u),
                         cpu_.pc, tval};
    for (const auto& reg : trap_cbs_) {
      reg.callback(reg.userdata, vm_handle(), &event);
    }
  }
  CsrFile& csr = cpu_.csr;
  if (csr.mtvec == 0) {
    // No handler installed: stop the simulation (fault campaigns classify
    // this as a crash).
    if (!pending_stop_) {
      StopReason reason = StopReason::kTrapUnhandled;
      if (!interrupt && cause == kCauseBreakpoint) reason = StopReason::kEbreak;
      pending_stop_ = PendingStop{
          reason, -1, cause | (interrupt ? kCauseInterrupt : 0u),
          format("unhandled trap cause=%u tval=0x%08x at pc=0x%08x", cause,
                 tval, cpu_.pc)};
    }
    return;
  }
  csr.mcause = cause | (interrupt ? kCauseInterrupt : 0u);
  csr.mepc = cpu_.pc;
  csr.mtval = tval;
  // Push MIE -> MPIE, clear MIE.
  const bool mie = (csr.mstatus & kMstatusMie) != 0;
  csr.mstatus &= ~(kMstatusMie | kMstatusMpie);
  if (mie) csr.mstatus |= kMstatusMpie;
  const u32 base = csr.mtvec & ~u32{3};
  const bool vectored = (csr.mtvec & 3) == 1;
  cpu_.pc = (vectored && interrupt) ? base + 4 * cause : base;
  cycles_ += timing_.params().trap_cycles;
}

void Machine::check_interrupts() {
  if (clint_ == nullptr) return;
  // Level-triggered MIP bits mirror the active hart's CLINT banks.
  if (clint_->timer_pending(active_hart_)) {
    cpu_.csr.mip |= kMipMtip;
  } else {
    cpu_.csr.mip &= ~kMipMtip;
  }
  if (clint_->software_pending(active_hart_)) {
    cpu_.csr.mip |= kMipMsip;
  } else {
    cpu_.csr.mip &= ~kMipMsip;
  }
  if ((cpu_.csr.mstatus & kMstatusMie) == 0) return;
  const u32 pending = cpu_.csr.mie & cpu_.csr.mip;
  // Architectural priority: software interrupts before timer.
  if ((pending & kMipMsip) != 0) {
    take_trap(3, 0, true);
  } else if ((pending & kMipMtip) != 0) {
    take_trap(7, 0, true);
  }
}

void Machine::probe_icache(u32 block_pc) {
  if (!icache_.enabled()) return;
  const TimingParams& params = timing_.params();
  if (icache_.probe(block_pc, params)) cycles_ += params.icache_miss_cycles;
}

void Machine::fire_mem_cb(u32 vaddr, u32 value, unsigned size, bool is_store) {
  s4e_mem_event event{current_insn_pc_, vaddr, value, static_cast<u8>(size),
                      static_cast<u8>(is_store ? 1 : 0)};
  for (const auto& reg : mem_cbs_) {
    reg.callback(reg.userdata, vm_handle(), &event);
  }
}

// ---------------------------------------------------------------------------
// Threaded-dispatch execution engine.
//
// Every instruction is lowered at translate time into a DecodedInsn carrying
// a direct handler pointer (see exec_engine.hpp); the per-instruction switch
// the old engine paid on every execution is gone from the hot path. The
// handlers below replicate the old Machine::execute semantics exactly —
// operand order, trap-entry pc, stop-path pc, and the single timing charge
// per instruction (precomputed as c_fall/c_taken/c_mmio) are all preserved,
// which is what keeps chained and unchained execution bit-identical.
//
// Handler contract:
//   kNext          fell through; cpu_.pc was NOT updated (the fast loop
//                  skips the store; the careful loop writes d.link).
//                  Handlers that can also stop (loads/stores) write d.link
//                  themselves before returning kNext — a harmless re-store.
//   kNextSpliced   superblock interior edge continued off the fall-through
//                  (jal splice, taken-branch splice); the handler set pc.
//   kTakenStatic / kTakenIndirect / kSideExit / kStop
//                  the handler set cpu_.pc (for traps: before take_trap, so
//                  mepc and the trap-callback pc are exact).

namespace {

struct CmpEq {
  static bool eval(u32 a, u32 b) noexcept { return a == b; }
};
struct CmpNe {
  static bool eval(u32 a, u32 b) noexcept { return a != b; }
};
struct CmpLt {
  static bool eval(u32 a, u32 b) noexcept {
    return static_cast<i32>(a) < static_cast<i32>(b);
  }
};
struct CmpGe {
  static bool eval(u32 a, u32 b) noexcept {
    return static_cast<i32>(a) >= static_cast<i32>(b);
  }
};
struct CmpLtu {
  static bool eval(u32 a, u32 b) noexcept { return a < b; }
};
struct CmpGeu {
  static bool eval(u32 a, u32 b) noexcept { return a >= b; }
};

// AMO combine functions: eval(old_memory_value, rs2) -> value stored back.
struct AmoSwap {
  static u32 eval(u32, u32 b) noexcept { return b; }
};
struct AmoAdd {
  static u32 eval(u32 a, u32 b) noexcept { return a + b; }
};
struct AmoXor {
  static u32 eval(u32 a, u32 b) noexcept { return a ^ b; }
};
struct AmoOr {
  static u32 eval(u32 a, u32 b) noexcept { return a | b; }
};
struct AmoAnd {
  static u32 eval(u32 a, u32 b) noexcept { return a & b; }
};
struct AmoMin {
  static u32 eval(u32 a, u32 b) noexcept {
    return static_cast<i32>(a) < static_cast<i32>(b) ? a : b;
  }
};
struct AmoMax {
  static u32 eval(u32 a, u32 b) noexcept {
    return static_cast<i32>(a) > static_cast<i32>(b) ? a : b;
  }
};
struct AmoMinu {
  static u32 eval(u32 a, u32 b) noexcept { return a < b ? a : b; }
};
struct AmoMaxu {
  static u32 eval(u32 a, u32 b) noexcept { return a > b ? a : b; }
};

}  // namespace

struct ExecOps {
  using O = ExecOutcome;

#define S4E_DEF_ALU(NAME, EXPR)                               \
  static O NAME(Machine& m, const DecodedInsn& d) {           \
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);                   \
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);                   \
    const i32 srs1 = static_cast<i32>(rs1);                   \
    const i32 srs2 = static_cast<i32>(rs2);                   \
    (void)rs1, (void)rs2, (void)srs1, (void)srs2;             \
    m.cpu_.write_gpr(d.rd, (EXPR));                           \
    m.cycles_ += d.c_fall;                                    \
    return O::kNext;                                          \
  }

  S4E_DEF_ALU(lui, static_cast<u32>(d.imm))
  S4E_DEF_ALU(auipc, d.pc + static_cast<u32>(d.imm))
  S4E_DEF_ALU(addi, rs1 + static_cast<u32>(d.imm))
  S4E_DEF_ALU(slti, srs1 < d.imm ? 1u : 0u)
  S4E_DEF_ALU(sltiu, rs1 < static_cast<u32>(d.imm) ? 1u : 0u)
  S4E_DEF_ALU(xori, rs1 ^ static_cast<u32>(d.imm))
  S4E_DEF_ALU(ori, rs1 | static_cast<u32>(d.imm))
  S4E_DEF_ALU(andi, rs1 & static_cast<u32>(d.imm))
  S4E_DEF_ALU(slli, rs1 << d.rs2)
  S4E_DEF_ALU(srli, rs1 >> d.rs2)
  S4E_DEF_ALU(srai, static_cast<u32>(srs1 >> d.rs2))
  S4E_DEF_ALU(add, rs1 + rs2)
  S4E_DEF_ALU(sub, rs1 - rs2)
  S4E_DEF_ALU(sll, rs1 << (rs2 & 31))
  S4E_DEF_ALU(slt, srs1 < srs2 ? 1u : 0u)
  S4E_DEF_ALU(sltu, rs1 < rs2 ? 1u : 0u)
  S4E_DEF_ALU(xor_, rs1 ^ rs2)
  S4E_DEF_ALU(srl, rs1 >> (rs2 & 31))
  S4E_DEF_ALU(sra, static_cast<u32>(srs1 >> (rs2 & 31)))
  S4E_DEF_ALU(or_, rs1 | rs2)
  S4E_DEF_ALU(and_, rs1 & rs2)
  S4E_DEF_ALU(mul, rs1 * rs2)
  S4E_DEF_ALU(mulh, static_cast<u32>(
                        (static_cast<i64>(srs1) * static_cast<i64>(srs2)) >> 32))
  S4E_DEF_ALU(mulhsu,
              static_cast<u32>((static_cast<i64>(srs1) *
                                static_cast<i64>(static_cast<u64>(rs2))) >> 32))
  S4E_DEF_ALU(mulhu, static_cast<u32>(
                         (static_cast<u64>(rs1) * static_cast<u64>(rs2)) >> 32))
#undef S4E_DEF_ALU

  static O div_(Machine& m, const DecodedInsn& d) {
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);
    u32 out;
    if (rs2 == 0) {
      out = ~u32{0};
    } else if (rs1 == 0x8000'0000u && rs2 == ~u32{0}) {
      out = 0x8000'0000u;  // overflow
    } else {
      out = static_cast<u32>(static_cast<i32>(rs1) / static_cast<i32>(rs2));
    }
    m.cpu_.write_gpr(d.rd, out);
    m.cycles_ += d.c_fall + m.timing_.divide_cycles(rs1);
    return O::kNext;
  }
  static O divu(Machine& m, const DecodedInsn& d) {
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);
    m.cpu_.write_gpr(d.rd, rs2 == 0 ? ~u32{0} : rs1 / rs2);
    m.cycles_ += d.c_fall + m.timing_.divide_cycles(rs1);
    return O::kNext;
  }
  static O rem(Machine& m, const DecodedInsn& d) {
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);
    u32 out;
    if (rs2 == 0) {
      out = rs1;
    } else if (rs1 == 0x8000'0000u && rs2 == ~u32{0}) {
      out = 0;
    } else {
      out = static_cast<u32>(static_cast<i32>(rs1) % static_cast<i32>(rs2));
    }
    m.cpu_.write_gpr(d.rd, out);
    m.cycles_ += d.c_fall + m.timing_.divide_cycles(rs1);
    return O::kNext;
  }
  static O remu(Machine& m, const DecodedInsn& d) {
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);
    m.cpu_.write_gpr(d.rd, rs2 == 0 ? rs1 : rs1 % rs2);
    m.cycles_ += d.c_fall + m.timing_.divide_cycles(rs1);
    return O::kNext;
  }

  static O fence(Machine& m, const DecodedInsn& d) {
    m.cycles_ += d.c_fall;
    return O::kNext;
  }

  static O jal(Machine& m, const DecodedInsn& d) {
    m.cpu_.write_gpr(d.rd, d.link);
    m.cycles_ += d.c_taken;
    m.cpu_.pc = d.target;
    return O::kTakenStatic;
  }
  // Superblock splice: the jump continues inline into the spliced target.
  static O jal_spliced(Machine& m, const DecodedInsn& d) {
    m.cpu_.write_gpr(d.rd, d.link);
    m.cycles_ += d.c_taken;
    m.cpu_.pc = d.target;
    return O::kNextSpliced;
  }
  static O jalr(Machine& m, const DecodedInsn& d) {
    const u32 target =
        (m.cpu_.read_gpr(d.rs1) + static_cast<u32>(d.imm)) & ~u32{1};
    m.cpu_.write_gpr(d.rd, d.link);
    m.cycles_ += d.c_taken;
    m.cpu_.pc = target;
    return O::kTakenIndirect;
  }

  // kMode 0: block terminator. kMode 1: spliced fall-through edge (a taken
  // branch side-exits the superblock). kMode 2: spliced taken edge (the
  // taken path continues inline; fall-through side-exits).
  template <typename Cmp, bool kPredictor, int kMode>
  static O branch(Machine& m, const DecodedInsn& d) {
    const bool taken = Cmp::eval(m.cpu_.read_gpr(d.rs1), m.cpu_.read_gpr(d.rs2));
    bool penalize = taken;
    if constexpr (kPredictor) {
      // Bimodal 2-bit predictor: penalty only on mispredicts (in either
      // direction); the table is indexed by the branch PC.
      penalize = m.bimodal_.mispredict(d.pc, taken);
    }
    m.cycles_ += penalize ? d.c_taken : d.c_fall;
    if constexpr (kMode == 2) {
      if (taken) {
        m.cpu_.pc = d.target;
        return O::kNextSpliced;
      }
      m.cpu_.pc = d.link;
      return O::kSideExit;
    } else {
      if (taken) {
        m.cpu_.pc = d.target;
        return kMode == 1 ? O::kSideExit : O::kTakenStatic;
      }
      return O::kNext;
    }
  }

  template <unsigned kSize, unsigned kSignBits>
  static O load(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1) + static_cast<u32>(d.imm);
    const u32 offset = address - m.ram_base_;
    if (!m.mem_slow_ && offset <= m.ram_size_ - kSize) [[likely]] {
      const u8* p = m.ram_data_ + offset;
      u32 value;
      if constexpr (kSize == 1) {
        value = p[0];
      } else if constexpr (kSize == 2) {
        value = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8);
      } else {
        value = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
                (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
      }
      if constexpr (kSignBits != 0) {
        value = static_cast<u32>(sign_extend(value, kSignBits));
      }
      m.cpu_.write_gpr(d.rd, value);
      m.cycles_ += d.c_fall;
      return O::kNext;
    }
    return slow_load<kSize, kSignBits>(m, d, address);
  }

  template <unsigned kSize, unsigned kSignBits>
  static O slow_load(Machine& m, const DecodedInsn& d, u32 address) {
    // Devices are ticked on demand before an MMIO data access, so a guest
    // mtime read (or any time-derived device state) is exact at the access
    // cycle in every dispatch mode — the chained engine would otherwise
    // observe device time only at chain exits.
    if (!m.bus_.is_ram(address, kSize)) m.bus_.tick(m.cycles_);
    auto result = m.bus_.read(address, kSize);
    if (!result.ok()) {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseLoadFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    u32 value = result->value;
    if constexpr (kSignBits != 0) {
      value = static_cast<u32>(sign_extend(value, kSignBits));
    }
    m.cpu_.write_gpr(d.rd, value);
    if (!m.mem_cbs_.empty()) {
      m.current_insn_pc_ = d.pc;
      m.fire_mem_cb(address, value, kSize, false);
    }
    if (!m.watchpoints_.empty()) m.check_watchpoints(address, kSize, false);
    m.cycles_ += result->mmio ? d.c_mmio : d.c_fall;
    m.cpu_.pc = d.link;
    return m.pending_stop_ ? O::kStop : O::kNext;
  }

  template <unsigned kSize>
  static O store(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1) + static_cast<u32>(d.imm);
    const u32 value = m.cpu_.read_gpr(d.rs2) &
                      (kSize == 4 ? ~u32{0} : (u32{1} << (8 * kSize)) - 1);
    const u32 offset = address - m.ram_base_;
    if (!m.mem_slow_ && offset <= m.ram_size_ - kSize) [[likely]] {
      u8* p = m.ram_data_ + offset;
      p[0] = static_cast<u8>(value);
      if constexpr (kSize >= 2) p[1] = static_cast<u8>(value >> 8);
      if constexpr (kSize == 4) {
        p[2] = static_cast<u8>(value >> 16);
        p[3] = static_cast<u8>(value >> 24);
      }
      // Inline dirty marking — must match Bus::RamRegion::mark_dirty
      // exactly or snapshot restores would miss pages.
      const u32 first_page = offset / kRamPageBytes;
      const u32 last_page = (offset + kSize - 1) / kRamPageBytes;
      m.ram_dirty_[first_page >> 6] |= u64{1} << (first_page & 63);
      if (last_page != first_page) {
        m.ram_dirty_[last_page >> 6] |= u64{1} << (last_page & 63);
      }
      if (m.reservations_active_ != 0) [[unlikely]] {
        m.clear_remote_reservations(address, kSize);
      }
      m.cycles_ += d.c_fall;
      if (m.tb_cache_.overlaps_code(address, kSize)) [[unlikely]] {
        // Self-modifying code: flush at the block boundary.
        m.tb_flush_pending_ = true;
        m.cpu_.pc = d.link;
        return O::kStop;
      }
      return O::kNext;
    }
    return slow_store<kSize>(m, d, address, value);
  }

  template <unsigned kSize>
  static O slow_store(Machine& m, const DecodedInsn& d, u32 address,
                      u32 value) {
    if (!m.bus_.is_ram(address, kSize)) m.bus_.tick(m.cycles_);
    auto result = m.bus_.write(address, kSize, value);
    if (!result.ok()) {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const bool mmio = *result;
    if (!mmio && m.reservations_active_ != 0) {
      m.clear_remote_reservations(address, kSize);
    }
    if (!m.mem_cbs_.empty()) {
      m.current_insn_pc_ = d.pc;
      m.fire_mem_cb(address, value, kSize, true);
    }
    if (!m.watchpoints_.empty()) m.check_watchpoints(address, kSize, true);
    if (!mmio && m.tb_cache_.overlaps_code(address, kSize)) {
      m.tb_flush_pending_ = true;
    }
    m.cycles_ += mmio ? d.c_mmio : d.c_fall;
    m.cpu_.pc = d.link;
    return (m.pending_stop_ || m.tb_flush_pending_) ? O::kStop : O::kNext;
  }

  static O csr_op(Machine& m, const DecodedInsn& d) {
    const CsrFile::CounterView counters = m.counter_view();
    const bool imm_form = d.op == Op::kCsrrwi || d.op == Op::kCsrrsi ||
                          d.op == Op::kCsrrci;
    const u32 operand =
        imm_form ? static_cast<u32>(d.rs2) : m.cpu_.read_gpr(d.rs1);
    const bool is_write_op = d.op == Op::kCsrrw || d.op == Op::kCsrrwi;
    const bool wants_read = !is_write_op || d.rd != 0;
    const bool wants_write =
        is_write_op || (imm_form ? d.rs2 != 0 : d.rs1 != 0);
    if (wants_read && d.csr == isa::kCsrMip && m.clint_ != nullptr) {
      // Keep MTIP exact at read time in every dispatch mode: the chained
      // engine ticks devices only at chain exits, and even the careful loop
      // previously refreshed mip only at block dispatch.
      m.clint_->tick(m.cycles_);
      if (m.clint_->timer_pending()) {
        m.cpu_.csr.mip |= kMipMtip;
      } else {
        m.cpu_.csr.mip &= ~kMipMtip;
      }
    }
    u32 old_value = 0;
    if (wants_read) {
      auto value = m.cpu_.csr.read(d.csr, counters);
      if (!value.ok()) {
        m.cpu_.pc = d.pc;
        m.take_trap(kCauseIllegalInstruction, d.raw, false);
        m.cycles_ += d.c_taken;
        return O::kStop;
      }
      old_value = *value;
    }
    if (wants_write) {
      u32 new_value = operand;
      if (d.op == Op::kCsrrs || d.op == Op::kCsrrsi) {
        new_value = old_value | operand;
      } else if (d.op == Op::kCsrrc || d.op == Op::kCsrrci) {
        new_value = old_value & ~operand;
      }
      if (!m.cpu_.csr.write(d.csr, new_value).ok()) {
        m.cpu_.pc = d.pc;
        m.take_trap(kCauseIllegalInstruction, d.raw, false);
        m.cycles_ += d.c_taken;
        return O::kStop;
      }
      // A write that may re-arm the timer interrupt must end the current
      // chain run so the fast-path gate re-evaluates.
      m.note_csr_written(d.csr);
    }
    m.cpu_.write_gpr(d.rd, old_value);
    m.cycles_ += d.c_fall;
    return O::kNext;
  }

  static O ecall(Machine& m, const DecodedInsn& d) {
    m.cpu_.pc = d.pc;
    // Semihosting exit convention: a7 = 93, a0 = exit code.
    if (m.cpu_.read_gpr(17) == 93) {
      m.pending_stop_ = Machine::PendingStop{StopReason::kExitEcall,
                                    static_cast<int>(m.cpu_.read_gpr(10)), 0,
                                    ""};
      // No redirect penalty: the simulation ends here rather than
      // redirecting the front-end (keeps the QTA timeline chain exact).
      m.cycles_ += d.c_fall;
      return O::kStop;
    }
    m.take_trap(kCauseEcallM, 0, false);
    m.cycles_ += d.c_taken;
    return O::kStop;
  }

  static O ebreak(Machine& m, const DecodedInsn& d) {
    m.cpu_.pc = d.pc;
    m.take_trap(kCauseBreakpoint, d.pc, false);
    m.cycles_ += d.c_taken;
    return O::kStop;
  }

  static O mret(Machine& m, const DecodedInsn& d) {
    CsrFile& csr = m.cpu_.csr;
    const u32 target = csr.mepc;
    const bool mpie = (csr.mstatus & kMstatusMpie) != 0;
    csr.mstatus &= ~kMstatusMie;
    if (mpie) csr.mstatus |= kMstatusMie;
    csr.mstatus |= kMstatusMpie;
    m.cycles_ += d.c_taken;
    m.cpu_.pc = target;
    // mret restores MIE, which can arm a pending interrupt: re-evaluate the
    // fast-path gate at the next central dispatch.
    m.chain_epoch_recheck_ = true;
    return O::kTakenIndirect;
  }

  static O wfi(Machine& m, const DecodedInsn& d) {
    if (m.num_harts_ > 1) {
      // SMP: never fast-forward time (other harts are runnable) and never
      // halt the whole machine — yield the rest of the slice and re-check
      // this hart's interrupts when it is scheduled again. A machine where
      // every hart spins in wfi makes icount progress each visit, so the
      // instruction budget still bounds it (the hang detector).
      m.cycles_ += d.c_fall;
      m.slice_end_ = m.icount_;
      m.chain_epoch_recheck_ = true;
      return O::kNext;
    }
    if ((m.cpu_.csr.mie & kMieMtie) != 0 && m.clint_ != nullptr &&
        m.clint_->mtimecmp() != ~u64{0}) {
      // Sleep until the timer fires: fast-forward modelled time.
      if (m.cycles_ < m.clint_->mtimecmp()) m.cycles_ = m.clint_->mtimecmp();
      m.cycles_ += d.c_fall;
      return O::kNext;
    }
    m.cpu_.pc = d.pc;
    m.pending_stop_ = Machine::PendingStop{StopReason::kWfiHalt, 0, 0,
                                  "wfi with timer interrupt disabled"};
    m.cycles_ += d.c_taken;
    return O::kStop;
  }

  // --- RV32A. Atomics operate on the primary RAM window only (reservations
  // and read-modify-write on device registers are not modelled): a non-RAM
  // target raises the load/store access fault the equivalent plain access
  // would, a misaligned one the address-misaligned trap the A extension
  // mandates. The handlers access RAM directly even when mem_slow_ is set,
  // so they fire memory callbacks and watchpoint checks themselves.

  static O lr_w(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1);
    if ((address & 3) != 0) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseLoadMisaligned, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const u32 offset = address - m.ram_base_;
    if (offset > m.ram_size_ - 4) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseLoadFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const u8* p = m.ram_data_ + offset;
    const u32 value = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
                      (static_cast<u32>(p[2]) << 16) |
                      (static_cast<u32>(p[3]) << 24);
    m.cpu_.write_gpr(d.rd, value);
    Hart& hart = m.harts_[m.active_hart_];
    if (!hart.res_valid) ++m.reservations_active_;
    hart.res_valid = true;
    hart.res_addr = address;
    if (m.mem_slow_) [[unlikely]] {
      if (!m.mem_cbs_.empty()) {
        m.current_insn_pc_ = d.pc;
        m.fire_mem_cb(address, value, 4, false);
      }
      if (!m.watchpoints_.empty()) m.check_watchpoints(address, 4, false);
    }
    m.cycles_ += d.c_fall;
    m.cpu_.pc = d.link;
    return m.pending_stop_ ? O::kStop : O::kNext;
  }

  static O sc_w(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1);
    if ((address & 3) != 0) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreMisaligned, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const u32 offset = address - m.ram_base_;
    if (offset > m.ram_size_ - 4) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    // SC consumes this hart's reservation whether or not it succeeds.
    Hart& hart = m.harts_[m.active_hart_];
    const bool success = hart.res_valid && hart.res_addr == address;
    if (hart.res_valid) {
      hart.res_valid = false;
      --m.reservations_active_;
    }
    if (!success) {
      m.cpu_.write_gpr(d.rd, 1);
      m.cycles_ += d.c_fall;
      return O::kNext;
    }
    const u32 value = m.cpu_.read_gpr(d.rs2);
    u8* p = m.ram_data_ + offset;
    p[0] = static_cast<u8>(value);
    p[1] = static_cast<u8>(value >> 8);
    p[2] = static_cast<u8>(value >> 16);
    p[3] = static_cast<u8>(value >> 24);
    const u32 page = offset / kRamPageBytes;
    m.ram_dirty_[page >> 6] |= u64{1} << (page & 63);
    if (m.reservations_active_ != 0) [[unlikely]] {
      m.clear_remote_reservations(address, 4);
    }
    m.cpu_.write_gpr(d.rd, 0);
    if (m.mem_slow_) [[unlikely]] {
      if (!m.mem_cbs_.empty()) {
        m.current_insn_pc_ = d.pc;
        m.fire_mem_cb(address, value, 4, true);
      }
      if (!m.watchpoints_.empty()) m.check_watchpoints(address, 4, true);
    }
    m.cycles_ += d.c_fall;
    if (m.tb_cache_.overlaps_code(address, 4)) [[unlikely]] {
      m.tb_flush_pending_ = true;
      m.cpu_.pc = d.link;
      return O::kStop;
    }
    m.cpu_.pc = d.link;
    return m.pending_stop_ ? O::kStop : O::kNext;
  }

  template <typename OpF>
  static O amo_w(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1);
    if ((address & 3) != 0) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreMisaligned, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const u32 offset = address - m.ram_base_;
    if (offset > m.ram_size_ - 4) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    u8* p = m.ram_data_ + offset;
    const u32 old = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
                    (static_cast<u32>(p[2]) << 16) |
                    (static_cast<u32>(p[3]) << 24);
    const u32 next = OpF::eval(old, m.cpu_.read_gpr(d.rs2));
    p[0] = static_cast<u8>(next);
    p[1] = static_cast<u8>(next >> 8);
    p[2] = static_cast<u8>(next >> 16);
    p[3] = static_cast<u8>(next >> 24);
    const u32 page = offset / kRamPageBytes;
    m.ram_dirty_[page >> 6] |= u64{1} << (page & 63);
    if (m.reservations_active_ != 0) [[unlikely]] {
      m.clear_remote_reservations(address, 4);
    }
    m.cpu_.write_gpr(d.rd, old);
    if (m.mem_slow_) [[unlikely]] {
      if (!m.mem_cbs_.empty()) {
        m.current_insn_pc_ = d.pc;
        m.fire_mem_cb(address, old, 4, false);   // the read half
        m.fire_mem_cb(address, next, 4, true);   // the write half
      }
      if (!m.watchpoints_.empty()) {
        m.check_watchpoints(address, 4, true);
        if (!m.pending_stop_) m.check_watchpoints(address, 4, false);
      }
    }
    m.cycles_ += d.c_fall;
    if (m.tb_cache_.overlaps_code(address, 4)) [[unlikely]] {
      m.tb_flush_pending_ = true;
      m.cpu_.pc = d.link;
      return O::kStop;
    }
    m.cpu_.pc = d.link;
    return m.pending_stop_ ? O::kStop : O::kNext;
  }

  template <typename Cmp>
  static ExecHandler pick_branch(bool predictor, int mode) {
    switch (mode) {
      case 1:
        return predictor ? &branch<Cmp, true, 1> : &branch<Cmp, false, 1>;
      case 2:
        return predictor ? &branch<Cmp, true, 2> : &branch<Cmp, false, 2>;
      default:
        return predictor ? &branch<Cmp, true, 0> : &branch<Cmp, false, 0>;
    }
  }

  static ExecHandler branch_variant(Op op, bool predictor, int mode) {
    switch (op) {
      case Op::kBeq: return pick_branch<CmpEq>(predictor, mode);
      case Op::kBne: return pick_branch<CmpNe>(predictor, mode);
      case Op::kBlt: return pick_branch<CmpLt>(predictor, mode);
      case Op::kBge: return pick_branch<CmpGe>(predictor, mode);
      case Op::kBltu: return pick_branch<CmpLtu>(predictor, mode);
      case Op::kBgeu: return pick_branch<CmpGeu>(predictor, mode);
      default: return nullptr;
    }
  }

  static ExecHandler select(const Instr& in, bool predictor) {
    switch (in.op) {
      case Op::kLui: return &lui;
      case Op::kAuipc: return &auipc;
      case Op::kJal: return &jal;
      case Op::kJalr: return &jalr;
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBltu:
      case Op::kBgeu: return branch_variant(in.op, predictor, 0);
      case Op::kLb: return &load<1, 8>;
      case Op::kLh: return &load<2, 16>;
      case Op::kLw: return &load<4, 0>;
      case Op::kLbu: return &load<1, 0>;
      case Op::kLhu: return &load<2, 0>;
      case Op::kSb: return &store<1>;
      case Op::kSh: return &store<2>;
      case Op::kSw: return &store<4>;
      case Op::kAddi: return &addi;
      case Op::kSlti: return &slti;
      case Op::kSltiu: return &sltiu;
      case Op::kXori: return &xori;
      case Op::kOri: return &ori;
      case Op::kAndi: return &andi;
      case Op::kSlli: return &slli;
      case Op::kSrli: return &srli;
      case Op::kSrai: return &srai;
      case Op::kAdd: return &add;
      case Op::kSub: return &sub;
      case Op::kSll: return &sll;
      case Op::kSlt: return &slt;
      case Op::kSltu: return &sltu;
      case Op::kXor: return &xor_;
      case Op::kSrl: return &srl;
      case Op::kSra: return &sra;
      case Op::kOr: return &or_;
      case Op::kAnd: return &and_;
      case Op::kFence: return &fence;
      case Op::kEcall: return &ecall;
      case Op::kEbreak: return &ebreak;
      case Op::kMul: return &mul;
      case Op::kMulh: return &mulh;
      case Op::kMulhsu: return &mulhsu;
      case Op::kMulhu: return &mulhu;
      case Op::kDiv: return &div_;
      case Op::kDivu: return &divu;
      case Op::kRem: return &rem;
      case Op::kRemu: return &remu;
      case Op::kCsrrw:
      case Op::kCsrrs:
      case Op::kCsrrc:
      case Op::kCsrrwi:
      case Op::kCsrrsi:
      case Op::kCsrrci: return &csr_op;
      case Op::kMret: return &mret;
      case Op::kWfi: return &wfi;
      case Op::kLrW: return &lr_w;
      case Op::kScW: return &sc_w;
      case Op::kAmoswapW: return &amo_w<AmoSwap>;
      case Op::kAmoaddW: return &amo_w<AmoAdd>;
      case Op::kAmoxorW: return &amo_w<AmoXor>;
      case Op::kAmoorW: return &amo_w<AmoOr>;
      case Op::kAmoandW: return &amo_w<AmoAnd>;
      case Op::kAmominW: return &amo_w<AmoMin>;
      case Op::kAmomaxW: return &amo_w<AmoMax>;
      case Op::kAmominuW: return &amo_w<AmoMinu>;
      case Op::kAmomaxuW: return &amo_w<AmoMaxu>;
      case Op::kCount: break;
    }
    S4E_CHECK_MSG(false, "invalid Op in translated block");
    return nullptr;
  }
};

s4e_insn_info Machine::to_insn_info(const DecodedInsn& decoded) {
  s4e_insn_info info{};
  info.address = decoded.pc;
  info.encoding = decoded.raw;
  info.op = static_cast<u16>(decoded.op);
  info.op_class = static_cast<u8>(isa::op_info(decoded.op).op_class);
  info.rd = decoded.rd;
  info.rs1 = decoded.rs1;
  info.rs2 = decoded.rs2;
  info.csr = decoded.csr;
  info.imm = decoded.imm;
  return info;
}

void Machine::lower_block(TranslationBlock& block) {
  const TimingParams& params = timing_.params();
  const bool predictor = params.branch_predictor;
  block.code.clear();
  block.code.reserve(block.insns.size());
  u32 pc = block.start;
  for (const Instr& in : block.insns) {
    DecodedInsn d;
    d.pc = pc;
    d.link = pc + in.length;
    d.imm = in.imm;
    d.target = pc + static_cast<u32>(in.imm);
    d.raw = in.raw;
    d.csr = in.csr;
    d.op = in.op;
    d.rd = in.rd;
    d.rs1 = in.rs1;
    d.rs2 = in.rs2;
    d.length = in.length;
    if (in.info().op_class == isa::OpClass::kDiv) {
      // Divides charge base + divide_cycles(rs1) in the handler (the
      // operand-dependent part cannot be precomputed).
      d.c_fall = params.base_cycles;
      d.c_taken = params.base_cycles;
      d.c_mmio = params.base_cycles;
    } else {
      d.c_fall = timing_.dynamic_cycles(in, false, 0, 0, false);
      d.c_taken = timing_.dynamic_cycles(in, true, 0, 0, false);
      d.c_mmio = timing_.dynamic_cycles(in, false, 0, 0, true);
    }
    d.fn = ExecOps::select(in, predictor);
    block.code.push_back(d);
    pc = d.link;
  }
  block.fall_pc = block.start + block.byte_size;
  block.taken_pc = 0;
  if (!block.insns.empty()) {
    const Instr& last = block.insns.back();
    if (last.is_branch() || last.op == Op::kJal) {
      block.taken_pc = block.code.back().target;
    }
  }
}

Machine::BlockExit Machine::exec_block_fast(TranslationBlock* tb) {
  const DecodedInsn* d = tb->code.data();
  const DecodedInsn* const end = d + tb->code.size();
  for (;;) {
    ++icount_;
    const ExecOutcome out = d->fn(*this, *d);
    if (static_cast<u8>(out) <=
        static_cast<u8>(ExecOutcome::kNextSpliced)) [[likely]] {
      if (++d != end) continue;
      cpu_.pc = tb->fall_pc;
      return BlockExit::kFall;
    }
    switch (out) {
      case ExecOutcome::kTakenStatic: return BlockExit::kTaken;
      case ExecOutcome::kTakenIndirect: return BlockExit::kIndirect;
      case ExecOutcome::kSideExit: return BlockExit::kSide;
      default: return BlockExit::kStopped;
    }
  }
}

void Machine::exec_insns_careful(TranslationBlock* tb, u64 limit) {
  const bool have_insn_cbs = !insn_exec_cbs_.empty();
  s4e_vm* vm = vm_handle_.get();
  for (const DecodedInsn& d : tb->code) {
    if (icount_ >= limit) break;
    if (have_insn_cbs) {
      const s4e_insn_info info = to_insn_info(d);
      for (const auto& reg : insn_exec_cbs_) {
        reg.callback(reg.userdata, vm, &info);
      }
    }
    ++icount_;
    const ExecOutcome out = d.fn(*this, d);
    if (out == ExecOutcome::kNext) {
      cpu_.pc = d.link;
    } else if (out != ExecOutcome::kNextSpliced) {
      break;  // redirect or stop: the block ends here
    }
    if (pending_stop_ || tb_flush_pending_) break;
  }
}

TranslationBlock* Machine::lookup_or_translate(u32 pc) {
  TranslationBlock* tb = tb_cache_.lookup(pc);
  if (tb == nullptr) tb = translate(pc);
  return tb;
}

void Machine::run_block_careful(u64 limit) {
  const u32 block_pc = cpu_.pc;
  TranslationBlock* tb =
      config_.enable_tb_cache ? tb_cache_.lookup(block_pc) : nullptr;
  if (tb == nullptr) tb = translate(block_pc);
  if (tb == nullptr) return;  // trap was taken (or a stop is pending)

  ++tb->exec_count;
  ++estats_.blocks_careful;
  probe_icache(block_pc);
  if (!tb_exec_cbs_.empty()) {
    s4e_vm* vm = vm_handle_.get();
    for (const auto& reg : tb_exec_cbs_) {
      reg.callback(reg.userdata, vm, block_pc);
    }
  }
  exec_insns_careful(tb, limit);
}

bool Machine::fast_path_ok() const noexcept {
  // The chained fast path is taken only when nothing needs per-instruction
  // or per-block observability: no debug state, no exec/mem plugin
  // callbacks (tb_trans is fine — translations fire identically in both
  // modes), and no armed timer/software interrupt (delivery is checked per
  // block in careful mode; chaining would defer it by up to a quantum).
  return config_.enable_tb_cache && !debug_check_ && insn_exec_cbs_.empty() &&
         tb_exec_cbs_.empty() && mem_cbs_.empty() &&
         !(clint_ != nullptr &&
           (cpu_.csr.mie & (kMieMtie | kMieMsie)) != 0);
}

TranslationBlock* Machine::maybe_form_superblock(TranslationBlock* src,
                                                 BlockExit ex,
                                                 TranslationBlock* dst) {
  if (!config_.enable_superblocks) return dst;
  // The icache model charges one probe per dispatched block; splicing would
  // skip interior probes and change modelled cycles, so superblocks form
  // only with the icache model off.
  if (icache_.enabled()) return dst;
  if (src->code.empty() || dst->code.empty()) return dst;
  if (src->code.size() + dst->code.size() > kMaxSuperblockInsns) return dst;

  const DecodedInsn& terminator = src->code.back();
  const bool predictor = timing_.params().branch_predictor;
  const bool terminator_is_branch =
      isa::op_info(terminator.op).op_class == isa::OpClass::kBranch;
  ExecHandler spliced_fn = nullptr;
  if (ex == BlockExit::kTaken) {
    if (terminator.op == Op::kJal) {
      spliced_fn = &ExecOps::jal_spliced;
    } else if (terminator_is_branch) {
      spliced_fn = ExecOps::branch_variant(terminator.op, predictor, 2);
    }
    if (spliced_fn == nullptr) return dst;
  } else {  // BlockExit::kFall
    // WFI must stay a block end (interrupt delivery at the boundary).
    if (terminator.op == Op::kWfi) return dst;
    if (terminator_is_branch) {
      spliced_fn = ExecOps::branch_variant(terminator.op, predictor, 1);
      if (spliced_fn == nullptr) return dst;
    }
    // Any other fall-through terminator keeps its handler and flows on.
  }

  auto sb = std::make_unique<TranslationBlock>();
  sb->start = src->start;
  sb->byte_size = src->byte_size;  // entry span; full extent in `ranges`
  sb->is_superblock = true;
  sb->fall_pc = dst->fall_pc;
  sb->taken_pc = dst->taken_pc;
  sb->code = src->code;
  if (spliced_fn != nullptr) sb->code.back().fn = spliced_fn;
  sb->code.insert(sb->code.end(), dst->code.begin(), dst->code.end());
  const auto append_ranges = [&sb](const TranslationBlock* block) {
    if (block->is_superblock) {
      sb->ranges.insert(sb->ranges.end(), block->ranges.begin(),
                        block->ranges.end());
    } else {
      sb->ranges.emplace_back(block->start, block->byte_size);
    }
  };
  append_ranges(src);
  append_ranges(dst);
  ++estats_.superblocks_formed;
  tb_cache_.install_superblock(std::move(sb));
  return nullptr;  // epoch bumped; the caller re-dispatches centrally
}

void Machine::run_chain(u64 limit) {
  const u64 epoch = tb_cache_.chain_epoch();
  const u64 quantum_end =
      std::min(limit, saturating_add(icount_, kChainQuantum));
  TranslationBlock* tb = lookup_or_translate(cpu_.pc);
  if (tb == nullptr) return;  // fetch trap taken (or a stop is pending)
  if (tb->superblock != nullptr) tb = tb->superblock;

  for (;;) {
    if (icount_ >= quantum_end) return;  // epoch due
    if (tb->code.size() > quantum_end - icount_) {
      if (quantum_end == limit) {
        // The instruction budget ends inside this block: execute it with
        // exact per-instruction limit semantics (at least one instruction
        // runs, so exec_count stays truthful).
        ++tb->exec_count;
        ++estats_.blocks_careful;
        probe_icache(tb->start);
        exec_insns_careful(tb, limit);
      }
      return;  // otherwise: quantum boundary — epoch work, then resume
    }

    ++tb->exec_count;
    ++estats_.blocks_fast;
    if (icache_.enabled()) probe_icache(tb->start);
    const BlockExit ex = exec_block_fast(tb);
    if (ex == BlockExit::kStopped || ex == BlockExit::kSide) return;
    if (tb_flush_pending_ || chain_epoch_recheck_) return;
    if (!config_.enable_chaining) return;  // ablation: per-block dispatch

    TranslationBlock* next = nullptr;
    if (ex == BlockExit::kIndirect) {
      const u32 next_pc = cpu_.pc;
      auto& jc = tb->jc;
      if (jc[0].target != nullptr && jc[0].pc == next_pc &&
          jc[0].epoch == epoch) {
        next = jc[0].target;
        ++estats_.jump_cache_hits;
      } else if (jc[1].target != nullptr && jc[1].pc == next_pc &&
                 jc[1].epoch == epoch) {
        std::swap(jc[0], jc[1]);  // MRU first
        next = jc[0].target;
        ++estats_.jump_cache_hits;
      } else {
        ++estats_.jump_cache_misses;
        next = lookup_or_translate(next_pc);
        if (next == nullptr || tb_flush_pending_) return;
        if (next->superblock != nullptr) next = next->superblock;
        jc[1] = jc[0];
        jc[0] = {next_pc, next, epoch};
      }
    } else {
      ChainSlot& slot =
          ex == BlockExit::kFall ? tb->chain_fall : tb->chain_taken;
      if (slot.target != nullptr && slot.epoch == epoch) {
        next = slot.target;
        ++estats_.chain_follows;
        if (++slot.hot == kSuperblockHotThreshold) {
          next = maybe_form_superblock(tb, ex, next);
          if (next == nullptr) return;  // superblock installed: epoch bumped
        }
      } else {
        next = lookup_or_translate(cpu_.pc);
        if (next == nullptr || tb_flush_pending_) return;
        if (next->superblock != nullptr) next = next->superblock;
        slot = ChainSlot{next, epoch, 0};
        ++estats_.chain_patches;
      }
    }
    tb = next;
  }
}

RunResult Machine::run() {
  const u64 remaining = config_.max_instructions > icount_
                            ? config_.max_instructions - icount_
                            : 0;
  return run(remaining);
}

RunResult Machine::run(u64 max_insns) {
  return run_loop(max_insns, StopReason::kMaxInstructions);
}

RunResult Machine::step() { return run_loop(1, StopReason::kDebugStep); }

RunResult Machine::run_slice(u64 max_insns) {
  return run_loop(max_insns, StopReason::kDebugSlice);
}

RunResult Machine::run_loop(u64 max_insns, StopReason budget_reason) {
  const bool stepping = budget_reason == StopReason::kDebugStep;
  // Saturate: run(UINT64_MAX) on a warm machine means "no further bound",
  // not a wrapped limit below icount_ that stops the VM instantly.
  const u64 limit = saturating_add(icount_, max_insns);
  while (!pending_stop_) {
    if (icount_ >= limit) {
      if (budget_reason == StopReason::kMaxInstructions) {
        pending_stop_ = PendingStop{StopReason::kMaxInstructions, -1, 0,
                                    "instruction budget exhausted"};
      } else {
        pending_stop_ = PendingStop{budget_reason, 0, 0, ""};
      }
      break;
    }
    // SMP slice rotation: a fixed instruction quantum on the single global
    // icount timeline makes the interleaving deterministic. The dispatch
    // below is capped at slice_end_, so the active hart lands here exactly
    // when its slice expires (run_chain/exec_insns_careful honour an exact
    // per-instruction limit and always make >= 1 instruction of progress).
    if (smp_ && icount_ >= slice_end_) rotate_hart();
    if (debug_check_) {
      if (debug_stop_request_) {
        debug_stop_request_ = false;
        update_debug_check();
        pending_stop_ = PendingStop{StopReason::kDebugInterrupt, 0, 0, "",
                                    cpu_.pc};
        break;
      }
      // Stop *before* executing a breakpointed instruction — except while
      // stepping, which is how the stub resumes off a breakpoint.
      if (!stepping && breakpoints_.count(cpu_.pc) != 0) {
        pending_stop_ = PendingStop{StopReason::kDebugBreak, 0, 0, "",
                                    cpu_.pc};
        break;
      }
    }
    bus_.tick(cycles_);
    check_interrupts();
    if (pending_stop_) break;
    if (tb_flush_pending_) {
      // Requested from a plugin callback (or a self-modifying store) while
      // the previous block was executing; apply at the block boundary.
      tb_flush_pending_ = false;
      tb_cache_.flush();
    }

    const u64 dispatch_limit = smp_ ? std::min(limit, slice_end_) : limit;
    if (fast_path_ok()) {
      chain_epoch_recheck_ = false;
      run_chain(dispatch_limit);
    } else {
      run_block_careful(dispatch_limit);
    }
    if (tb_flush_pending_) {
      tb_flush_pending_ = false;
      tb_cache_.flush();
    }
  }

  RunResult result;
  result.reason = pending_stop_->reason;
  result.exit_code = pending_stop_->exit_code;
  result.trap_cause = pending_stop_->trap_cause;
  result.detail = pending_stop_->detail;
  result.debug_addr = pending_stop_->debug_addr;
  result.watch_kind = pending_stop_->watch_kind;
  result.instructions = icount_;
  result.cycles = cycles_;
  result.final_pc = cpu_.pc;
  result.hart = active_hart_;
  if (!result.debug_stop()) {
    // Debugger stops are pauses, not ends: exit plugins (trace exit line,
    // flight-recorder dump) fire once, when the program actually stops.
    for (const auto& reg : exit_cbs_) {
      reg.callback(reg.userdata, vm_handle(), result.exit_code);
    }
  }
  pending_stop_.reset();
  return result;
}

u64 Machine::add_tb_trans_cb(s4e_tb_trans_cb cb, void* userdata) {
  tb_trans_cbs_.push_back({cb, userdata});
  // Blocks already in the cache were translated before this subscriber
  // existed: retranslate them so it sees every block that runs from now on.
  if (tb_cache_.size() != 0) request_tb_flush();
  return tb_trans_cbs_.size();
}
u64 Machine::add_tb_exec_cb(s4e_tb_exec_cb cb, void* userdata) {
  tb_exec_cbs_.push_back({cb, userdata});
  return tb_exec_cbs_.size();
}
u64 Machine::add_insn_exec_cb(s4e_insn_exec_cb cb, void* userdata) {
  insn_exec_cbs_.push_back({cb, userdata});
  return insn_exec_cbs_.size();
}
u64 Machine::add_mem_cb(s4e_mem_cb cb, void* userdata) {
  mem_cbs_.push_back({cb, userdata});
  update_mem_slow();
  return mem_cbs_.size();
}
u64 Machine::add_trap_cb(s4e_trap_cb cb, void* userdata) {
  trap_cbs_.push_back({cb, userdata});
  return trap_cbs_.size();
}
u64 Machine::add_exit_cb(s4e_exit_cb cb, void* userdata) {
  exit_cbs_.push_back({cb, userdata});
  return exit_cbs_.size();
}

void Machine::request_exit(int exit_code) noexcept {
  if (!pending_stop_) {
    pending_stop_ =
        PendingStop{StopReason::kExitRequested, exit_code, 0, ""};
  }
}

}  // namespace s4e::vp
