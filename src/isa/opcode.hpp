// RV32IM_Zicsr instruction enumeration and static metadata.
//
// This mirrors QEMU's DecodeTree approach in spirit: every instruction is a
// row in a declarative table (mnemonic, format, match/mask pattern, class),
// and both the decoder and the encoder are derived from that single table, so
// they cannot drift apart. The coverage metric (MBMV'21) counts executed
// instruction *types*, i.e. entries of this enum.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bits.hpp"

namespace s4e::isa {

// Every supported instruction type. Order is stable; coverage bitmaps and
// campaign reports index by this value.
enum class Op : u8 {
  // RV32I
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi,
  kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak,
  // RV32M
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  // Zicsr
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
  // Privileged
  kMret, kWfi,
  // RV32A (Zalrsc + Zaamo)
  kLrW, kScW,
  kAmoswapW, kAmoaddW, kAmoxorW, kAmoorW, kAmoandW,
  kAmominW, kAmomaxW, kAmominuW, kAmomaxuW,
  kCount,
};

inline constexpr unsigned kOpCount = static_cast<unsigned>(Op::kCount);

// Operand/immediate layout of the 32-bit encoding.
enum class Format : u8 {
  kR,        // rd, rs1, rs2
  kI,        // rd, rs1, imm12
  kIShift,   // rd, rs1, shamt5
  kS,        // rs1, rs2, imm12 (store)
  kB,        // rs1, rs2, imm13 (branch, <<1)
  kU,        // rd, imm20 (<<12)
  kJ,        // rd, imm21 (<<1)
  kCsrReg,   // rd, csr, rs1
  kCsrImm,   // rd, csr, uimm5
  kNone,     // ecall/ebreak/mret/wfi
  kFence,    // pred/succ (treated as hint)
};

// Behavioural class; drives the timing model, the coverage report grouping,
// and the fault-campaign outcome analysis.
enum class OpClass : u8 {
  kArith,    // register/immediate ALU
  kLoad,
  kStore,
  kBranch,   // conditional
  kJump,     // jal/jalr
  kMul,
  kDiv,
  kCsr,
  kSystem,   // ecall/ebreak/mret/wfi
  kFence,
  kAmo,      // lr/sc and read-modify-write atomics
  kCount,
};

inline constexpr unsigned kOpClassCount = static_cast<unsigned>(OpClass::kCount);

// Which ISA module (extension) an instruction belongs to; the coverage
// report breaks results down per module, as in the MBMV'21 metric.
enum class IsaModule : u8 { kI, kM, kA, kZicsr, kPriv, kCount };

// Static description of one instruction type.
struct OpInfo {
  Op op;
  std::string_view mnemonic;
  Format format;
  OpClass op_class;
  IsaModule module;
  u32 match;  // fixed bits of the encoding
  u32 mask;   // which bits are fixed
  bool reads_rs1;
  bool reads_rs2;
  bool writes_rd;
};

// Metadata row for `op`. Precondition: op != Op::kCount.
const OpInfo& op_info(Op op) noexcept;

// Mnemonic ("addi", ...). Precondition: op != Op::kCount.
std::string_view mnemonic(Op op) noexcept;

// Human-readable module name ("RV32I", "RV32M", "Zicsr", "priv").
std::string_view isa_module_name(IsaModule m) noexcept;

// All rows, in Op order (span over the static table).
const OpInfo* op_table() noexcept;

}  // namespace s4e::isa
