#include "isa/opcode.hpp"

#include <array>

namespace s4e::isa {

namespace {

// Encoding masks by format.
constexpr u32 kMaskR = 0xfe00707f;       // funct7 | funct3 | opcode
constexpr u32 kMaskI = 0x0000707f;       // funct3 | opcode
constexpr u32 kMaskU = 0x0000007f;       // opcode only
constexpr u32 kMaskFull = 0xffffffff;    // fully fixed (ecall/ebreak/...)
// A-extension patterns leave the aq/rl ordering bits (26:25) free; LR.W
// additionally has rs2 fixed to zero, so its mask is tighter and the
// decoder's most-specific-first ordering resolves it before the AMO rows.
constexpr u32 kMaskAmo = 0xf800707f;     // funct5 | funct3 | opcode
constexpr u32 kMaskLr = 0xf9f0707f;      // funct5 | rs2=0 | funct3 | opcode

constexpr OpInfo kTable[] = {
    // op, mnemonic, format, class, module, match, mask, rs1, rs2, rd
    {Op::kLui, "lui", Format::kU, OpClass::kArith, IsaModule::kI, 0x00000037, kMaskU, false, false, true},
    {Op::kAuipc, "auipc", Format::kU, OpClass::kArith, IsaModule::kI, 0x00000017, kMaskU, false, false, true},
    {Op::kJal, "jal", Format::kJ, OpClass::kJump, IsaModule::kI, 0x0000006f, kMaskU, false, false, true},
    {Op::kJalr, "jalr", Format::kI, OpClass::kJump, IsaModule::kI, 0x00000067, kMaskI, true, false, true},
    {Op::kBeq, "beq", Format::kB, OpClass::kBranch, IsaModule::kI, 0x00000063, kMaskI, true, true, false},
    {Op::kBne, "bne", Format::kB, OpClass::kBranch, IsaModule::kI, 0x00001063, kMaskI, true, true, false},
    {Op::kBlt, "blt", Format::kB, OpClass::kBranch, IsaModule::kI, 0x00004063, kMaskI, true, true, false},
    {Op::kBge, "bge", Format::kB, OpClass::kBranch, IsaModule::kI, 0x00005063, kMaskI, true, true, false},
    {Op::kBltu, "bltu", Format::kB, OpClass::kBranch, IsaModule::kI, 0x00006063, kMaskI, true, true, false},
    {Op::kBgeu, "bgeu", Format::kB, OpClass::kBranch, IsaModule::kI, 0x00007063, kMaskI, true, true, false},
    {Op::kLb, "lb", Format::kI, OpClass::kLoad, IsaModule::kI, 0x00000003, kMaskI, true, false, true},
    {Op::kLh, "lh", Format::kI, OpClass::kLoad, IsaModule::kI, 0x00001003, kMaskI, true, false, true},
    {Op::kLw, "lw", Format::kI, OpClass::kLoad, IsaModule::kI, 0x00002003, kMaskI, true, false, true},
    {Op::kLbu, "lbu", Format::kI, OpClass::kLoad, IsaModule::kI, 0x00004003, kMaskI, true, false, true},
    {Op::kLhu, "lhu", Format::kI, OpClass::kLoad, IsaModule::kI, 0x00005003, kMaskI, true, false, true},
    {Op::kSb, "sb", Format::kS, OpClass::kStore, IsaModule::kI, 0x00000023, kMaskI, true, true, false},
    {Op::kSh, "sh", Format::kS, OpClass::kStore, IsaModule::kI, 0x00001023, kMaskI, true, true, false},
    {Op::kSw, "sw", Format::kS, OpClass::kStore, IsaModule::kI, 0x00002023, kMaskI, true, true, false},
    {Op::kAddi, "addi", Format::kI, OpClass::kArith, IsaModule::kI, 0x00000013, kMaskI, true, false, true},
    {Op::kSlti, "slti", Format::kI, OpClass::kArith, IsaModule::kI, 0x00002013, kMaskI, true, false, true},
    {Op::kSltiu, "sltiu", Format::kI, OpClass::kArith, IsaModule::kI, 0x00003013, kMaskI, true, false, true},
    {Op::kXori, "xori", Format::kI, OpClass::kArith, IsaModule::kI, 0x00004013, kMaskI, true, false, true},
    {Op::kOri, "ori", Format::kI, OpClass::kArith, IsaModule::kI, 0x00006013, kMaskI, true, false, true},
    {Op::kAndi, "andi", Format::kI, OpClass::kArith, IsaModule::kI, 0x00007013, kMaskI, true, false, true},
    {Op::kSlli, "slli", Format::kIShift, OpClass::kArith, IsaModule::kI, 0x00001013, kMaskR, true, false, true},
    {Op::kSrli, "srli", Format::kIShift, OpClass::kArith, IsaModule::kI, 0x00005013, kMaskR, true, false, true},
    {Op::kSrai, "srai", Format::kIShift, OpClass::kArith, IsaModule::kI, 0x40005013, kMaskR, true, false, true},
    {Op::kAdd, "add", Format::kR, OpClass::kArith, IsaModule::kI, 0x00000033, kMaskR, true, true, true},
    {Op::kSub, "sub", Format::kR, OpClass::kArith, IsaModule::kI, 0x40000033, kMaskR, true, true, true},
    {Op::kSll, "sll", Format::kR, OpClass::kArith, IsaModule::kI, 0x00001033, kMaskR, true, true, true},
    {Op::kSlt, "slt", Format::kR, OpClass::kArith, IsaModule::kI, 0x00002033, kMaskR, true, true, true},
    {Op::kSltu, "sltu", Format::kR, OpClass::kArith, IsaModule::kI, 0x00003033, kMaskR, true, true, true},
    {Op::kXor, "xor", Format::kR, OpClass::kArith, IsaModule::kI, 0x00004033, kMaskR, true, true, true},
    {Op::kSrl, "srl", Format::kR, OpClass::kArith, IsaModule::kI, 0x00005033, kMaskR, true, true, true},
    {Op::kSra, "sra", Format::kR, OpClass::kArith, IsaModule::kI, 0x40005033, kMaskR, true, true, true},
    {Op::kOr, "or", Format::kR, OpClass::kArith, IsaModule::kI, 0x00006033, kMaskR, true, true, true},
    {Op::kAnd, "and", Format::kR, OpClass::kArith, IsaModule::kI, 0x00007033, kMaskR, true, true, true},
    {Op::kFence, "fence", Format::kFence, OpClass::kFence, IsaModule::kI, 0x0000000f, kMaskI, false, false, false},
    {Op::kEcall, "ecall", Format::kNone, OpClass::kSystem, IsaModule::kI, 0x00000073, kMaskFull, false, false, false},
    {Op::kEbreak, "ebreak", Format::kNone, OpClass::kSystem, IsaModule::kI, 0x00100073, kMaskFull, false, false, false},
    {Op::kMul, "mul", Format::kR, OpClass::kMul, IsaModule::kM, 0x02000033, kMaskR, true, true, true},
    {Op::kMulh, "mulh", Format::kR, OpClass::kMul, IsaModule::kM, 0x02001033, kMaskR, true, true, true},
    {Op::kMulhsu, "mulhsu", Format::kR, OpClass::kMul, IsaModule::kM, 0x02002033, kMaskR, true, true, true},
    {Op::kMulhu, "mulhu", Format::kR, OpClass::kMul, IsaModule::kM, 0x02003033, kMaskR, true, true, true},
    {Op::kDiv, "div", Format::kR, OpClass::kDiv, IsaModule::kM, 0x02004033, kMaskR, true, true, true},
    {Op::kDivu, "divu", Format::kR, OpClass::kDiv, IsaModule::kM, 0x02005033, kMaskR, true, true, true},
    {Op::kRem, "rem", Format::kR, OpClass::kDiv, IsaModule::kM, 0x02006033, kMaskR, true, true, true},
    {Op::kRemu, "remu", Format::kR, OpClass::kDiv, IsaModule::kM, 0x02007033, kMaskR, true, true, true},
    {Op::kCsrrw, "csrrw", Format::kCsrReg, OpClass::kCsr, IsaModule::kZicsr, 0x00001073, kMaskI, true, false, true},
    {Op::kCsrrs, "csrrs", Format::kCsrReg, OpClass::kCsr, IsaModule::kZicsr, 0x00002073, kMaskI, true, false, true},
    {Op::kCsrrc, "csrrc", Format::kCsrReg, OpClass::kCsr, IsaModule::kZicsr, 0x00003073, kMaskI, true, false, true},
    {Op::kCsrrwi, "csrrwi", Format::kCsrImm, OpClass::kCsr, IsaModule::kZicsr, 0x00005073, kMaskI, false, false, true},
    {Op::kCsrrsi, "csrrsi", Format::kCsrImm, OpClass::kCsr, IsaModule::kZicsr, 0x00006073, kMaskI, false, false, true},
    {Op::kCsrrci, "csrrci", Format::kCsrImm, OpClass::kCsr, IsaModule::kZicsr, 0x00007073, kMaskI, false, false, true},
    {Op::kMret, "mret", Format::kNone, OpClass::kSystem, IsaModule::kPriv, 0x30200073, kMaskFull, false, false, false},
    {Op::kWfi, "wfi", Format::kNone, OpClass::kSystem, IsaModule::kPriv, 0x10500073, kMaskFull, false, false, false},
    {Op::kLrW, "lr.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0x1000202f, kMaskLr, true, false, true},
    {Op::kScW, "sc.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0x1800202f, kMaskAmo, true, true, true},
    {Op::kAmoswapW, "amoswap.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0x0800202f, kMaskAmo, true, true, true},
    {Op::kAmoaddW, "amoadd.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0x0000202f, kMaskAmo, true, true, true},
    {Op::kAmoxorW, "amoxor.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0x2000202f, kMaskAmo, true, true, true},
    {Op::kAmoorW, "amoor.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0x4000202f, kMaskAmo, true, true, true},
    {Op::kAmoandW, "amoand.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0x6000202f, kMaskAmo, true, true, true},
    {Op::kAmominW, "amomin.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0x8000202f, kMaskAmo, true, true, true},
    {Op::kAmomaxW, "amomax.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0xa000202f, kMaskAmo, true, true, true},
    {Op::kAmominuW, "amominu.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0xc000202f, kMaskAmo, true, true, true},
    {Op::kAmomaxuW, "amomaxu.w", Format::kR, OpClass::kAmo, IsaModule::kA, 0xe000202f, kMaskAmo, true, true, true},
};

static_assert(sizeof(kTable) / sizeof(kTable[0]) == kOpCount,
              "op table must have one row per Op");

constexpr bool table_in_op_order() {
  for (unsigned i = 0; i < kOpCount; ++i) {
    if (static_cast<unsigned>(kTable[i].op) != i) return false;
  }
  return true;
}
static_assert(table_in_op_order(), "op table rows must be in Op order");

}  // namespace

const OpInfo& op_info(Op op) noexcept {
  return kTable[static_cast<unsigned>(op)];
}

std::string_view mnemonic(Op op) noexcept { return op_info(op).mnemonic; }

std::string_view isa_module_name(IsaModule m) noexcept {
  switch (m) {
    case IsaModule::kI: return "RV32I";
    case IsaModule::kM: return "RV32M";
    case IsaModule::kA: return "RV32A";
    case IsaModule::kZicsr: return "Zicsr";
    case IsaModule::kPriv: return "priv";
    case IsaModule::kCount: break;
  }
  return "?";
}

const OpInfo* op_table() noexcept { return kTable; }

}  // namespace s4e::isa
