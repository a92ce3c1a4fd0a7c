#include "isa/defuse.hpp"

namespace s4e::isa {

DefUse def_use(const Instr& instr) noexcept {
  const OpInfo& info = instr.info();
  DefUse du;
  if (info.reads_rs1) du.reads |= u32{1} << instr.rs1;
  if (info.reads_rs2) du.reads |= u32{1} << instr.rs2;
  if (info.writes_rd && instr.rd != 0) du.writes |= u32{1} << instr.rd;
  return du;
}

bool writes_gpr(const Instr& instr, unsigned reg) noexcept {
  return reg != 0 && (def_use(instr).writes & (u32{1} << reg)) != 0;
}

}  // namespace s4e::isa
