#include "coverage/coverage.hpp"

#include <algorithm>
#include <bit>

#include "common/strings.hpp"
#include "isa/defuse.hpp"

namespace s4e::coverage {

void CoverageData::merge(const CoverageData& other) {
  for (unsigned i = 0; i < isa::kOpCount; ++i) {
    op_counts[i] += other.op_counts[i];
  }
  for (unsigned i = 0; i < isa::kGprCount; ++i) {
    gpr_reads[i] += other.gpr_reads[i];
    gpr_writes[i] += other.gpr_writes[i];
  }
  csrs_accessed.insert(other.csrs_accessed.begin(), other.csrs_accessed.end());
  addresses_touched.insert(other.addresses_touched.begin(),
                           other.addresses_touched.end());
  total_instructions += other.total_instructions;
  loads += other.loads;
  stores += other.stores;
}

unsigned CoverageData::ops_covered() const {
  unsigned covered = 0;
  for (u64 count : op_counts) covered += count != 0;
  return covered;
}

unsigned CoverageData::ops_covered(isa::IsaModule module) const {
  unsigned covered = 0;
  for (unsigned i = 0; i < isa::kOpCount; ++i) {
    if (isa::op_table()[i].module == module && op_counts[i] != 0) ++covered;
  }
  return covered;
}

unsigned CoverageData::ops_total(isa::IsaModule module) {
  unsigned total = 0;
  for (unsigned i = 0; i < isa::kOpCount; ++i) {
    total += isa::op_table()[i].module == module;
  }
  return total;
}

double CoverageData::op_coverage() const {
  return static_cast<double>(ops_covered()) / isa::kOpCount;
}

double CoverageData::op_coverage(isa::IsaModule module) const {
  const unsigned total = ops_total(module);
  return total == 0 ? 0.0
                    : static_cast<double>(ops_covered(module)) / total;
}

unsigned CoverageData::gprs_covered() const {
  unsigned covered = 0;
  for (unsigned i = 1; i < isa::kGprCount; ++i) {
    covered += (gpr_reads[i] + gpr_writes[i]) != 0;
  }
  return covered;
}

double CoverageData::gpr_coverage() const {
  return static_cast<double>(gprs_covered()) / (isa::kGprCount - 1);
}

double CoverageData::csr_coverage() const {
  const auto& implemented = isa::implemented_csrs();
  unsigned covered = 0;
  for (u16 csr : implemented) covered += csrs_accessed.count(csr) != 0;
  return static_cast<double>(covered) / implemented.size();
}

double CoverageData::memory_coverage(u32 base, u32 size) const {
  if (size == 0) return 0.0;
  u64 touched = 0;
  for (u32 address : addresses_touched) {
    if (address >= base && address - base < size) ++touched;
  }
  return static_cast<double>(touched) / static_cast<double>(size);
}

std::vector<isa::Op> CoverageData::uncovered_ops() const {
  std::vector<isa::Op> missing;
  for (unsigned i = 0; i < isa::kOpCount; ++i) {
    if (op_counts[i] == 0) missing.push_back(static_cast<isa::Op>(i));
  }
  return missing;
}

void CoveragePlugin::on_mem(const s4e_mem_event& event) {
  if (event.is_store) {
    ++data_.stores;
  } else {
    ++data_.loads;
  }
  touched_.mark_range(event.vaddr, event.size);
  touched_changed_ = true;
}

CoveragePlugin::InsnFacts CoveragePlugin::facts_of(const s4e_insn_info& insn) {
  // Reconstruct the operand view and ask the shared def/use model instead
  // of poking OpInfo flags by hand (the same model dataflow analyses use).
  isa::Instr instr;
  instr.op = static_cast<isa::Op>(insn.op);
  instr.rd = insn.rd;
  instr.rs1 = insn.rs1;
  instr.rs2 = insn.rs2;
  const isa::DefUse du = isa::def_use(instr);
  InsnFacts facts;
  facts.reads = du.reads;
  facts.writes = du.writes;
  facts.op = insn.op;
  // An rs2-slot read of x0 (e.g. `bnez`) still counts a distinct read per
  // operand slot under the old accounting; masks collapse duplicates, so
  // re-add the second slot when both name the same register.
  if (instr.info().reads_rs1 && instr.info().reads_rs2 &&
      insn.rs1 == insn.rs2) {
    facts.double_read = insn.rs1;
  }
  if (instr.info().op_class == isa::OpClass::kCsr) facts.csr = insn.csr;
  return facts;
}

void CoveragePlugin::on_tb_trans(const s4e_tb_info& tb) {
  const auto first = static_cast<u32>(facts_.size());
  for (u32 i = 0; i < tb.n_insns; ++i) {
    facts_.push_back(facts_of(tb.insns[i]));
  }
  // A re-translation with the same facts (a flushed block, the uncached
  // engine) keeps counting into the existing entry.
  const u32 latest = ledger_.find(tb.start);
  if (latest != vp::BlockLedger::kNone &&
      ledger_.blocks()[latest].size == tb.n_insns) {
    const auto old = facts_.begin() + translations_[latest].first_fact;
    if (std::equal(old, old + tb.n_insns, facts_.begin() + first)) {
      facts_.resize(first);
      return;
    }
  }
  ledger_.add(tb.start, tb.n_insns);
  translations_.push_back(Translation{first, 0});
}

void CoveragePlugin::on_tb_exec(u32 tb_start) {
  ledger_.dispatch(tb_start, s4e_icount(vm()), cut_folder());
}

void CoveragePlugin::on_exit(int) {
  ledger_.close(s4e_icount(vm()), cut_folder());
}

void CoveragePlugin::fold(u32 block, u32 first, u32 count, u64 times) {
  const u32 base = translations_[block].first_fact + first;
  for (u32 i = base; i < base + count; ++i) {
    const InsnFacts& facts = facts_[i];
    data_.op_counts[facts.op] += times;
    for (u32 m = facts.reads; m != 0; m &= m - 1) {
      data_.gpr_reads[std::countr_zero(m)] += times;
    }
    for (u32 m = facts.writes; m != 0; m &= m - 1) {
      data_.gpr_writes[std::countr_zero(m)] += times;
    }
    if (facts.double_read != kNoReg) {
      data_.gpr_reads[facts.double_read] += times;
    }
    if (facts.csr != kNoCsr) data_.csrs_accessed.insert(facts.csr);
  }
  data_.total_instructions += count * times;
}

const CoverageData& CoveragePlugin::data() {
  if (ledger_.pending()) {
    ledger_.settle(s4e_icount(vm()), cut_folder());
  }
  const auto& blocks = ledger_.blocks();
  for (u32 i = 0; i < blocks.size(); ++i) {
    const u64 runs = blocks[i].full_runs - translations_[i].folded_runs;
    if (runs == 0) continue;
    translations_[i].folded_runs = blocks[i].full_runs;
    fold(i, 0, blocks[i].size, runs);
  }
  if (touched_changed_) {
    data_.addresses_touched.clear();
    touched_.for_each([this](u32 address) {
      data_.addresses_touched.insert(data_.addresses_touched.end(), address);
    });
    touched_changed_ = false;
  }
  return data_;
}

std::string to_report(const CoverageData& data, const std::string& title,
                      const std::vector<bool>* static_ops) {
  std::string out;
  out += format("coverage report: %s\n", title.c_str());
  out += format("  instructions executed : %llu\n",
                static_cast<unsigned long long>(data.total_instructions));
  out += format("  instruction types     : %u / %u  (%.1f%%)\n",
                data.ops_covered(), isa::kOpCount, 100.0 * data.op_coverage());
  for (unsigned m = 0; m < static_cast<unsigned>(isa::IsaModule::kCount); ++m) {
    const auto module = static_cast<isa::IsaModule>(m);
    out += format("    %-6s              : %u / %u  (%.1f%%)\n",
                  std::string(isa::isa_module_name(module)).c_str(),
                  data.ops_covered(module), CoverageData::ops_total(module),
                  100.0 * data.op_coverage(module));
  }
  if (static_ops != nullptr) {
    unsigned reachable = 0;
    unsigned covered = 0;
    unsigned unexercised = 0;
    for (unsigned i = 0; i < isa::kOpCount && i < static_ops->size(); ++i) {
      if (!(*static_ops)[i]) continue;
      ++reachable;
      if (data.op_counts[i] != 0) {
        ++covered;
      } else {
        ++unexercised;
      }
    }
    out += format("  statically reachable  : %u / %u types covered  (%.1f%%)"
                  ", %u reachable but not exercised\n",
                  covered, reachable,
                  reachable == 0 ? 0.0 : 100.0 * covered / reachable,
                  unexercised);
  }
  out += format("  GPR coverage          : %u / %u  (%.1f%%)\n",
                data.gprs_covered(), isa::kGprCount - 1,
                100.0 * data.gpr_coverage());
  out += format("  CSR coverage          : %.1f%%\n",
                100.0 * data.csr_coverage());
  out += format("  memory accesses       : %llu loads, %llu stores, %zu "
                "distinct bytes\n",
                static_cast<unsigned long long>(data.loads),
                static_cast<unsigned long long>(data.stores),
                data.addresses_touched.size());
  const auto missing = data.uncovered_ops();
  if (!missing.empty()) {
    out += "  uncovered instructions:";
    for (isa::Op op : missing) {
      out += " ";
      out += std::string(isa::mnemonic(op));
    }
    out += "\n";
  }
  return out;
}

}  // namespace s4e::coverage
