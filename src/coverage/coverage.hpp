// Instruction-type and register coverage for RISC-V binaries (MBMV'21).
//
// The metric counts which instruction *types* a binary executed and which
// architectural registers (GPRs, CSRs) it accessed. It qualifies test
// suites: the paper combines the architectural tests, the unit tests and
// Torture-generated programs into a unified suite reaching 100 % GPR and
// 98.7 % instruction-type coverage. Coverage data merges across runs so
// suite-union numbers fall out naturally (E4).
#pragma once

#include <array>
#include <set>
#include <string>
#include <vector>

#include "common/page_bitmap.hpp"
#include "isa/csr.hpp"
#include "isa/opcode.hpp"
#include "isa/registers.hpp"
#include "vp/block_ledger.hpp"
#include "vp/plugin.hpp"

namespace s4e::coverage {

// Pure data: mergeable, comparable, reportable.
struct CoverageData {
  std::array<u64, isa::kOpCount> op_counts{};
  std::array<u64, isa::kGprCount> gpr_reads{};
  std::array<u64, isa::kGprCount> gpr_writes{};
  std::set<u16> csrs_accessed;
  // Addressed memory space: every data address touched by a load or store
  // (the MBMV'20 metric "register access coverage including the addressed
  // memory space").
  std::set<u32> addresses_touched;
  u64 total_instructions = 0;
  u64 loads = 0;
  u64 stores = 0;

  void merge(const CoverageData& other);

  // --- Instruction-type coverage.
  unsigned ops_covered() const;
  unsigned ops_covered(isa::IsaModule module) const;
  static unsigned ops_total(isa::IsaModule module);
  double op_coverage() const;           // covered / kOpCount
  double op_coverage(isa::IsaModule module) const;

  // --- Register coverage. A GPR counts as covered when it was read or
  // written by an executed instruction (x0 is excluded: it is constant).
  unsigned gprs_covered() const;
  double gpr_coverage() const;  // covered / 31

  // --- CSR coverage over the implemented CSR set.
  double csr_coverage() const;

  // --- Addressed memory space: touched bytes within [base, base+size).
  // Returns the fraction of the range that was accessed at least once.
  double memory_coverage(u32 base, u32 size) const;

  // Ops never executed (for the report's "missing" list).
  std::vector<isa::Op> uncovered_ops() const;
};

// Render the standard coverage table (per-module instruction coverage, GPR
// and CSR coverage, hottest instructions). When `static_ops` is given
// (indexed by isa::Op, true = statically reachable — see
// dataflow::reachable_ops), the report adds a second denominator: covered
// types over the types the binary could execute at all, which separates
// "not exercised by this input" from "not present in the program".
std::string to_report(const CoverageData& data, const std::string& title,
                      const std::vector<bool>* static_ops = nullptr);

// The plugin: feeds CoverageData from the instruction stream via the C API.
//
// Block-granular: per-instruction facts (type, GPR read/write masks, CSR)
// are derived once per translated block, and executions are counted per
// block with vp::BlockLedger's icount-delta settling, which is exact for
// blocks cut short by a trap, an exit, a flush, the budget or a step. The
// result equals an insn_exec-per-instruction count field for field.
class CoveragePlugin final : public vp::PluginBase {
 public:
  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.tb_trans = true;
    subs.tb_exec = true;
    subs.mem = true;
    subs.exit = true;
    return subs;
  }

  void on_tb_trans(const s4e_tb_info& tb) override;
  void on_tb_exec(u32 tb_start) override;
  void on_mem(const s4e_mem_event& event) override;
  void on_exit(int exit_code) override;

  // Folds the block counts into the returned data. While a block is
  // pending (a debug stop, or a read from inside a callback) this reads the
  // VM's icount, so the VM must still be alive; after the exit callback
  // nothing is pending.
  const CoverageData& data();

 private:
  static constexpr u8 kNoReg = 0xff;
  static constexpr u16 kNoCsr = 0xffff;  // CSR addresses are 12 bits
  struct InsnFacts {
    u32 reads = 0;   // isa::def_use masks
    u32 writes = 0;
    u16 op = 0;
    u16 csr = kNoCsr;  // CSR accessed by a Zicsr instruction
    // Register read through both source slots (counted twice), or kNoReg.
    u8 double_read = kNoReg;
    bool operator==(const InsnFacts&) const = default;
  };
  struct Translation {
    u32 first_fact = 0;   // facts_[first_fact, first_fact + size)
    u64 folded_runs = 0;  // full runs already in data_
  };

  static InsnFacts facts_of(const s4e_insn_info& insn);
  // Add `times` runs of instructions [first, first + count) of `block`.
  void fold(u32 block, u32 first, u32 count, u64 times);
  // The ledger's on_cut hook: a cut-short run is folded at once.
  auto cut_folder() {
    return [this](u32 block, u32 first, u32 count) {
      fold(block, first, count, 1);
    };
  }

  vp::BlockLedger ledger_;
  std::vector<Translation> translations_;  // parallel to ledger_.blocks()
  std::vector<InsnFacts> facts_;
  PageBitmap touched_;
  bool touched_changed_ = false;
  CoverageData data_;
};

}  // namespace s4e::coverage
