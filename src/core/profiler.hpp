// Hot-block execution profiler: per-translation-block execution counts via
// the plugin API, reported with symbolized addresses — the "where does the
// time go" companion to the coverage metric.
#pragma once

#include <map>
#include <string>

#include "asm/program.hpp"
#include "vp/block_ledger.hpp"
#include "vp/plugin.hpp"

namespace s4e::core {

class ProfilerPlugin final : public vp::PluginBase {
 public:
  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.tb_exec = true;
    subs.tb_trans = true;
    subs.exit = true;
    return subs;
  }

  void on_tb_trans(const s4e_tb_info& tb) override;
  void on_tb_exec(u32 tb_start) override;
  void on_exit(int exit_code) override;

  // Dispatches per block start address.
  std::map<u32, u64> exec_counts() const;

  // Dynamically executed instructions attributed to blocks: each dispatch
  // is charged the instructions it actually retired (vp::BlockLedger), so
  // this equals the machine's icount also when a trap, an exit or the budget
  // cut a block short. Like the readers below it settles a block still in
  // flight, reading the VM's icount (the VM must be alive until the exit
  // callback has fired).
  u64 attributed_instructions();

  // Top-N table with nearest-symbol annotation from `program`.
  std::string report(const assembler::Program& program, unsigned top_n = 10);

 private:
  vp::BlockLedger ledger_;
};

}  // namespace s4e::core
