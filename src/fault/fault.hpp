// Fault-effect analysis on the VP (MBMV'20): automatic injection of
// permanent and transient bit-flips into registers, data memory and code,
// simulation of every mutant, and classification of the outcomes.
//
// Fault-list generation is coverage-directed by default: a profiling run
// records which registers, memory bytes and code addresses the binary
// actually exercises, and faults are drawn only from that set — the paper's
// key scaling idea (don't simulate mutants the software can never observe).
#pragma once

#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "dataflow/triage.hpp"
#include "exec/campaign_driver.hpp"
#include "vp/machine.hpp"
#include "vp/plugin.hpp"

namespace s4e::fault {

enum class FaultTarget : u8 { kGpr, kMemory, kCode };

// "gpr", "mem", "code" (fault lists and the fleet wire records).
std::string_view to_string(FaultTarget target) noexcept;

enum class FaultKind : u8 {
  kTransient,  // one bit-flip at a trigger instruction count
  kStuckAt,    // bit permanently forced to `stuck_value`
};

struct FaultSpec {
  FaultTarget target = FaultTarget::kGpr;
  FaultKind kind = FaultKind::kTransient;
  unsigned reg = 0;      // kGpr: architectural register index
  u32 address = 0;       // kMemory: byte address; kCode: word address
  u8 bit = 0;            // bit index (kGpr/kCode: 0..31, kMemory: 0..7)
  bool stuck_value = false;  // kStuckAt: forced bit value
  u64 trigger = 0;       // kTransient: icount at which the flip fires
  unsigned hart = 0;     // kGpr on SMP machines: hart whose register file
                         // takes the fault (always 0 on single-hart runs)

  std::string to_string() const;
};

// Plugin applying one FaultSpec to a running VP.
class FaultInjectorPlugin final : public vp::PluginBase {
 public:
  explicit FaultInjectorPlugin(const FaultSpec& spec) : spec_(spec) {}

  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.insn_exec = true;  // trigger + per-instruction stuck-at enforcement
    if (spec_.target == FaultTarget::kMemory &&
        spec_.kind == FaultKind::kStuckAt) {
      subs.mem = true;  // re-force after stores
    }
    return subs;
  }

  void on_insn_exec(const s4e_insn_info& insn) override;
  void on_mem(const s4e_mem_event& event) override;

  // Number of state manipulations performed (>= 1 once triggered).
  u64 applications() const noexcept { return applications_; }

 private:
  void apply_flip();
  void apply_stuck();

  FaultSpec spec_;
  bool fired_ = false;
  u64 applications_ = 0;
};

// Mutant outcome classes (the MBMV'20 categories).
enum class Outcome : u8 {
  kMasked,    // normal termination, results identical to the golden run
  kSdc,       // normal termination, silently corrupted result
  kCrash,     // trap / breakpoint / halt without normal termination
  kHang,      // instruction budget exhausted
};

std::string_view to_string(Outcome outcome) noexcept;

struct MutantResult {
  FaultSpec spec;
  Outcome outcome = Outcome::kMasked;
  int exit_code = 0;
  u64 instructions = 0;
  // Static triage: true = the outcome was proven (kMasked) without running
  // the VP; `prune_reason` is the triage class tag. In verify mode the
  // mutant still executes and `pruned` marks what *would* have been skipped.
  bool pruned = false;
  std::string prune_reason;
  // Flight-recorder dump (the mutant's last executed instructions, memory
  // accesses and traps) captured for kHang/kCrash mutants when the campaign
  // runs with `post_mortem` enabled; empty otherwise.
  std::string post_mortem;
};

// Fault-list knobs; the ones shared with mutation campaigns (jobs, reuse,
// triage, shard, observability, hang budget, machine) are inherited.
struct CampaignConfig : exec::CampaignOptions {
  u64 seed = 1;
  unsigned mutant_count = 200;
  bool coverage_directed = true;  // E5 ablation switch
  bool gpr_faults = true;
  bool memory_faults = true;
  bool code_faults = true;
  // Deep-state comparison: also compare the final .data contents against
  // the golden run, catching silent corruption that never reaches the exit
  // code or the UART (classified as SDC).
  bool compare_memory = true;
};

struct CampaignResult {
  // Golden reference.
  int golden_exit_code = 0;
  u64 golden_instructions = 0;
  std::string golden_uart;
  u64 golden_memory_hash = 0;  // FNV-1a over the final .data contents

  std::vector<MutantResult> mutants;
  // Sharded runs: global index of mutants[0] in the full fault list, and
  // the full list's size. Whole-campaign runs have shard_begin == 0 and
  // total_faults == mutants.size().
  u64 shard_begin = 0;
  u64 total_faults = 0;
  u64 outcome_counts[4] = {0, 0, 0, 0};
  u64 pruned_count = 0;  // mutants decided statically (triage)
  double simulated_instructions = 0;  // across all mutants
  // Aggregate snapshot/restore cost over all reused worker machines (zeroed
  // when reuse_machines is off).
  vp::SnapshotStats snapshot_stats;
  // One-line JSON campaign telemetry ("{}" unless collect_metrics). Only
  // partition-invariant values are exported, so the string is
  // byte-identical across `jobs` counts and machine reuse on/off.
  std::string metrics_json = "{}";

  u64 count(Outcome outcome) const {
    return outcome_counts[static_cast<unsigned>(outcome)];
  }
  // Fold one mutant into the counters and the list (campaign driver and
  // fleet merge alike, in global index order).
  void add(MutantResult mutant);
  // Non-masked ("informative") fraction for one fault target class.
  double informative_fraction(FaultTarget target) const;
  std::string to_string() const;
};

class Campaign {
 public:
  Campaign(assembler::Program program, const CampaignConfig& config)
      : program_(std::move(program)), config_(config) {}

  // Golden run + fault-list generation + one simulation per mutant
  // (fanned out over `config.jobs` workers; aggregation is deterministic).
  Result<CampaignResult> run();

  // The generated fault list (valid after run()).
  const std::vector<FaultSpec>& fault_list() const noexcept { return faults_; }

  // Live progress of an in-flight run(): mutants done plus an Outcome
  // histogram snapshot (indexed by static_cast<unsigned>(Outcome)).
  // Safe to read from any thread while run() executes.
  const exec::CampaignProgress& progress() const noexcept { return progress_; }

 private:
  // The exec::run_campaign hooks (fault.cpp).
  struct Engine;

  assembler::Program program_;
  CampaignConfig config_;
  std::vector<FaultSpec> faults_;
  exec::CampaignProgress progress_;
};

}  // namespace s4e::fault
