// Binary mutation testing (the XEMU flow, EMSOFT'12): systematic mutation
// of the software-under-test's *binary* and re-execution to measure how
// many mutants the program's own checks detect ("kill"). Surviving mutants
// are exactly the MBMV'20 "normal termination on faulty hardware" class —
// the subjects for strengthening the verification.
//
// Mutation operators mirror XEMU's binary operators, applied at the decoded
// instruction level so every mutant is a *legal* instruction (no trivial
// illegal-opcode kills):
//   - OSR: opcode substitution within the same format (add<->sub, beq<->bne)
//   - ROR: register operand replacement (rd/rs1/rs2 -> neighbouring reg)
//   - IPR: immediate perturbation (imm+1, imm = 0)
#pragma once

#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "dataflow/triage.hpp"
#include "exec/campaign_driver.hpp"
#include "isa/instr.hpp"
#include "vp/machine.hpp"

namespace s4e::mutation {

enum class Operator : u8 {
  kOpcodeSubstitution,
  kRegisterReplacement,
  kImmediatePerturbation,
};

std::string_view to_string(Operator op) noexcept;

struct Mutant {
  u32 address = 0;       // mutated instruction's address
  u32 original = 0;      // original encoding
  u32 mutated = 0;       // replacement encoding (same length)
  u8 length = 4;         // encoding size (RVC mutants are 2)
  Operator op = Operator::kOpcodeSubstitution;
  std::string description;
};

enum class Verdict : u8 {
  kKilledResult,  // different exit code or UART output
  kKilledCrash,   // mutant crashed (trap / breakpoint)
  kKilledHang,    // mutant exceeded the instruction budget
  kSurvived,      // indistinguishable from the golden run
};

std::string_view to_string(Verdict verdict) noexcept;

struct MutantResult {
  Mutant mutant;
  Verdict verdict = Verdict::kSurvived;
  int exit_code = 0;
  u64 instructions = 0;  // guest instructions the mutant executed
  // Static triage: true = the verdict was proven (kSurvived, equivalent
  // mutant) without running the VP; `prune_reason` is the triage class. In
  // verify mode the mutant still executes and `pruned` marks what *would*
  // have been skipped.
  bool pruned = false;
  std::string prune_reason;
  // Flight-recorder dump (the mutant's last executed instructions, memory
  // accesses and traps) captured for kKilledHang/kKilledCrash mutants when
  // the campaign runs with `post_mortem` enabled; empty otherwise.
  std::string post_mortem;
};

struct MutationScore {
  std::vector<MutantResult> results;
  // Sharded runs: global index of results[0] in the full mutant
  // enumeration, and the full enumeration's size. Whole-campaign runs have
  // shard_begin == 0 and total_mutants == results.size().
  u64 shard_begin = 0;
  u64 total_mutants = 0;
  u64 verdict_counts[4] = {0, 0, 0, 0};
  u64 pruned_count = 0;  // mutants decided statically (triage)
  // Aggregate snapshot/restore cost over all reused worker machines (zeroed
  // when reuse_machines is off).
  vp::SnapshotStats snapshot_stats;
  // One-line JSON campaign telemetry ("{}" unless collect_metrics). Only
  // partition-invariant values are exported, so the string is
  // byte-identical across `jobs` counts and machine reuse on/off.
  std::string metrics_json = "{}";

  u64 count(Verdict verdict) const {
    return verdict_counts[static_cast<unsigned>(verdict)];
  }
  u64 killed() const {
    return count(Verdict::kKilledResult) + count(Verdict::kKilledCrash) +
           count(Verdict::kKilledHang);
  }
  double score() const {
    return results.empty() ? 0.0
                           : static_cast<double>(killed()) /
                                 static_cast<double>(results.size());
  }
  // Kill rate restricted to one operator class.
  double score(Operator op) const;
  // Fold one mutant into the counters and the list (campaign driver and
  // fleet merge alike, in global index order).
  void add(MutantResult result);

  std::string to_string() const;
};

// Enumeration knobs; the ones shared with fault campaigns (jobs, reuse,
// triage, shard, observability, hang budget, machine) are inherited.
struct MutationConfig : exec::CampaignOptions {
  // Only mutate instructions the golden run actually executes (everything
  // else trivially survives and would dilute the score meaninglessly).
  bool executed_only = true;
  // Cap on generated mutants (0 = unlimited); selection is deterministic
  // (first-N in address order). Shards split the capped list.
  unsigned max_mutants = 0;
};

// Enumerate all mutants of `program` (deterministic, address-ordered).
// `executed` restricts to the given instruction addresses (empty = all).
std::vector<Mutant> enumerate_mutants(const assembler::Program& program,
                                      const std::vector<u32>& executed);

class MutationCampaign {
 public:
  MutationCampaign(assembler::Program program, const MutationConfig& config)
      : program_(std::move(program)), config_(config) {}

  // Golden run + enumerate + one run per mutant (fanned out over
  // `config.jobs` workers; aggregation is deterministic).
  Result<MutationScore> run();

  // Live progress of an in-flight run(): mutants done plus a Verdict
  // histogram snapshot (indexed by static_cast<unsigned>(Verdict)).
  // Safe to read from any thread while run() executes.
  const exec::CampaignProgress& progress() const noexcept {
    return progress_;
  }

 private:
  // The exec::run_campaign hooks (mutation.cpp).
  struct Engine;

  assembler::Program program_;
  MutationConfig config_;
  exec::CampaignProgress progress_;
};

}  // namespace s4e::mutation
