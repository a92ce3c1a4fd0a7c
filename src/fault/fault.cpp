#include "fault/fault.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "coverage/coverage.hpp"
#include "vp/runner.hpp"

namespace s4e::fault {

std::string_view to_string(FaultTarget target) noexcept {
  switch (target) {
    case FaultTarget::kGpr: return "gpr";
    case FaultTarget::kMemory: return "mem";
    case FaultTarget::kCode: return "code";
  }
  return "?";
}

std::string FaultSpec::to_string() const {
  const char* kind_name =
      kind == FaultKind::kTransient ? "transient" : "stuck-at";
  // hart is printed only when non-zero so single-hart fault lists stay
  // byte-identical to pre-SMP output.
  const std::string site =
      target == FaultTarget::kGpr
          ? format("%s x%u", hart != 0 ? format("@hart%u", hart).c_str() : "",
                   reg)
          : format(" 0x%08x", address);
  // Stuck-at code faults print no forced value.
  const char* forced =
      kind == FaultKind::kStuckAt && target != FaultTarget::kCode
          ? (stuck_value ? "=1" : "=0")
          : "";
  return format("%s %s%s bit %u%s trigger=%llu", kind_name,
                std::string(fault::to_string(target)).c_str(), site.c_str(),
                bit, forced, static_cast<unsigned long long>(trigger));
}

std::string_view to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kMasked: return "masked";
    case Outcome::kSdc: return "sdc";
    case Outcome::kCrash: return "crash";
    case Outcome::kHang: return "hang";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Injector plugin.

void FaultInjectorPlugin::apply_flip() {
  switch (spec_.target) {
    case FaultTarget::kGpr: {
      const u32 value = s4e_read_gpr_hart(vm(), spec_.hart, spec_.reg);
      s4e_write_gpr_hart(vm(), spec_.hart, spec_.reg,
                         flip_bit(value, spec_.bit));
      break;
    }
    case FaultTarget::kMemory: {
      u8 byte = 0;
      if (s4e_read_mem(vm(), spec_.address, &byte, 1) == 0) {
        byte = static_cast<u8>(byte ^ (1u << (spec_.bit & 7)));
        s4e_write_mem(vm(), spec_.address, &byte, 1);
      }
      break;
    }
    case FaultTarget::kCode: {
      u32 word = 0;
      if (s4e_read_mem(vm(), spec_.address, &word, 4) == 0) {
        word = flip_bit(word, spec_.bit);
        s4e_write_mem(vm(), spec_.address, &word, 4);
        s4e_flush_tb_cache(vm());
      }
      break;
    }
  }
  ++applications_;
}

void FaultInjectorPlugin::apply_stuck() {
  switch (spec_.target) {
    case FaultTarget::kGpr: {
      const u32 value = s4e_read_gpr_hart(vm(), spec_.hart, spec_.reg);
      const u32 forced = spec_.stuck_value ? (value | (u32{1} << spec_.bit))
                                           : (value & ~(u32{1} << spec_.bit));
      if (forced != value) {
        s4e_write_gpr_hart(vm(), spec_.hart, spec_.reg, forced);
        ++applications_;
      }
      break;
    }
    case FaultTarget::kMemory: {
      u8 byte = 0;
      if (s4e_read_mem(vm(), spec_.address, &byte, 1) == 0) {
        const u8 forced = spec_.stuck_value
                              ? static_cast<u8>(byte | (1u << (spec_.bit & 7)))
                              : static_cast<u8>(byte & ~(1u << (spec_.bit & 7)));
        if (forced != byte) {
          s4e_write_mem(vm(), spec_.address, &forced, 1);
          ++applications_;
        }
      }
      break;
    }
    case FaultTarget::kCode:
      // Handled once in on_insn_exec (code bytes don't change on their own).
      break;
  }
}

void FaultInjectorPlugin::on_insn_exec(const s4e_insn_info& insn) {
  (void)insn;
  if (spec_.kind == FaultKind::kStuckAt) {
    if (spec_.target == FaultTarget::kCode) {
      if (!fired_) {
        fired_ = true;
        u32 word = 0;
        if (s4e_read_mem(vm(), spec_.address, &word, 4) == 0) {
          const u32 forced = spec_.stuck_value
                                 ? (word | (u32{1} << spec_.bit))
                                 : (word & ~(u32{1} << spec_.bit));
          if (forced != word) {
            s4e_write_mem(vm(), spec_.address, &forced, 4);
            s4e_flush_tb_cache(vm());
            ++applications_;
          }
        }
      }
      return;
    }
    apply_stuck();
    return;
  }
  // Transient: one flip at the trigger point.
  if (!fired_ && s4e_icount(vm()) >= spec_.trigger) {
    fired_ = true;
    apply_flip();
  }
}

void FaultInjectorPlugin::on_mem(const s4e_mem_event& event) {
  // Stuck-at memory bit: re-force after any store covering the faulty byte.
  if (event.is_store && spec_.target == FaultTarget::kMemory &&
      spec_.kind == FaultKind::kStuckAt &&
      event.vaddr <= spec_.address &&
      spec_.address < event.vaddr + event.size) {
    apply_stuck();
  }
}

// ---------------------------------------------------------------------------
// Campaign.

struct Campaign::Engine {
  using Report = CampaignResult;
  using Mutant = MutantResult;
  static constexpr unsigned kProvenBucket =
      static_cast<unsigned>(Outcome::kMasked);

  Campaign& campaign;
  vp::GoldenRun golden;

  // Profiling golden run (coverage-directed fault lists draw from what it
  // reads, touches and executes), then the fault list.
  Result<CampaignResult> start() {
    vp::Machine machine(campaign.config_.machine);
    coverage::CoveragePlugin coverage_plugin;
    coverage_plugin.attach(machine.vm_handle());
    S4E_TRY(run, vp::run_golden(machine, campaign.program_));
    golden = std::move(run);
    campaign.faults_ = generate_faults(coverage_plugin.data());

    CampaignResult result;
    result.golden_exit_code = golden.result.exit_code;
    result.golden_instructions = golden.result.instructions;
    result.golden_uart = golden.uart;
    result.golden_memory_hash = golden.memory_hash;
    result.total_faults = campaign.faults_.size();
    return result;
  }

  std::vector<FaultSpec> generate_faults(
      const coverage::CoverageData& coverage) const;

  std::size_t size() const { return campaign.faults_.size(); }
  u64 golden_instructions() const { return golden.result.instructions; }
  const assembler::Program& program() const { return campaign.program_; }
  std::vector<std::string> metric_buckets() const {
    return {"masked", "sdc", "crash", "hang"};
  }

  dataflow::TriageDecision triage(const dataflow::StaticTriage& analysis,
                                  std::size_t i) const {
    const FaultSpec& spec = campaign.faults_[i];
    switch (spec.target) {
      case FaultTarget::kGpr:
        return analysis.gpr_fault(spec.reg);
      case FaultTarget::kMemory:
        break;  // the flipped byte lands in the hashed .data image
      case FaultTarget::kCode:
        return analysis.code_fault(spec.address,
                                 spec.kind == FaultKind::kStuckAt, spec.bit,
                                 spec.stuck_value);
    }
    return {};
  }

  MutantResult proven(std::size_t i) const {
    MutantResult mutant;
    mutant.spec = campaign.faults_[i];
    mutant.outcome = Outcome::kMasked;
    mutant.exit_code = golden.result.exit_code;
    return mutant;
  }

  // One mutant simulation on `machine`, which holds the freshly loaded (or
  // snapshot-restored) program with no plugins attached. Thread-safe:
  // shares only the immutable program and golden reference.
  template <class Run>
  Result<MutantResult> execute(vp::Machine& machine, std::size_t i,
                               Run&& run) const {
    FaultInjectorPlugin injector(campaign.faults_[i]);
    injector.attach(machine.vm_handle());
    const vp::RunResult result = run(machine);

    MutantResult mutant;
    mutant.spec = campaign.faults_[i];
    mutant.exit_code = result.exit_code;
    mutant.instructions = result.instructions;
    mutant.outcome = classify(
        result, machine.uart() != nullptr ? machine.uart()->tx_log() : "",
        vp::data_memory_hash(machine, campaign.program_));
    return mutant;
  }

  Outcome classify(const vp::RunResult& run, const std::string& uart,
                   u64 memory_hash) const {
    if (run.reason == vp::StopReason::kMaxInstructions) return Outcome::kHang;
    if (!run.normal_exit()) return Outcome::kCrash;
    if (run.exit_code != golden.result.exit_code || uart != golden.uart) {
      return Outcome::kSdc;
    }
    if (campaign.config_.compare_memory &&
        memory_hash != golden.memory_hash) {
      return Outcome::kSdc;  // silent corruption below the output surface
    }
    return Outcome::kMasked;
  }

  static unsigned bucket(const MutantResult& mutant) {
    return static_cast<unsigned>(mutant.outcome);
  }
  static bool failed(const MutantResult& mutant) {
    return mutant.outcome == Outcome::kHang ||
           mutant.outcome == Outcome::kCrash;
  }
  std::string describe(const MutantResult& mutant) const {
    return mutant.spec.to_string();
  }
  static std::string bucket_name(const MutantResult& mutant) {
    return std::string(fault::to_string(mutant.outcome));
  }
};

std::vector<FaultSpec> Campaign::Engine::generate_faults(
    const coverage::CoverageData& coverage) const {
  const CampaignConfig& config = campaign.config_;
  const assembler::Program& program = campaign.program_;
  Rng rng(config.seed);
  std::vector<FaultSpec> faults;

  // Candidate registers: coverage-directed -> registers the binary reads
  // (a fault in a never-read register cannot propagate); blind -> x1..x31.
  std::vector<unsigned> registers;
  for (unsigned reg = 1; reg < isa::kGprCount; ++reg) {
    if (!config.coverage_directed || coverage.gpr_reads[reg] != 0) {
      registers.push_back(reg);
    }
  }

  // Candidate memory: touched addresses, or the whole data section.
  std::vector<u32> memory = golden.touched_memory;
  if (!config.coverage_directed || memory.empty()) {
    memory.clear();
    if (const assembler::Section* data = program.find_section(".data")) {
      for (u32 offset = 0; offset < data->bytes.size(); ++offset) {
        memory.push_back(data->base + offset);
      }
    }
  }

  // Candidate code: executed addresses, or the whole text section.
  std::vector<u32> code = golden.executed_code;
  if (!config.coverage_directed || code.empty()) {
    code.clear();
    if (const assembler::Section* text = program.find_section(".text")) {
      for (u32 offset = 0; offset + 4 <= text->bytes.size(); offset += 4) {
        code.push_back(text->base + offset);
      }
    }
  }

  std::vector<FaultTarget> targets;
  if (config.gpr_faults && !registers.empty()) {
    targets.push_back(FaultTarget::kGpr);
  }
  if (config.memory_faults && !memory.empty()) {
    targets.push_back(FaultTarget::kMemory);
  }
  if (config.code_faults && !code.empty()) {
    targets.push_back(FaultTarget::kCode);
  }
  if (targets.empty()) return faults;

  const u64 golden_icount = std::max<u64>(coverage.total_instructions, 1);
  for (unsigned i = 0; i < config.mutant_count; ++i) {
    FaultSpec spec;
    spec.target = targets[rng.next_below(static_cast<u32>(targets.size()))];
    spec.kind = rng.chance(1, 4) ? FaultKind::kStuckAt : FaultKind::kTransient;
    spec.trigger = rng.next_u64() % golden_icount;
    spec.stuck_value = rng.chance(1, 2);
    switch (spec.target) {
      case FaultTarget::kGpr:
        spec.reg = registers[rng.next_below(static_cast<u32>(registers.size()))];
        spec.bit = static_cast<u8>(rng.next_below(32));
        // The hart draw happens only on SMP machines so single-hart fault
        // lists consume the exact RNG sequence of pre-SMP builds.
        if (config.machine.num_harts > 1) {
          spec.hart = rng.next_below(config.machine.num_harts);
        }
        break;
      case FaultTarget::kMemory:
        spec.address = memory[rng.next_below(static_cast<u32>(memory.size()))];
        spec.bit = static_cast<u8>(rng.next_below(8));
        break;
      case FaultTarget::kCode:
        spec.address = code[rng.next_below(static_cast<u32>(code.size()))];
        spec.bit = static_cast<u8>(rng.next_below(32));
        // Stuck-at code faults behave like load-time mutations.
        break;
    }
    faults.push_back(spec);
  }
  return faults;
}

Result<CampaignResult> Campaign::run() {
  // Static triage reasons about a single sequential instruction stream; on
  // an SMP machine a register another hart never reads can still change the
  // interleaving-visible state, so triage is conservatively disabled.
  if (config_.machine.num_harts > 1) {
    config_.triage = dataflow::TriageMode::kOff;
  }
  Engine engine{*this, {}};
  return exec::run_campaign(engine, config_, progress_);
}

void CampaignResult::add(MutantResult mutant) {
  ++outcome_counts[static_cast<unsigned>(mutant.outcome)];
  pruned_count += mutant.pruned ? 1 : 0;
  simulated_instructions += static_cast<double>(mutant.instructions);
  mutants.push_back(std::move(mutant));
}

double CampaignResult::informative_fraction(FaultTarget target) const {
  u64 total = 0;
  u64 informative = 0;
  for (const MutantResult& mutant : mutants) {
    if (mutant.spec.target != target) continue;
    ++total;
    informative += mutant.outcome != Outcome::kMasked;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(informative) /
                          static_cast<double>(total);
}

std::string CampaignResult::to_string() const {
  std::string out = "fault campaign\n";
  out += format("  golden: exit=%d, %llu instructions\n", golden_exit_code,
                static_cast<unsigned long long>(golden_instructions));
  out += format("  mutants simulated : %zu (%.0f instructions total)\n",
                mutants.size(), simulated_instructions);
  if (pruned_count > 0) {
    out += format("  statically pruned : %llu (%.1f%%)\n",
                  static_cast<unsigned long long>(pruned_count),
                  100.0 * static_cast<double>(pruned_count) /
                      static_cast<double>(std::max<u64>(mutants.size(), 1)));
  }
  const u64 total = std::max<u64>(mutants.size(), 1);
  for (unsigned i = 0; i < 4; ++i) {
    const auto outcome = static_cast<Outcome>(i);
    out += format("  %-7s : %llu  (%.1f%%)\n",
                  std::string(fault::to_string(outcome)).c_str(),
                  static_cast<unsigned long long>(outcome_counts[i]),
                  100.0 * static_cast<double>(outcome_counts[i]) /
                      static_cast<double>(total));
  }
  out += format("  informative by target: gpr %.1f%%, mem %.1f%%, code "
                "%.1f%%\n",
                100.0 * informative_fraction(FaultTarget::kGpr),
                100.0 * informative_fraction(FaultTarget::kMemory),
                100.0 * informative_fraction(FaultTarget::kCode));
  return out;
}

}  // namespace s4e::fault
