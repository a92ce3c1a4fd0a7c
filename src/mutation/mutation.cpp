#include "mutation/mutation.hpp"

#include <algorithm>
#include <set>

#include "common/strings.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "isa/encoder.hpp"
#include "isa/rvc.hpp"
#include "vp/runner.hpp"

namespace s4e::mutation {

namespace {

using isa::Format;
using isa::Instr;
using isa::Op;

// Same-format opcode substitutions (both directions are generated when both
// sides appear in the program).
constexpr std::pair<Op, Op> kSubstitutions[] = {
    {Op::kAdd, Op::kSub},   {Op::kAnd, Op::kOr},    {Op::kOr, Op::kXor},
    {Op::kSlt, Op::kSltu},  {Op::kSll, Op::kSrl},   {Op::kSrl, Op::kSra},
    {Op::kBeq, Op::kBne},   {Op::kBlt, Op::kBge},   {Op::kBltu, Op::kBgeu},
    {Op::kAddi, Op::kXori}, {Op::kOri, Op::kAndi},  {Op::kSlti, Op::kSltiu},
    {Op::kSlli, Op::kSrli}, {Op::kSrli, Op::kSrai}, {Op::kLw, Op::kLh},
    {Op::kLbu, Op::kLhu},   {Op::kSw, Op::kSh},     {Op::kMul, Op::kMulh},
    {Op::kDiv, Op::kRem},   {Op::kDivu, Op::kRemu},
};

// Re-encode `instr` with the same length as the original; nullopt when the
// mutated form has no encoding of that length.
std::optional<u32> encode_same_length(const Instr& instr, u8 length) {
  if (length == 2) {
    const auto half = isa::compress(instr);
    return half.has_value() ? std::optional<u32>(*half) : std::nullopt;
  }
  auto word = isa::encode(instr);
  return word.ok() ? std::optional<u32>(*word) : std::nullopt;
}

void add_mutant(std::vector<Mutant>& out, u32 address, u32 original,
                u8 length, const Instr& mutated_instr, Operator op,
                std::string description) {
  const auto encoding = encode_same_length(mutated_instr, length);
  if (!encoding.has_value() || *encoding == original) return;
  Mutant mutant;
  mutant.address = address;
  mutant.original = original;
  mutant.mutated = *encoding;
  mutant.length = length;
  mutant.op = op;
  mutant.description = std::move(description);
  out.push_back(std::move(mutant));
}

void mutants_for(std::vector<Mutant>& out, u32 address, const Instr& instr) {
  const u32 original = instr.raw;
  const u8 length = instr.length;
  const isa::OpInfo& info = instr.info();

  // --- OSR: opcode substitution.
  for (const auto& [a, b] : kSubstitutions) {
    Op substitute = Op::kCount;
    if (instr.op == a) substitute = b;
    if (instr.op == b) substitute = a;
    if (substitute == Op::kCount) continue;
    Instr mutated = instr;
    mutated.op = substitute;
    add_mutant(out, address, original, length, mutated,
               Operator::kOpcodeSubstitution,
               format("%s -> %s", std::string(isa::mnemonic(instr.op)).c_str(),
                      std::string(isa::mnemonic(substitute)).c_str()));
  }

  // --- ROR: register operand replacement (neighbouring register).
  if (info.writes_rd && instr.rd != 0) {
    Instr mutated = instr;
    mutated.rd = static_cast<u8>((instr.rd % 31) + 1);  // stays in x1..x31
    add_mutant(out, address, original, length, mutated,
               Operator::kRegisterReplacement,
               format("rd x%u -> x%u", instr.rd, mutated.rd));
  }
  if (info.reads_rs1) {
    Instr mutated = instr;
    mutated.rs1 = static_cast<u8>((instr.rs1 + 1) % 32);
    add_mutant(out, address, original, length, mutated,
               Operator::kRegisterReplacement,
               format("rs1 x%u -> x%u", instr.rs1, mutated.rs1));
  }
  if (info.reads_rs2 && info.format != Format::kIShift) {
    Instr mutated = instr;
    mutated.rs2 = static_cast<u8>((instr.rs2 + 1) % 32);
    add_mutant(out, address, original, length, mutated,
               Operator::kRegisterReplacement,
               format("rs2 x%u -> x%u", instr.rs2, mutated.rs2));
  }

  // --- IPR: immediate perturbation.
  switch (info.format) {
    case Format::kI:
    case Format::kS: {
      Instr plus = instr;
      plus.imm = instr.imm + 1;
      add_mutant(out, address, original, length, plus,
                 Operator::kImmediatePerturbation, "imm + 1");
      if (instr.imm != 0) {
        Instr zero = instr;
        zero.imm = 0;
        add_mutant(out, address, original, length, zero,
                   Operator::kImmediatePerturbation, "imm -> 0");
      }
      break;
    }
    case Format::kB:
    case Format::kJ: {
      // Keep 2-byte alignment: offset +- one parcel slot.
      Instr shifted = instr;
      shifted.imm = instr.imm + 4;
      add_mutant(out, address, original, length, shifted,
                 Operator::kImmediatePerturbation, "offset + 4");
      break;
    }
    case Format::kU: {
      Instr plus = instr;
      plus.imm = static_cast<i32>(static_cast<u32>(instr.imm) + 0x1000u);
      add_mutant(out, address, original, length, plus,
                 Operator::kImmediatePerturbation, "imm + 0x1000");
      break;
    }
    case Format::kIShift: {
      Instr plus = instr;
      plus.rs2 = static_cast<u8>((instr.rs2 + 1) % 32);
      plus.imm = plus.rs2;
      add_mutant(out, address, original, length, plus,
                 Operator::kImmediatePerturbation, "shamt + 1");
      break;
    }
    default:
      break;
  }
}

}  // namespace

std::string_view to_string(Operator op) noexcept {
  switch (op) {
    case Operator::kOpcodeSubstitution: return "opcode-subst";
    case Operator::kRegisterReplacement: return "register-repl";
    case Operator::kImmediatePerturbation: return "imm-perturb";
  }
  return "?";
}

std::string_view to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kKilledResult: return "killed-result";
    case Verdict::kKilledCrash: return "killed-crash";
    case Verdict::kKilledHang: return "killed-hang";
    case Verdict::kSurvived: return "SURVIVED";
  }
  return "?";
}

double MutationScore::score(Operator op) const {
  u64 total = 0;
  u64 killed_count = 0;
  for (const MutantResult& result : results) {
    if (result.mutant.op != op) continue;
    ++total;
    killed_count += result.verdict != Verdict::kSurvived;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(killed_count) /
                          static_cast<double>(total);
}

std::string MutationScore::to_string() const {
  std::string out = "mutation analysis\n";
  out += format("  mutants        : %zu\n", results.size());
  if (pruned_count > 0) {
    out += format("  pruned (static): %llu (%.1f%%)\n",
                  static_cast<unsigned long long>(pruned_count),
                  100.0 * static_cast<double>(pruned_count) /
                      static_cast<double>(
                          std::max<std::size_t>(results.size(), 1)));
  }
  out += format("  killed         : %llu (%.1f%%)\n",
                static_cast<unsigned long long>(killed()), 100.0 * score());
  for (unsigned i = 0; i < 4; ++i) {
    const auto verdict = static_cast<Verdict>(i);
    out += format("    %-14s : %llu\n",
                  std::string(mutation::to_string(verdict)).c_str(),
                  static_cast<unsigned long long>(verdict_counts[i]));
  }
  for (unsigned i = 0; i < 3; ++i) {
    const auto op = static_cast<Operator>(i);
    out += format("  %-15s : %.1f%% killed\n",
                  std::string(mutation::to_string(op)).c_str(),
                  100.0 * score(op));
  }
  return out;
}

std::vector<Mutant> enumerate_mutants(const assembler::Program& program,
                                      const std::vector<u32>& executed) {
  std::set<u32> filter(executed.begin(), executed.end());
  std::vector<Mutant> mutants;
  const assembler::Section* text = program.find_section(".text");
  if (text == nullptr) return mutants;

  u32 address = text->base;
  while (address + 2 <= text->end()) {
    auto half = program.read_half(address);
    if (!half.ok()) break;
    Instr instr;
    if (isa::is_compressed(static_cast<u16>(*half))) {
      auto decompressed = isa::decompress(static_cast<u16>(*half));
      if (!decompressed.ok()) {
        address += 2;
        continue;
      }
      instr = *decompressed;
    } else {
      auto word = program.read_word(address);
      if (!word.ok()) break;
      auto decoded = isa::decoder().decode(*word);
      if (!decoded.ok()) {
        address += 4;
        continue;
      }
      instr = *decoded;
    }
    if (filter.empty() || filter.count(address) != 0) {
      mutants_for(mutants, address, instr);
    }
    address += instr.length;
  }
  return mutants;
}

struct MutationCampaign::Engine {
  using Report = MutationScore;
  using Mutant = MutantResult;
  static constexpr unsigned kProvenBucket =
      static_cast<unsigned>(Verdict::kSurvived);

  const MutationCampaign& campaign;
  vp::GoldenRun golden;
  std::vector<mutation::Mutant> mutants;

  // Golden run + executed-address profile, then the (capped) enumeration.
  Result<MutationScore> start() {
    const MutationConfig& config = campaign.config_;
    vp::Machine machine(config.machine);
    S4E_TRY(run, vp::run_golden(machine, campaign.program_));
    golden = std::move(run);
    std::vector<u32> executed_list;
    if (config.executed_only) executed_list = std::move(golden.executed_code);
    mutants = enumerate_mutants(campaign.program_, executed_list);
    if (config.max_mutants != 0 && mutants.size() > config.max_mutants) {
      mutants.resize(config.max_mutants);
    }
    MutationScore score;
    score.total_mutants = mutants.size();
    return score;
  }

  std::size_t size() const { return mutants.size(); }
  u64 golden_instructions() const { return golden.result.instructions; }
  const assembler::Program& program() const { return campaign.program_; }
  std::vector<std::string> metric_buckets() const {
    return {"killed_result", "killed_crash", "killed_hang", "survived"};
  }

  dataflow::TriageDecision triage(const dataflow::StaticTriage& analysis,
                                  std::size_t i) const {
    const mutation::Mutant& mutant = mutants[i];
    return analysis.mutant(mutant.address, mutant.length, mutant.original,
                           mutant.mutated);
  }

  MutantResult proven(std::size_t i) const {
    MutantResult result;
    result.mutant = mutants[i];
    result.verdict = Verdict::kSurvived;
    result.exit_code = golden.result.exit_code;
    return result;
  }

  // One mutant run on `vm`, which holds the freshly loaded (or
  // snapshot-restored) unmutated program; the mutated encoding is patched
  // in here and the touched translation blocks invalidated. Thread-safe:
  // shares only the immutable program and the golden reference.
  template <class Run>
  Result<MutantResult> execute(vp::Machine& vm, std::size_t i,
                               Run&& run) const {
    // On a reused machine warm translation blocks cover the patched
    // address, so the overlapping blocks must be dropped explicitly
    // (ram_write bypasses the bus's self-modification detection).
    const mutation::Mutant& mutant = mutants[i];
    u8 bytes[4];
    for (unsigned k = 0; k < mutant.length; ++k) {
      bytes[k] = static_cast<u8>(mutant.mutated >> (8 * k));
    }
    S4E_TRY_STATUS(vm.bus().ram_write(mutant.address, bytes, mutant.length));
    vm.tb_cache().invalidate_range(mutant.address, mutant.length);

    const vp::RunResult run_result = run(vm);
    MutantResult result;
    result.mutant = mutant;
    result.exit_code = run_result.exit_code;
    result.instructions = run_result.instructions;
    if (run_result.reason == vp::StopReason::kMaxInstructions) {
      result.verdict = Verdict::kKilledHang;
    } else if (!run_result.normal_exit()) {
      result.verdict = Verdict::kKilledCrash;
    } else if (run_result.exit_code != golden.result.exit_code ||
               (vm.uart() != nullptr && vm.uart()->tx_log() != golden.uart)) {
      result.verdict = Verdict::kKilledResult;
    } else {
      result.verdict = Verdict::kSurvived;
    }
    return result;
  }

  static unsigned bucket(const MutantResult& result) {
    return static_cast<unsigned>(result.verdict);
  }
  static bool failed(const MutantResult& result) {
    return result.verdict == Verdict::kKilledHang ||
           result.verdict == Verdict::kKilledCrash;
  }
  std::string describe(const MutantResult& result) const {
    return format("mutant 0x%08x (%s)", result.mutant.address,
                  result.mutant.description.c_str());
  }
  static std::string bucket_name(const MutantResult& result) {
    return std::string(mutation::to_string(result.verdict));
  }
};

Result<MutationScore> MutationCampaign::run() {
  Engine engine{*this, {}, {}};
  return exec::run_campaign(engine, config_, progress_);
}

void MutationScore::add(MutantResult result) {
  ++verdict_counts[static_cast<unsigned>(result.verdict)];
  pruned_count += result.pruned ? 1 : 0;
  results.push_back(std::move(result));
}

}  // namespace s4e::mutation
