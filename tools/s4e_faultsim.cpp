// s4e-faultsim — fault-effect campaign on an ELF.
//
//   s4e-faultsim file.elf [--harts N] [--mutants N] [--seed S] [--jobs N]
//                [--blind] [--no-gpr] [--no-mem] [--no-code] [--list]
//                [--progress] [--reuse-machine[=off]] [--triage[=off|verify]]
//                [--snapshot-stats] [--metrics-out FILE] [--post-mortem]
//                [--post-mortem-dir DIR] [--shard I/N] [--emit-jsonl]
//
// --harts N runs every mutant (and the golden reference) on an N-hart SMP
// machine; GPR faults then target an RNG-chosen hart. Static triage is
// forced off for N > 1 (single-stream reasoning is unsound under SMP).
//
// The flags shared with s4e-mutate (jobs, reuse, triage, observability,
// fleet worker mode) are documented in tools/campaign_cli.hpp.
#include <cstdio>
#include <limits>

#include "fault/fault.hpp"
#include "tools/campaign_cli.hpp"

int main(int argc, char** argv) {
  using namespace s4e;
  static constexpr char kUsage[] =
      "usage: s4e-faultsim <file.elf> [--harts N] [--mutants N] [--seed S] "
      "[--jobs N] [--blind] [--no-gpr] [--no-mem] [--no-code] "
      "[--list] [--progress] [--reuse-machine[=off]] "
      "[--triage[=off|verify]] "
      "[--snapshot-stats] [--metrics-out FILE] [--post-mortem] "
      "[--post-mortem-dir DIR] [--shard I/N] [--emit-jsonl] "
      "[--test-stall-after N]\n";
  tools::CampaignCli cli(argc, argv, "s4e-faultsim", "faultsim", kUsage,
                         {"--harts", "--mutants", "--seed"},
                         {"--blind", "--no-gpr", "--no-mem", "--no-code",
                          "--list"});
  const tools::Args& args = cli.args();
  fault::CampaignConfig config;
  if (const int code = cli.parse(config); code >= 0) return code;
  if (args.has("--harts")) {
    const auto harts = parse_integer(args.value("--harts"));
    if (!harts.ok() || *harts < 1 ||
        *harts > static_cast<long long>(vp::Clint::kMaxHarts)) {
      std::fprintf(stderr, "s4e-faultsim: --harts expects 1..%u (got %s)\n",
                   vp::Clint::kMaxHarts, args.value("--harts").c_str());
      return 2;
    }
    config.machine.num_harts = static_cast<unsigned>(*harts);
  }
  const auto mutants =
      cli.number("--mutants", 200, std::numeric_limits<unsigned>::max());
  if (!mutants) return 2;
  config.mutant_count = static_cast<unsigned>(*mutants);
  const auto seed = cli.number("--seed", 1, u64{1} << 40);
  if (!seed) return 2;
  config.seed = *seed;
  config.coverage_directed = !args.has("--blind");
  config.gpr_faults = !args.has("--no-gpr");
  config.memory_faults = !args.has("--no-mem");
  config.code_faults = !args.has("--no-code");

  auto program = cli.load_program();
  if (!program) return 1;
  fault::Campaign campaign(std::move(*program), config);
  auto result = cli.run(campaign, {"masked", "sdc", "crash", "hang"});
  if (!result.ok()) return cli.fail(result.error());

  if (cli.emit_jsonl()) {
    fleet::MetaLine meta;
    meta.mode = fleet::Mode::kFault;
    meta.begin = result->shard_begin;
    meta.total = result->total_faults;
    meta.golden_exit = result->golden_exit_code;
    meta.golden_instructions = result->golden_instructions;
    return cli.emit(meta, config.seed, config.mutant_count, 0,
                    result->mutants);
  }
  return cli.print_report(
      *result, result->mutants,
      [&] {
        if (!args.has("--list")) return;
        std::printf("\nper-mutant results:\n");
        for (std::size_t i = 0; i < result->mutants.size(); ++i) {
          const auto& mutant = result->mutants[i];
          std::printf("  #%03zu  %-7s exit=%-4d  %s\n", i,
                      std::string(fault::to_string(mutant.outcome)).c_str(),
                      mutant.exit_code, mutant.spec.to_string().c_str());
        }
      },
      [](const fault::MutantResult& mutant) {
        return format("(%s) %s",
                      std::string(fault::to_string(mutant.outcome)).c_str(),
                      mutant.spec.to_string().c_str());
      });
}
