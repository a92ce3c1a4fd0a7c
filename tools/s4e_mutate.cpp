// s4e-mutate — binary mutation analysis of an ELF (the XEMU flow).
//
//   s4e-mutate file.elf [--max N] [--jobs N] [--all-sites] [--survivors]
//              [--progress] [--reuse-machine[=off]] [--triage[=off|verify]]
//              [--snapshot-stats] [--metrics-out FILE] [--post-mortem]
//              [--post-mortem-dir DIR] [--shard I/N] [--emit-jsonl]
//              [--result-port P]
//
// The flags shared with s4e-faultsim (jobs, reuse, triage, observability,
// fleet worker mode) are documented in tools/campaign_cli.hpp.
#include <cstdio>
#include <limits>

#include "mutation/mutation.hpp"
#include "tools/campaign_cli.hpp"

int main(int argc, char** argv) {
  using namespace s4e;
  static constexpr char kUsage[] =
      "usage: s4e-mutate <file.elf> [--max N] [--jobs N] "
      "[--all-sites] [--survivors] [--progress] "
      "[--reuse-machine[=off]] [--triage[=off|verify]] [--snapshot-stats] "
      "[--metrics-out FILE] [--post-mortem] "
      "[--post-mortem-dir DIR] [--shard I/N] [--emit-jsonl] "
      "[--result-port P] [--test-stall-after N]\n";
  tools::CampaignCli cli(argc, argv, "s4e-mutate", "mutate", kUsage, {"--max"},
                         {"--all-sites", "--survivors"});
  const tools::Args& args = cli.args();
  mutation::MutationConfig config;
  if (const int code = cli.parse(config); code >= 0) return code;
  config.executed_only = !args.has("--all-sites");
  const auto max = cli.number("--max", 0, std::numeric_limits<unsigned>::max());
  if (!max) return 2;
  config.max_mutants = static_cast<unsigned>(*max);

  auto program = cli.load_program();
  if (!program) return 1;
  mutation::MutationCampaign campaign(std::move(*program), config);
  auto score = cli.run(campaign, {"result", "crash", "hang", "survived"});
  if (!score.ok()) return cli.fail(score.error());

  if (cli.emit_jsonl()) {
    fleet::MetaLine meta;
    meta.mode = fleet::Mode::kMutation;
    meta.begin = score->shard_begin;
    meta.total = score->total_mutants;
    return cli.emit(meta, 0, 0, config.max_mutants, score->results);
  }
  return cli.print_report(
      *score, score->results,
      [&] {
        if (!args.has("--survivors")) return;
        std::printf("\nsurviving mutants:\n");
        for (const auto& result : score->results) {
          if (result.verdict != mutation::Verdict::kSurvived) continue;
          std::printf("  0x%08x  %-14s %s\n", result.mutant.address,
                      std::string(mutation::to_string(result.mutant.op)).c_str(),
                      result.mutant.description.c_str());
        }
      },
      [](const mutation::MutantResult& result) {
        return format("(%s) 0x%08x %s",
                      std::string(mutation::to_string(result.verdict)).c_str(),
                      result.mutant.address, result.mutant.description.c_str());
      });
}
