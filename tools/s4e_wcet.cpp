// s4e-wcet — static WCET analysis of an ELF (the aiT-substitute front half
// of the QTA flow). Writes the WCET-annotated CFG for s4e-qta.
//
//   s4e-wcet file.elf [--emit-cfg out.qtacfg] [--dot]
#include <cstdio>

#include "cfg/cfg.hpp"
#include "elf/elf32.hpp"
#include "tools/tool_util.hpp"
#include "wcet/analyzer.hpp"

int main(int argc, char** argv) {
  using namespace s4e;
  static constexpr char kUsage[] =
      "usage: s4e-wcet <file.elf> [--emit-cfg out.qtacfg] [--dot]\n";
  tools::Args args(argc, argv, 1, {"--emit-cfg"}, {"--dot"});
  if (const int code = tools::standard_flags(args, "s4e-wcet", kUsage);
      code >= 0) {
    return code;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  auto program = elf::read_elf_file(args.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "s4e-wcet: %s\n",
                 program.error().to_string().c_str());
    return 1;
  }

  if (args.has("--dot")) {
    auto cfg = cfg::build_cfg(*program);
    if (!cfg.ok()) {
      std::fprintf(stderr, "s4e-wcet: %s\n", cfg.error().to_string().c_str());
      return 1;
    }
    std::fputs(cfg::to_dot(*cfg).c_str(), stdout);
    return 0;
  }

  wcet::AnalyzerOptions options;
  options.program_name = args.positional()[0];
  auto analysis = wcet::Analyzer(options).analyze(*program);
  if (!analysis.ok()) {
    std::fprintf(stderr, "s4e-wcet: %s\n",
                 analysis.error().to_string().c_str());
    return 1;
  }

  std::printf("%-20s %10s %8s %6s %8s\n", "function", "entry", "blocks",
              "loops", "wcet");
  for (const auto& fn : analysis->functions) {
    std::printf("%-20s 0x%08x %8u %3u/%-2u %8llu\n", fn.name.c_str(),
                fn.entry, fn.block_count, fn.bounded_loops, fn.loop_count,
                static_cast<unsigned long long>(fn.wcet));
  }
  std::printf("\ntotal static WCET: %llu cycles\n",
              static_cast<unsigned long long>(analysis->total_wcet));

  if (args.has("--emit-cfg")) {
    const std::string path = args.value("--emit-cfg");
    if (auto status =
            tools::write_file(path, analysis->annotated.serialize());
        !status.ok()) {
      std::fprintf(stderr, "s4e-wcet: %s\n", status.to_string().c_str());
      return 1;
    }
    std::printf("annotated CFG written to %s\n", path.c_str());
  }
  return tools::finish_stdout("s4e-wcet");
}
