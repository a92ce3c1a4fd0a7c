// s4e-cov — run one or more ELFs and print merged coverage (the suite-level
// view behind the E4 table: per-binary runs, union on merge).
//
// With --static (default on; disable with --no-static) each binary is also
// analyzed statically and the report gains a second denominator: coverage
// over the instruction types a feasible path could execute at all.
//
//   s4e-cov a.elf b.elf ...  [--per-binary] [--no-static]
#include <cstdio>

#include "coverage/coverage.hpp"
#include "dataflow/analyze.hpp"
#include "elf/elf32.hpp"
#include "isa/opcode.hpp"
#include "tools/tool_util.hpp"
#include "vp/machine.hpp"

int main(int argc, char** argv) {
  using namespace s4e;
  static constexpr char kUsage[] =
      "usage: s4e-cov <a.elf> [b.elf ...] [--per-binary] [--no-static]\n";
  tools::Args args(argc, argv, tools::Args::kVariadic, {},
                   {"--per-binary", "--no-static"});
  if (const int code = tools::standard_flags(args, "s4e-cov", kUsage);
      code >= 0) {
    return code;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const bool use_static = !args.has("--no-static");

  coverage::CoverageData merged;
  std::vector<bool> static_ops(isa::kOpCount, false);
  bool have_static = false;
  unsigned failures = 0;
  for (const std::string& path : args.positional()) {
    auto program = elf::read_elf_file(path);
    if (!program.ok()) {
      std::fprintf(stderr, "s4e-cov: %s\n",
                   program.error().to_string().c_str());
      return 1;
    }
    std::vector<bool> binary_ops;
    if (use_static) {
      if (auto analysis = dataflow::analyze_program(*program); analysis.ok()) {
        binary_ops = dataflow::reachable_ops(*analysis);
        have_static = true;
        for (unsigned i = 0; i < isa::kOpCount; ++i) {
          if (binary_ops[i]) static_ops[i] = true;
        }
      } else {
        std::fprintf(stderr, "s4e-cov: %s: static analysis skipped (%s)\n",
                     path.c_str(), analysis.error().to_string().c_str());
      }
    }
    vp::Machine machine;
    if (auto status = machine.load_program(*program); !status.ok()) {
      std::fprintf(stderr, "s4e-cov: %s\n", status.to_string().c_str());
      return 1;
    }
    coverage::CoveragePlugin plugin;
    plugin.attach(machine.vm_handle());
    const vp::RunResult result = machine.run();
    if (!result.normal_exit()) {
      ++failures;
      std::fprintf(stderr, "s4e-cov: %s did not terminate normally (%s)\n",
                   path.c_str(),
                   std::string(vp::to_string(result.reason)).c_str());
    }
    if (args.has("--per-binary")) {
      std::printf("%s",
                  coverage::to_report(plugin.data(), path,
                                      binary_ops.empty() ? nullptr
                                                         : &binary_ops)
                      .c_str());
      std::printf("\n");
    }
    merged.merge(plugin.data());
  }

  if (args.positional().size() > 1 || !args.has("--per-binary")) {
    std::printf("%s", coverage::to_report(
                          merged,
                          format("merged over %zu binaries",
                                 args.positional().size()),
                          have_static ? &static_ops : nullptr)
                          .c_str());
  }
  return tools::finish_stdout("s4e-cov", failures == 0 ? 0 : 1);
}
