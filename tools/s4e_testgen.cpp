// s4e-testgen — dump the generated test-suite families as .s files (and
// optionally assembled ELFs), the stimulus side of the coverage/fault flows.
//
//   s4e-testgen <outdir> [--suite arch|unit|torture|all] [--seed S]
//               [--count N] [--abi-style] [--elf]
#include <cstdio>
#include <filesystem>

#include "asm/assembler.hpp"
#include "elf/elf32.hpp"
#include "testgen/testgen.hpp"
#include "tools/tool_util.hpp"

int main(int argc, char** argv) {
  using namespace s4e;
  static constexpr char kUsage[] =
      "usage: s4e-testgen <outdir> [--suite arch|unit|torture|all] "
      "[--seed S] [--count N] [--abi-style] [--elf]\n";
  tools::Args args(argc, argv, 1, {"--suite", "--seed", "--count"},
                   {"--abi-style", "--elf"});
  if (const int code = tools::standard_flags(args, "s4e-testgen", kUsage);
      code >= 0) {
    return code;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string outdir = args.positional()[0];
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  if (ec) {
    std::fprintf(stderr, "s4e-testgen: cannot create '%s': %s\n",
                 outdir.c_str(), ec.message().c_str());
    return 1;
  }

  const std::string suite = args.value("--suite", "all");
  std::vector<testgen::GeneratedProgram> programs;
  if (suite == "arch" || suite == "all") {
    auto generated = testgen::architectural_suite();
    programs.insert(programs.end(), generated.begin(), generated.end());
  }
  if (suite == "unit" || suite == "all") {
    auto generated = testgen::unit_suite();
    programs.insert(programs.end(), generated.begin(), generated.end());
  }
  if (suite == "torture" || suite == "all") {
    testgen::TortureConfig config;
    config.seed =
        static_cast<u64>(parse_integer(args.value("--seed", "1")).value_or(1));
    config.programs = static_cast<unsigned>(
        parse_integer(args.value("--count", "10")).value_or(10));
    config.abi_style = args.has("--abi-style");
    auto generated = testgen::torture_suite(config);
    programs.insert(programs.end(), generated.begin(), generated.end());
  }
  if (programs.empty()) {
    std::fprintf(stderr, "s4e-testgen: unknown suite '%s'\n", suite.c_str());
    return 2;
  }

  unsigned written = 0;
  for (const auto& program : programs) {
    const std::string source_path = outdir + "/" + program.name + ".s";
    if (auto status = tools::write_file(source_path, program.source);
        !status.ok()) {
      std::fprintf(stderr, "s4e-testgen: %s\n", status.to_string().c_str());
      return 1;
    }
    if (args.has("--elf")) {
      auto assembled = assembler::assemble(program.source);
      if (!assembled.ok()) {
        std::fprintf(stderr, "s4e-testgen: %s: %s\n", program.name.c_str(),
                     assembled.error().to_string().c_str());
        return 1;
      }
      const std::string elf_path = outdir + "/" + program.name + ".elf";
      if (auto status = elf::write_elf_file(*assembled, elf_path);
          !status.ok()) {
        std::fprintf(stderr, "s4e-testgen: %s\n", status.to_string().c_str());
        return 1;
      }
    }
    ++written;
  }
  std::printf("s4e-testgen: wrote %u programs to %s%s\n", written,
              outdir.c_str(), args.has("--elf") ? " (with ELFs)" : "");
  return tools::finish_stdout("s4e-testgen");
}
