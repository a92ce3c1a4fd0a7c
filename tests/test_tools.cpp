// CLI tool smoke tests: drive the installed binaries through the same
// pipeline a user would (as -> objdump/wcet -> qta/run/faultsim) and check
// exit codes and key output fragments. Tool location comes from the build
// system via S4E_TOOL_DIR.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#ifndef S4E_TOOL_DIR
#error "S4E_TOOL_DIR must be defined by the build system"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  const std::string full = command + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string tool(const std::string& name) {
  return std::string(S4E_TOOL_DIR) + "/" + name;
}

// Unique per test and per process: ctest -j runs every discovered test as
// its own concurrent process, so shared fixture files must not collide.
std::string temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" +
         (info != nullptr ? std::string(info->name()) + "_" : "") + name;
}

class ToolPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    elf_ = temp_path("tools_fir.elf");
    auto result =
        run_command(tool("s4e-as") + " --workload fir -o " + elf_);
    ASSERT_EQ(result.exit_code, 0) << result.output;
  }
  void TearDown() override { std::remove(elf_.c_str()); }

  std::string elf_;
};

TEST(ToolAs, ListWorkloads) {
  auto result = run_command(tool("s4e-as") + " --list-workloads");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("checksum"), std::string::npos);
  EXPECT_NE(result.output.find("lock_ctrl"), std::string::npos);
}

TEST(ToolAs, RejectsMissingInput) {
  auto result = run_command(tool("s4e-as"));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage"), std::string::npos);
}

TEST(ToolAs, RejectsUnknownWorkload) {
  auto result = run_command(tool("s4e-as") + " --workload nope -o /dev/null");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(ToolAs, AssemblesSourceFile) {
  const std::string source_path = temp_path("tools_tiny.s");
  const std::string elf_path = temp_path("tools_tiny.elf");
  FILE* f = std::fopen(source_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("li a0, 7\nli a7, 93\necall\n", f);
  std::fclose(f);
  auto assembled =
      run_command(tool("s4e-as") + " " + source_path + " -o " + elf_path);
  EXPECT_EQ(assembled.exit_code, 0) << assembled.output;
  auto run = run_command(tool("s4e-run") + " " + elf_path);
  EXPECT_EQ(run.exit_code, 7);
  std::remove(source_path.c_str());
  std::remove(elf_path.c_str());
}

TEST(ToolAs, ReportsAssemblyErrorWithLine) {
  const std::string source_path = temp_path("tools_bad.s");
  FILE* f = std::fopen(source_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("nop\nfrobnicate a0\n", f);
  std::fclose(f);
  auto result =
      run_command(tool("s4e-as") + " " + source_path + " -o /dev/null");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("line 2"), std::string::npos);
  std::remove(source_path.c_str());
}

TEST_F(ToolPipeline, RunExitsWithWorkloadCode) {
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --stats");
  EXPECT_EQ(result.exit_code, 192);  // fir's expected exit code
  EXPECT_NE(result.output.find("insns"), std::string::npos);
  EXPECT_NE(result.output.find("tb-cache"), std::string::npos);
}

TEST_F(ToolPipeline, RunHonorsMaxInsns) {
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --max-insns 10");
  EXPECT_EQ(result.exit_code, 124);
}

TEST_F(ToolPipeline, RunTraceEmitsJsonl) {
  // Bare --trace streams the JSONL events to stderr.
  auto result = run_command(tool("s4e-run") + " " + elf_ +
                            " --trace --trace-limit 5");
  EXPECT_NE(result.output.find("{\"t\":\"insn\",\"n\":1,"), std::string::npos);
  EXPECT_NE(result.output.find("lui"), std::string::npos);
  EXPECT_NE(result.output.find("{\"t\":\"exit\","), std::string::npos);
}

TEST_F(ToolPipeline, RunTraceToFile) {
  const std::string trace_path = temp_path("trace.jsonl");
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --trace=" +
                            trace_path + " --trace-limit 8");
  EXPECT_EQ(result.exit_code, 192);
  // Run report stays clean of trace lines when tracing to a file.
  EXPECT_EQ(result.output.find("{\"t\":"), std::string::npos);
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(trace, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 9u);  // 8 insn/mem events + the exit line
  std::remove(trace_path.c_str());
}

TEST_F(ToolPipeline, RunCoverageReport) {
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --coverage");
  EXPECT_NE(result.output.find("GPR coverage"), std::string::npos);
}

TEST_F(ToolPipeline, ObjdumpDisassembles) {
  auto result = run_command(tool("s4e-objdump") + " " + elf_);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("_start:"), std::string::npos);
  EXPECT_NE(result.output.find("dot4:"), std::string::npos);
  EXPECT_NE(result.output.find("mul"), std::string::npos);
}

TEST_F(ToolPipeline, ObjdumpSymbols) {
  auto result = run_command(tool("s4e-objdump") + " -t " + elf_);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("dot_loop"), std::string::npos);
}

TEST_F(ToolPipeline, ObjdumpCfgDot) {
  auto result = run_command(tool("s4e-objdump") + " --cfg " + elf_);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("digraph"), std::string::npos);
}

TEST_F(ToolPipeline, WcetQtaRoundTrip) {
  const std::string cfg_path = temp_path("tools_fir.qtacfg");
  auto wcet = run_command(tool("s4e-wcet") + " " + elf_ + " --emit-cfg " +
                          cfg_path);
  EXPECT_EQ(wcet.exit_code, 0) << wcet.output;
  EXPECT_NE(wcet.output.find("total static WCET"), std::string::npos);
  EXPECT_NE(wcet.output.find("dot4"), std::string::npos);

  auto qta = run_command(tool("s4e-qta") + " " + elf_ + " " + cfg_path);
  EXPECT_EQ(qta.exit_code, 0) << qta.output;
  EXPECT_NE(qta.output.find("static WCET bound"), std::string::npos);
  EXPECT_EQ(qta.output.find("VIOLATED"), std::string::npos);
  std::remove(cfg_path.c_str());
}

TEST_F(ToolPipeline, QtaRejectsMismatchedCfg) {
  // An annotated CFG for a different entry must be refused.
  const std::string cfg_path = temp_path("tools_mismatch.qtacfg");
  FILE* f = std::fopen(cfg_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("qta-cfg v1\nprogram x entry 0x12345678\npenalty 2\n"
             "wcet_total 10\n",
             f);
  std::fclose(f);
  auto result = run_command(tool("s4e-qta") + " " + elf_ + " " + cfg_path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("does not match"), std::string::npos);
  std::remove(cfg_path.c_str());
}

TEST_F(ToolPipeline, FaultsimRunsCampaign) {
  auto result = run_command(tool("s4e-faultsim") + " " + elf_ +
                            " --mutants 25 --seed 3 --list");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("masked"), std::string::npos);
  EXPECT_NE(result.output.find("#000"), std::string::npos);
}

TEST_F(ToolPipeline, FaultsimMetricsOut) {
  const std::string metrics_path = temp_path("metrics.json");
  auto result = run_command(tool("s4e-faultsim") + " " + elf_ +
                            " --mutants 20 --seed 3 --jobs 1 --metrics-out " +
                            metrics_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::string content((std::istreambuf_iterator<char>(metrics)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"s4e-faultsim\""), std::string::npos) << content;
  EXPECT_NE(content.find("\"mutants_total\": 20"), std::string::npos)
      << content;
  std::remove(metrics_path.c_str());
}

TEST_F(ToolPipeline, FaultsimMetricsOutUnwritable) {
  auto result = run_command(tool("s4e-faultsim") + " " + elf_ +
                            " --mutants 5 --jobs 1 --metrics-out "
                            "/nonexistent-dir/metrics.json");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("cannot open"), std::string::npos)
      << result.output;
}

TEST_F(ToolPipeline, RunProfileReport) {
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --profile");
  EXPECT_NE(result.output.find("hot blocks"), std::string::npos);
  EXPECT_NE(result.output.find("dot_loop"), std::string::npos);
}

TEST_F(ToolPipeline, MutateScoresOracle) {
  auto result = run_command(tool("s4e-mutate") + " " + elf_ +
                            " --max 60 --survivors");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("mutation analysis"), std::string::npos);
  EXPECT_NE(result.output.find("killed"), std::string::npos);
}

TEST(ToolAs, CompressedBinaryRunsIdentically) {
  const std::string plain_elf = temp_path("tools_cmp_plain.elf");
  const std::string rvc_elf = temp_path("tools_cmp_rvc.elf");
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload checksum -o " +
                        plain_elf)
                .exit_code,
            0);
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload checksum --compress -o " +
                        rvc_elf)
                .exit_code,
            0);
  auto plain_run = run_command(tool("s4e-run") + " " + plain_elf);
  auto rvc_run = run_command(tool("s4e-run") + " " + rvc_elf);
  EXPECT_EQ(plain_run.exit_code, rvc_run.exit_code);
  // Disassembly of the compressed binary shows 16-bit encodings.
  auto dump = run_command(tool("s4e-objdump") + " " + rvc_elf);
  EXPECT_NE(dump.output.find("sum_loop"), std::string::npos);
  std::remove(plain_elf.c_str());
  std::remove(rvc_elf.c_str());
}

TEST(ToolCov, MergedCoverageAcrossBinaries) {
  const std::string a = temp_path("tools_cov_a.elf");
  const std::string b = temp_path("tools_cov_b.elf");
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload checksum -o " + a)
                .exit_code,
            0);
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload crc32 -o " + b)
                .exit_code,
            0);
  auto result = run_command(tool("s4e-cov") + " " + a + " " + b);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("merged over 2 binaries"), std::string::npos);
  EXPECT_NE(result.output.find("GPR coverage"), std::string::npos);
  auto per = run_command(tool("s4e-cov") + " " + a + " --per-binary");
  EXPECT_NE(per.output.find(a), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ToolTestgen, DumpsSuitesAndElfs) {
  const std::string dir = temp_path("tools_suites");
  auto result = run_command(tool("s4e-testgen") + " " + dir +
                            " --suite torture --count 2 --seed 9 --elf");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("wrote 2 programs"), std::string::npos);
  // The dumped ELF runs to exit 0 through s4e-run.
  auto run = run_command(tool("s4e-run") + " " + dir + "/torture_000.elf");
  EXPECT_EQ(run.exit_code, 0);
  run_command("rm -rf " + dir);
}

// ---------------------------------------------------------------------------
// Flag hygiene, shared across every tool: unknown options are rejected with
// a did-you-mean hint, and --help documents every flag the parser accepts
// (enforced by diffing --list-flags against the help text).

const char* kAllTools[] = {"s4e-as",       "s4e-objdump", "s4e-run",
                           "s4e-wcet",     "s4e-qta",     "s4e-faultsim",
                           "s4e-mutate",   "s4e-cov",     "s4e-lint",
                           "s4e-testgen",  "s4e-campaignd"};

TEST(ToolFlags, UnknownFlagIsRejectedWithSuggestion) {
  auto run = run_command(tool("s4e-run") + " x.elf --max-isns 10");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("unknown option '--max-isns'"),
            std::string::npos);
  EXPECT_NE(run.output.find("did you mean '--max-insns'?"),
            std::string::npos);

  auto faultsim = run_command(tool("s4e-faultsim") + " x.elf --mutant 5");
  EXPECT_EQ(faultsim.exit_code, 2);
  EXPECT_NE(faultsim.output.find("did you mean '--mutants'?"),
            std::string::npos);

  auto mutate = run_command(tool("s4e-mutate") + " x.elf --survivor");
  EXPECT_EQ(mutate.exit_code, 2);
  EXPECT_NE(mutate.output.find("did you mean '--survivors'?"),
            std::string::npos);

  // Far-off typos get a plain rejection, not a wild guess.
  auto wild = run_command(tool("s4e-run") + " x.elf --frobnicate");
  EXPECT_EQ(wild.exit_code, 2);
  EXPECT_NE(wild.output.find("unknown option '--frobnicate'"),
            std::string::npos);
  EXPECT_EQ(wild.output.find("did you mean"), std::string::npos);
}

TEST(ToolFlags, EveryToolRejectsUnknownFlags) {
  for (const char* name : kAllTools) {
    auto result = run_command(tool(name) + " --no-such-flag-zz");
    EXPECT_EQ(result.exit_code, 2) << name << ": " << result.output;
    EXPECT_NE(result.output.find("unknown option"), std::string::npos)
        << name;
  }
}

TEST(ToolFlags, HelpDocumentsEveryParsedFlag) {
  for (const char* name : kAllTools) {
    auto flags = run_command(tool(name) + " --list-flags");
    ASSERT_EQ(flags.exit_code, 0) << name;
    auto help = run_command(tool(name) + " --help");
    ASSERT_EQ(help.exit_code, 0) << name;
    EXPECT_NE(help.output.find("usage:"), std::string::npos) << name;
    std::size_t start = 0;
    while (start < flags.output.size()) {
      std::size_t end = flags.output.find('\n', start);
      if (end == std::string::npos) end = flags.output.size();
      const std::string flag = flags.output.substr(start, end - start);
      start = end + 1;
      if (flag.empty()) continue;
      EXPECT_NE(help.output.find(flag), std::string::npos)
          << name << " --help does not mention " << flag;
    }
  }
}

TEST(ToolFlags, BrokenStdoutIsReportedNotSilent) {
  // /dev/full makes every stdout write fail with ENOSPC — a deterministic
  // stand-in for the closed-pipe (`tool | head`) case. Tools must exit 1
  // with a diagnostic on stderr instead of pretending the report was
  // written (or dying to SIGPIPE with no message at all).
  for (const char* name : kAllTools) {
    auto result =
        run_command("sh -c '" + tool(name) + " --help > /dev/full'");
    EXPECT_EQ(result.exit_code, 1) << name << ": " << result.output;
    EXPECT_NE(result.output.find("error writing to stdout"),
              std::string::npos)
        << name << ": " << result.output;
  }
}

TEST(ToolFaultsim, BrokenStdoutAfterCampaignExitsNonZero) {
  // The full-report path (not just --help) must also surface the write
  // failure: a fault campaign whose report went nowhere is not a success.
  const std::string elf_path = temp_path("tools_full.elf");
  auto assembled =
      run_command(tool("s4e-as") + " --workload checksum -o " + elf_path);
  ASSERT_EQ(assembled.exit_code, 0);
  auto result = run_command("sh -c '" + tool("s4e-faultsim") + " " +
                            elf_path + " --mutants 5 > /dev/full'");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("error writing to stdout"), std::string::npos)
      << result.output;
  std::remove(elf_path.c_str());
}

// ---------------------------------------------------------------------------
// Campaign CLI contract: the stdout report of s4e-faultsim and s4e-mutate is
// byte-identical whatever the worker count, machine reuse (restored vs
// freshly built machines) and observability flags — those write only to
// stderr or to files.

// Runs `command` with its stderr discarded; output holds stdout only.
CommandResult run_stdout(const std::string& command) {
  return run_command("(" + command + " 2>/dev/null)");
}

class CampaignCli : public ::testing::Test {
 protected:
  void SetUp() override {
    elf_ = temp_path("campaign_pid.elf");
    auto result = run_command(tool("s4e-as") + " --workload pid -o " + elf_);
    ASSERT_EQ(result.exit_code, 0) << result.output;
  }
  void TearDown() override { std::remove(elf_.c_str()); }

  // Every variant's stdout equals the serial run's, for each base
  // argument set; the post-mortem directory gets one mutant_NNN.txt per
  // crashed or hung mutant, starting with that mutant's header.
  void expect_invariant_stdout(const std::string& name,
                               const std::vector<std::string>& bases) {
    const char* variants[] = {
        "--jobs 3",
        "--jobs 1 --reuse-machine=off",
        "--jobs 3 --reuse-machine=off",
        "--jobs 2 --reuse-machine",
        "--jobs 2 --progress",
        "--jobs 2 --snapshot-stats",
        "--jobs 2 --post-mortem",
    };
    for (const std::string& base : bases) {
      const std::string command = tool(name) + " " + elf_ + " " + base;
      const auto reference = run_stdout(command + " --jobs 1");
      ASSERT_EQ(reference.exit_code, 0) << command;
      ASSERT_NE(reference.output.find("mutants"), std::string::npos);
      for (const char* variant : variants) {
        const auto run = run_stdout(command + " " + variant);
        EXPECT_EQ(run.exit_code, 0) << base << " " << variant;
        EXPECT_EQ(run.output, reference.output) << base << " " << variant;
      }

      const std::string dir = temp_path("post_mortems");
      std::filesystem::remove_all(dir);
      std::filesystem::create_directory(dir);
      const auto dumped =
          run_stdout(command + " --jobs 2 --post-mortem-dir " + dir);
      EXPECT_EQ(dumped.exit_code, 0) << base;
      EXPECT_EQ(dumped.output, reference.output) << base;
      const std::regex file_name("mutant_([0-9]{3})\\.txt");
      std::size_t files = 0;
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string file = entry.path().filename().string();
        std::smatch match;
        ASSERT_TRUE(std::regex_match(file, match, file_name)) << file;
        std::ifstream in(entry.path());
        std::string header;
        std::getline(in, header);
        EXPECT_NE(header.find("post-mortem #" + match[1].str()),
                  std::string::npos)
            << file << ": " << header;
        ++files;
      }
      EXPECT_GT(files, 0u) << base;
      std::filesystem::remove_all(dir);

      const auto verified = run_command(command + " --triage=verify");
      EXPECT_EQ(verified.exit_code, 0) << base << ": " << verified.output;
    }
  }

  std::string elf_;
};

TEST_F(CampaignCli, FaultsimStdoutIsInvariant) {
  expect_invariant_stdout("s4e-faultsim",
                          {"--mutants 100 --seed 2 --list",
                           "--mutants 60 --seed 3 --blind --no-gpr --list",
                           "--mutants 40 --seed 1 --harts 2 --list"});
}

TEST_F(CampaignCli, MutateStdoutIsInvariant) {
  expect_invariant_stdout("s4e-mutate",
                          {"--max 60 --survivors", "--all-sites --survivors"});
}

TEST_F(CampaignCli, TriageVerifyReportsPrunedMutants) {
  const auto fault = run_stdout(tool("s4e-faultsim") + " " + elf_ +
                                " --mutants 100 --seed 2 --triage=verify");
  EXPECT_EQ(fault.exit_code, 0);
  EXPECT_NE(fault.output.find("statically pruned"), std::string::npos)
      << fault.output;
  const auto mutate = run_stdout(tool("s4e-mutate") + " " + elf_ +
                                 " --max 60 --triage=verify");
  EXPECT_EQ(mutate.exit_code, 0);
  EXPECT_NE(mutate.output.find("pruned (static)"), std::string::npos)
      << mutate.output;
}

// Numeric campaign flags are strict: non-numeric text, trailing garbage and
// negative values exit 2 with a "--X expects" message before any campaign
// (or ELF load) starts, so the input path need not exist.
struct MalformedFlag {
  const char* args;
  const char* message;
};

void expect_rejected(const std::string& name,
                     const std::vector<MalformedFlag>& cases) {
  for (const MalformedFlag& bad : cases) {
    auto result = run_command(tool(name) + " missing.elf " + bad.args);
    EXPECT_EQ(result.exit_code, 2) << name << " " << bad.args << ": "
                                   << result.output;
    EXPECT_NE(result.output.find(name + ": " + bad.message),
              std::string::npos)
        << name << " " << bad.args << ": " << result.output;
  }
}

TEST(ToolFaultsim, RejectsMalformedCounts) {
  expect_rejected(
      "s4e-faultsim",
      {{"--mutants abc", "--mutants expects 0..4294967295 (got abc)"},
       {"--mutants 12x", "--mutants expects 0..4294967295 (got 12x)"},
       {"--mutants -1", "--mutants expects 0..4294967295 (got -1)"},
       {"--mutants 4294967296", "--mutants expects 0..4294967295"},
       {"--seed abc", "--seed expects 0..1099511627776 (got abc)"},
       {"--seed -3", "--seed expects 0..1099511627776 (got -3)"},
       {"--jobs many", "--jobs expects 0..4096 (got many)"}});
}

TEST(ToolMutate, RejectsMalformedCounts) {
  expect_rejected(
      "s4e-mutate",
      {{"--max abc", "--max expects 0..4294967295 (got abc)"},
       {"--max 7q", "--max expects 0..4294967295 (got 7q)"},
       {"--max -1", "--max expects 0..4294967295 (got -1)"},
       {"--jobs -2", "--jobs expects 0..4096 (got -2)"}});
}

TEST(ToolCampaignd, RejectsMalformedCounts) {
  expect_rejected(
      "s4e-campaignd",
      {{"--mutants abc", "--mutants expects 0..4294967295 (got abc)"},
       {"--mutants -1", "--mutants expects 0..4294967295 (got -1)"},
       {"--max 12x", "--max expects 0..4294967295 (got 12x)"},
       {"--seed -1", "--seed expects 0..1099511627776 (got -1)"},
       {"--worker-jobs x", "--worker-jobs expects 0..4096 (got x)"},
       {"--max-retries -4", "--max-retries expects 0..4294967295 (got -4)"},
       {"--status-port 70000", "--status-port expects 0..65535 (got 70000)"},
       {"--status-port 8o", "--status-port expects 0..65535 (got 8o)"}});
}

TEST(ToolQta, RejectsMalformedCounts) {
  expect_rejected(
      "s4e-qta",
      {{"--replay t.bin --jobs many", "--jobs expects 0..4096 (got many)"},
       {"--replay t.bin --jobs 3x", "--jobs expects 0..4096 (got 3x)"},
       {"--replay t.bin --jobs -1", "--jobs expects 0..4096 (got -1)"},
       {"--replay t.bin --jobs 4097", "--jobs expects 0..4096 (got 4097)"}});
}

// Each tool declares how many positional arguments it takes; one more exits
// 2 before any input is read, so the paths need not exist.
void expect_extra_argument_rejected(const std::string& name,
                                    const std::string& args,
                                    const std::string& extra) {
  auto result = run_command(tool(name) + " " + args + " " + extra);
  EXPECT_EQ(result.exit_code, 2) << name << ": " << result.output;
  EXPECT_NE(result.output.find(name + ": unexpected argument '" + extra + "'"),
            std::string::npos)
      << name << ": " << result.output;
}

TEST(ToolAs, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-as", "in.s -o out.elf", "more.s");
}

TEST(ToolObjdump, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-objdump", "-t a.elf", "b.elf");
}

TEST(ToolRun, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-run", "a.elf --stats", "b.elf");
}

TEST(ToolWcet, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-wcet", "a.elf", "a.qtacfg");
}

TEST(ToolQta, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-qta", "a.elf a.qtacfg", "b.qtacfg");
  // Replay mode takes the ELF only.
  expect_extra_argument_rejected("s4e-qta", "a.elf --replay t.bin",
                                 "a.qtacfg");
}

TEST(ToolFaultsim, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-faultsim", "crc.elf", "crc.qtacfg");
}

TEST(ToolMutate, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-mutate", "a.elf --max 5", "b.elf");
}

TEST(ToolLint, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-lint", "a.s", "b.s");
}

TEST(ToolTestgen, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-testgen", "outdir --suite unit",
                                 "other");
}

TEST(ToolCampaignd, RejectsExtraArgument) {
  expect_extra_argument_rejected("s4e-campaignd", "a.elf --workers 2",
                                 "b.elf");
}

// ---------------------------------------------------------------------------
// Capture once, replay many: s4e-qta --record / s4e-run --trace-bin write the
// binary trace, s4e-qta --replay evaluates it under the timing matrix.

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class QtaReplay : public ::testing::Test {
 protected:
  void SetUp() override {
    elf_ = temp_path("replay_crc32.elf");
    cfg_ = temp_path("replay_crc32.qtacfg");
    trace_ = temp_path("replay_crc32.bin");
    auto assembled =
        run_command(tool("s4e-as") + " --workload crc32 -o " + elf_);
    ASSERT_EQ(assembled.exit_code, 0) << assembled.output;
    auto wcet =
        run_command(tool("s4e-wcet") + " " + elf_ + " --emit-cfg " + cfg_);
    ASSERT_EQ(wcet.exit_code, 0) << wcet.output;
    auto recorded = run_command(tool("s4e-qta") + " " + elf_ + " " + cfg_ +
                                " --record " + trace_);
    ASSERT_EQ(recorded.exit_code, 0) << recorded.output;
    ASSERT_NE(recorded.output.find("record: wrote"), std::string::npos)
        << recorded.output;
  }
  void TearDown() override {
    for (const std::string& path : {elf_, cfg_, trace_}) {
      std::remove(path.c_str());
    }
  }

  std::string replay(const std::string& args) const {
    return tool("s4e-qta") + " " + elf_ + " --replay " + trace_ + " " + args;
  }

  std::string elf_, cfg_, trace_;
};

TEST_F(QtaReplay, AllModelsStdoutIsInvariantAcrossJobs) {
  const auto serial = run_stdout(replay("--models all --jobs 1"));
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_NE(serial.output.find("\nbase "), std::string::npos) << serial.output;
  EXPECT_NE(serial.output.find("icache+bpred+slowram+deeppipe+slowmath"),
            std::string::npos)
      << serial.output;
  const auto parallel = run_stdout(replay("--models all --jobs 3"));
  EXPECT_EQ(parallel.exit_code, 0);
  EXPECT_EQ(parallel.output, serial.output);
}

TEST_F(QtaReplay, BaselineModelPrintsOneRow) {
  const auto result = run_stdout(replay("--models baseline"));
  ASSERT_EQ(result.exit_code, 0) << result.output;
  // The summary line, the table header and one row.
  std::istringstream lines(result.output);
  std::vector<std::string> rows;
  for (std::string line; std::getline(lines, line);) rows.push_back(line);
  ASSERT_EQ(rows.size(), 3u) << result.output;
  EXPECT_EQ(rows[0].rfind("replay: ", 0), 0u) << rows[0];
  EXPECT_EQ(rows[1].rfind("config ", 0), 0u) << rows[1];
  EXPECT_EQ(rows[2].rfind("base ", 0), 0u) << rows[2];
  EXPECT_NE(rows[2].find(" ok"), std::string::npos) << rows[2];
}

TEST_F(QtaReplay, RejectsTraceOfAnotherProgram) {
  const std::string other = temp_path("replay_fir.elf");
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload fir -o " + other)
                .exit_code,
            0);
  const auto result = run_command(tool("s4e-qta") + " " + other +
                                  " --replay " + trace_ + " --models all");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("different workload"), std::string::npos)
      << result.output;
  std::remove(other.c_str());
}

TEST_F(QtaReplay, RejectsTruncatedTrace) {
  const std::string bytes = slurp(trace_);
  ASSERT_GT(bytes.size(), 64u);
  {
    std::ofstream out(trace_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  const auto result = run_command(replay("--models all"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
}

TEST_F(QtaReplay, RecordEqualsRunTraceBin) {
  const std::string run_trace = temp_path("replay_run.bin");
  const auto run =
      run_command(tool("s4e-run") + " " + elf_ + " --trace-bin " + run_trace);
  ASSERT_NE(run.output.find("trace-bin wrote"), std::string::npos)
      << run.output;
  const std::string recorded = slurp(trace_);
  EXPECT_FALSE(recorded.empty());
  EXPECT_TRUE(recorded == slurp(run_trace))
      << "s4e-qta --record and s4e-run --trace-bin traces differ";
  std::remove(run_trace.c_str());
}

TEST(ToolRun, UartInputReachesGuest) {
  const std::string elf_path = temp_path("tools_lock.elf");
  auto assembled = run_command(tool("s4e-as") + " --workload lock_ctrl -o " +
                               elf_path);
  ASSERT_EQ(assembled.exit_code, 0);
  auto opened = run_command(tool("s4e-run") + " " + elf_path +
                            " --uart-input 1234");
  EXPECT_EQ(opened.exit_code, 0);
  EXPECT_NE(opened.output.find("OPEN"), std::string::npos);
  auto denied = run_command(tool("s4e-run") + " " + elf_path);
  EXPECT_EQ(denied.exit_code, 1);
  EXPECT_NE(denied.output.find("DENY"), std::string::npos);
  std::remove(elf_path.c_str());
}

}  // namespace
