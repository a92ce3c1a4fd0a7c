#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "core/ecosystem.hpp"
#include "core/workloads.hpp"
#include "coverage/coverage.hpp"
#include "isa/defuse.hpp"
#include "testgen/testgen.hpp"
#include "vp/machine.hpp"

namespace s4e::coverage {
namespace {

CoverageData measure(const std::string& source) {
  core::Ecosystem ecosystem;
  auto program = ecosystem.build_source(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().to_string());
  auto data = ecosystem.measure_coverage(*program);
  EXPECT_TRUE(data.ok());
  return *data;
}

TEST(Coverage, CountsExecutedOps) {
  auto data = measure(R"(
    addi t0, zero, 3
    add t1, t0, t0
    add t2, t1, t0
    li a7, 93
    li a0, 0
    ecall
  )");
  EXPECT_EQ(data.op_counts[static_cast<unsigned>(isa::Op::kAdd)], 2u);
  // The two li's expand to addi, plus the explicit addi.
  EXPECT_EQ(data.op_counts[static_cast<unsigned>(isa::Op::kAddi)], 3u);
  EXPECT_EQ(data.op_counts[static_cast<unsigned>(isa::Op::kEcall)], 1u);
  EXPECT_EQ(data.total_instructions, 6u);
}

TEST(Coverage, GprReadWriteTracking) {
  auto data = measure(R"(
    addi t0, zero, 1     # writes x5, reads x0
    add t1, t0, t0       # writes x6, reads x5
    li a7, 93
    li a0, 0
    ecall
  )");
  EXPECT_GT(data.gpr_writes[5], 0u);
  EXPECT_GT(data.gpr_reads[5], 0u);
  EXPECT_GT(data.gpr_writes[6], 0u);
  EXPECT_EQ(data.gpr_reads[6], 0u);
  // x0 reads don't make it "covered" (excluded from the metric).
  EXPECT_GT(data.gpr_reads[0], 0u);
}

TEST(Coverage, CsrAccessTracked) {
  auto data = measure(R"(
    csrr t0, mscratch
    csrw mscratch, t0
    li a7, 93
    li a0, 0
    ecall
  )");
  EXPECT_EQ(data.csrs_accessed.count(isa::kCsrMscratch), 1u);
  EXPECT_GT(data.csr_coverage(), 0.0);
}

TEST(Coverage, MergeIsUnion) {
  auto a = measure(R"(
    add t0, t1, t2
    li a7, 93
    li a0, 0
    ecall
  )");
  auto b = measure(R"(
    mul s3, s4, s5
    li a7, 93
    li a0, 0
    ecall
  )");
  const u64 total_a = a.total_instructions;
  CoverageData merged = a;
  merged.merge(b);
  EXPECT_GT(merged.op_counts[static_cast<unsigned>(isa::Op::kAdd)], 0u);
  EXPECT_GT(merged.op_counts[static_cast<unsigned>(isa::Op::kMul)], 0u);
  EXPECT_EQ(merged.total_instructions, total_a + b.total_instructions);
  EXPECT_GE(merged.gprs_covered(), a.gprs_covered());
  EXPECT_GE(merged.gprs_covered(), b.gprs_covered());
}

TEST(Coverage, ModuleBreakdown) {
  auto data = measure(R"(
    mul t0, t1, t2
    div t3, t4, t5
    li a7, 93
    li a0, 0
    ecall
  )");
  EXPECT_EQ(data.ops_covered(isa::IsaModule::kM), 2u);
  EXPECT_EQ(CoverageData::ops_total(isa::IsaModule::kM), 8u);
  EXPECT_NEAR(data.op_coverage(isa::IsaModule::kM), 0.25, 1e-9);
  EXPECT_EQ(data.ops_covered(isa::IsaModule::kZicsr), 0u);
}

TEST(Coverage, UncoveredListShrinksWithMoreTests) {
  auto small = measure("li a7, 93\n    li a0, 0\n    ecall\n");
  const auto missing_small = small.uncovered_ops();
  auto bigger = measure(R"(
    add t0, t1, t2
    sub t3, t4, t5
    li a7, 93
    li a0, 0
    ecall
  )");
  CoverageData merged = small;
  merged.merge(bigger);
  EXPECT_LT(merged.uncovered_ops().size(), missing_small.size());
}

TEST(Coverage, AddressedMemorySpaceTracked) {
  auto data = measure(R"(
    la t0, buf
    sw t1, 0(t0)     # touches 4 bytes
    lbu t2, 8(t0)    # touches 1 byte
    li a7, 93
    li a0, 0
    ecall
.data
buf:
    .space 16
  )");
  EXPECT_EQ(data.loads, 1u);
  EXPECT_EQ(data.stores, 1u);
  EXPECT_EQ(data.addresses_touched.size(), 5u);
  // 5 of 16 buffer bytes touched.
  EXPECT_NEAR(data.memory_coverage(0x8001'0000, 16), 5.0 / 16.0, 1e-9);
  // Outside the window: nothing.
  EXPECT_EQ(data.memory_coverage(0x9000'0000, 16), 0.0);
}

TEST(Coverage, MemorySpaceMergesAsUnion) {
  auto a = measure(R"(
    la t0, buf
    sw t1, 0(t0)
    li a7, 93
    li a0, 0
    ecall
.data
buf:
    .space 8
  )");
  auto b = measure(R"(
    la t0, buf
    sw t1, 4(t0)
    li a7, 93
    li a0, 0
    ecall
.data
buf:
    .space 8
  )");
  CoverageData merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.addresses_touched.size(), 8u);
  EXPECT_NEAR(merged.memory_coverage(0x8001'0000, 8), 1.0, 1e-9);
}

TEST(Coverage, ReportContainsSections) {
  auto data = measure("li a7, 93\n    li a0, 0\n    ecall\n");
  const std::string report = to_report(data, "smoke");
  EXPECT_NE(report.find("instruction types"), std::string::npos);
  EXPECT_NE(report.find("GPR coverage"), std::string::npos);
  EXPECT_NE(report.find("RV32M"), std::string::npos);
  EXPECT_NE(report.find("memory accesses"), std::string::npos);
  EXPECT_NE(report.find("uncovered instructions:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Generated suites: run them through the pipeline.

core::Ecosystem& shared_ecosystem() {
  static core::Ecosystem ecosystem;
  return ecosystem;
}

CoverageData suite_coverage(const std::vector<testgen::GeneratedProgram>& suite,
                            unsigned* failures = nullptr) {
  CoverageData merged;
  for (const auto& test : suite) {
    auto program = shared_ecosystem().build_source(test.source);
    EXPECT_TRUE(program.ok())
        << test.name << ": "
        << (program.ok() ? "" : program.error().to_string());
    if (!program.ok()) continue;
    auto data = shared_ecosystem().measure_coverage(*program);
    EXPECT_TRUE(data.ok()) << test.name;
    if (data.ok()) merged.merge(*data);
    auto run = shared_ecosystem().run(*program);
    EXPECT_TRUE(run.ok());
    if (run.ok() && failures != nullptr &&
        !(run->result.normal_exit() && run->result.exit_code == 0)) {
      ++*failures;
    }
  }
  return merged;
}

TEST(Suites, ArchitecturalTestsAllPass) {
  unsigned failures = 0;
  auto data = suite_coverage(testgen::architectural_suite(), &failures);
  EXPECT_EQ(failures, 0u);
  // Directed tests cover every instruction type by construction.
  EXPECT_EQ(data.ops_covered(), isa::kOpCount);
}

TEST(Suites, UnitSuitePassesAndCoversClasses) {
  unsigned failures = 0;
  auto data = suite_coverage(testgen::unit_suite(), &failures);
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(data.op_coverage(), 0.5);
  EXPECT_EQ(data.ops_covered(isa::IsaModule::kM), 8u);
}

TEST(Suites, TortureProgramsTerminateNormally) {
  testgen::TortureConfig config;
  config.programs = 5;
  config.seed = 42;
  unsigned failures = 0;
  auto data = suite_coverage(testgen::torture_suite(config), &failures);
  EXPECT_EQ(failures, 0u);
  // Random programs hit most GPRs — that's their role in the union.
  EXPECT_GT(data.gpr_coverage(), 0.9);
}

TEST(Suites, TortureIsSeedDeterministic) {
  testgen::TortureConfig config;
  config.programs = 2;
  config.seed = 7;
  auto a = testgen::torture_suite(config);
  auto b = testgen::torture_suite(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
  }
  config.seed = 8;
  auto c = testgen::torture_suite(config);
  EXPECT_NE(a[0].source, c[0].source);
}

TEST(Suites, UnifiedSuiteReachesFullRegisterCoverage) {
  testgen::TortureConfig config;
  config.programs = 6;
  config.seed = 123;
  CoverageData merged = suite_coverage(testgen::architectural_suite());
  merged.merge(suite_coverage(testgen::unit_suite()));
  merged.merge(suite_coverage(testgen::torture_suite(config)));
  // The union reaches 100% GPR coverage (the MBMV'21 result) and near-total
  // instruction-type coverage.
  EXPECT_EQ(merged.gpr_coverage(), 1.0);
  EXPECT_GE(merged.op_coverage(), 0.98);
}

// ---------------------------------------------------------------------------
// Differential check: the block-granular CoveragePlugin against the
// per-instruction accounting it replaced, kept here as the oracle.

class InsnOracle final : public vp::PluginBase {
 public:
  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.insn_exec = true;
    subs.mem = true;
    return subs;
  }

  void on_mem(const s4e_mem_event& event) override {
    if (event.is_store) {
      ++data.stores;
    } else {
      ++data.loads;
    }
    for (unsigned i = 0; i < event.size; ++i) {
      data.addresses_touched.insert(event.vaddr + i);
    }
  }

  void on_insn_exec(const s4e_insn_info& insn) override {
    ++data.total_instructions;
    ++data.op_counts[insn.op];
    isa::Instr instr;
    instr.op = static_cast<isa::Op>(insn.op);
    instr.rd = insn.rd;
    instr.rs1 = insn.rs1;
    instr.rs2 = insn.rs2;
    const isa::DefUse du = isa::def_use(instr);
    for (unsigned reg = 0; reg < isa::kGprCount; ++reg) {
      if (du.reads & (u32{1} << reg)) ++data.gpr_reads[reg];
      if (du.writes & (u32{1} << reg)) ++data.gpr_writes[reg];
    }
    if (instr.info().reads_rs1 && instr.info().reads_rs2 &&
        insn.rs1 == insn.rs2) {
      ++data.gpr_reads[insn.rs1];
    }
    if (instr.info().op_class == isa::OpClass::kCsr) {
      data.csrs_accessed.insert(insn.csr);
    }
  }

  CoverageData data;
};

void expect_same(const CoverageData& got, const CoverageData& want,
                 const std::string& what) {
  EXPECT_EQ(got.total_instructions, want.total_instructions) << what;
  EXPECT_EQ(got.op_counts, want.op_counts) << what;
  EXPECT_EQ(got.gpr_reads, want.gpr_reads) << what;
  EXPECT_EQ(got.gpr_writes, want.gpr_writes) << what;
  EXPECT_EQ(got.csrs_accessed, want.csrs_accessed) << what;
  EXPECT_EQ(got.addresses_touched, want.addresses_touched) << what;
  EXPECT_EQ(got.loads, want.loads) << what;
  EXPECT_EQ(got.stores, want.stores) << what;
}

enum class Mode { kRun, kStep, kSplitRun, kUncached, kLateAttach };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kRun: return "run";
    case Mode::kStep: return "step";
    case Mode::kSplitRun: return "run(777)+run";
    case Mode::kUncached: return "uncached";
    case Mode::kLateAttach: return "late-attach";
  }
  return "?";
}

struct DiffCase {
  std::string name;
  std::string source;
  unsigned harts = 1;
};

// Runs `c` with the plugin and the oracle attached side by side in `mode`
// and requires equal data at every observation point.
void check_against_oracle(const DiffCase& c, Mode mode) {
  const std::string what = c.name + " [" + mode_name(mode) + "]";
  auto program = assembler::assemble(c.source);
  ASSERT_TRUE(program.ok()) << what;
  vp::MachineConfig config;
  config.num_harts = c.harts;
  config.max_instructions = 3'000'000;
  config.enable_tb_cache = mode != Mode::kUncached;
  vp::Machine machine(config);
  ASSERT_TRUE(machine.load_program(*program).ok()) << what;
  CoveragePlugin plugin;
  InsnOracle oracle;
  const auto attach = [&] {
    plugin.attach(machine.vm_handle());
    oracle.attach(machine.vm_handle());
  };

  u64 attached_at = 0;
  switch (mode) {
    case Mode::kRun:
    case Mode::kUncached:
      attach();
      machine.run();
      break;
    case Mode::kStep:
      attach();
      for (u64 steps = 1;; ++steps) {
        const vp::RunResult result = machine.step();
        // Mid-block reads settle the pending block without ending it.
        if (steps % 211 == 0) {
          expect_same(plugin.data(), oracle.data, what + " mid-run");
        }
        if (result.reason != vp::StopReason::kDebugStep) break;
      }
      break;
    case Mode::kSplitRun: {
      attach();
      const vp::RunResult first = machine.run(777);
      expect_same(plugin.data(), oracle.data, what + " after run(777)");
      if (first.reason == vp::StopReason::kMaxInstructions) machine.run();
      break;
    }
    case Mode::kLateAttach: {
      // The first 200 instructions run on the chained fast path and leave
      // their blocks cached before the plugins exist.
      const vp::RunResult first = machine.run(200);
      attached_at = machine.icount();
      attach();
      if (first.reason == vp::StopReason::kMaxInstructions) machine.run();
      break;
    }
  }
  expect_same(plugin.data(), oracle.data, what);
  EXPECT_EQ(plugin.data().total_instructions, machine.icount() - attached_at)
      << what;
}

void check_all_modes(const std::vector<DiffCase>& cases) {
  for (const DiffCase& c : cases) {
    for (Mode mode : {Mode::kRun, Mode::kStep, Mode::kSplitRun,
                      Mode::kUncached, Mode::kLateAttach}) {
      check_against_oracle(c, mode);
    }
  }
}

std::vector<DiffCase> from_suite(
    const std::vector<testgen::GeneratedProgram>& suite) {
  std::vector<DiffCase> cases;
  for (const auto& test : suite) cases.push_back({test.name, test.source});
  return cases;
}

TEST(CoverageDifferential, StandardWorkloads) {
  std::vector<DiffCase> cases;
  for (const core::Workload& workload : core::standard_workloads()) {
    const bool smp = workload.name.rfind("smp_", 0) == 0;
    cases.push_back({workload.name, workload.source, smp ? 2u : 1u});
  }
  check_all_modes(cases);
}

TEST(CoverageDifferential, ArchitecturalSuite) {
  check_all_modes(from_suite(testgen::architectural_suite()));
}

TEST(CoverageDifferential, UnitSuite) {
  check_all_modes(from_suite(testgen::unit_suite()));
}

TEST(CoverageDifferential, TortureSuite) {
  testgen::TortureConfig config;
  config.programs = 32;
  config.seed = 2024;
  check_all_modes(from_suite(testgen::torture_suite(config)));
}

// Blocks cut short mid-way: a load fault whose handler skips the faulting
// instruction, and stores that patch code the running block precedes (the
// deferred flush ends the block after the store; the re-translation at the
// same start decodes a different instruction type each time).
TEST(CoverageDifferential, CutShortBlocks) {
  check_all_modes({
      {"trap_mid_block", R"(
_start:
    la t0, handler
    csrw mtvec, t0
    li s0, 5
loop:
    addi s1, s1, 1
    lw t1, 1(zero)
    addi s2, s2, 1
    addi s0, s0, -1
    bnez s0, loop
    li a7, 93
    li a0, 0
    ecall
handler:
    csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
)"},
      {"self_modifying", R"(
_start:
    la t0, site
    li t1, 0x00154513     # xori a0, a0, 1
    li t2, 0x00150513     # addi a0, a0, 1
    li s0, 6
loop:
    sw t1, 0(t0)
    mv t3, t1
    mv t1, t2
    mv t2, t3
site:
    addi a0, a0, 1
    addi s0, s0, -1
    bnez s0, loop
    li a7, 93
    li a0, 0
    ecall
)"},
  });
}

}  // namespace
}  // namespace s4e::coverage
