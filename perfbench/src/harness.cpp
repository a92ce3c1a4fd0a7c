// perfbench harness: times calls into the repo's public module APIs on one
// thread, checks every output against the reference interpreter and the
// invariants of each method, and prints one JSON result line.
//
//   perfbench-harness --guests FILE --seconds S --trace 0|1
//                     [--setup-samples N/R,...] [--faultsim PATH --workdir DIR]
//                     [--corrupt WHAT]
//   perfbench-harness --guests FILE --setup-only 1
//
// FILE is written by run.py: the workload's plan and its generated guests.
// --setup-only times one cold set-up and prints it as "normalised/raw"
// seconds; --setup-samples hands such samples to the main run, which
// reports the median of them and its own.
// Every host time is normalised against the reference kernel (refvm.hpp),
// run on the same thread right before each timed repetition; README.md
// explains the scheme and the nominal constant.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "core/workloads.hpp"
#include "coverage/coverage.hpp"
#include "dataflow/triage.hpp"
#include "elf/elf32.hpp"
#include "fault/fault.hpp"
#include "fleet/orchestrator.hpp"
#include "mutation/mutation.hpp"
#include "qta/qta.hpp"
#include "refvm.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "vp/machine.hpp"
#include "vp/runner.hpp"
#include "wcet/analyzer.hpp"

namespace {

using namespace s4e;
using Clock = std::chrono::steady_clock;

// Median time of one RefKernel::run() on the host the constant was taken
// on (README.md, "Normalisation"). Metrics are reported as if every timed
// repetition had run on a host where the kernel takes exactly this long.
constexpr double kNominalRefSeconds = 0.0098;

// How far the VP's times move with the kernel's. Over 60 validation runs
// the VP's throughputs scaled with the kernel's speed to the power
// 0.58-0.83 (set-up 0.2-0.4): the kernel's 1 MiB table makes it more
// sensitive to the host's slow phases than the VP is. Scaling by the
// kernel's full ratio over-corrected by up to 20 %; 0.8 keeps the
// remaining error of the throughputs near +-0.2 in the exponent, and
// over-corrects set-up less than 1 did (README.md, "Normalisation").
constexpr double kRefElasticity = 0.8;

// A time (or inverse rate) at the kernel's nominal speed.
double at_nominal(double ref_seconds) {
  return std::pow(kNominalRefSeconds / ref_seconds, kRefElasticity);
}

// The fault campaigns' RNG seed. The guests carry the run's seed; the fault
// list stays fixed so campaign cost does not move with the hangs a seed draws.
constexpr u64 kCampaignSeed = 1;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Inputs ----------------------------------------------------------------

struct Plan {
  unsigned fast_runs = 1;       // fast-guest runs per guest_mips repetition
  // Per analysis guest, in order:
  std::vector<unsigned> coverage_runs;  // runs per coverage repetition
  std::vector<unsigned> record_runs;    // runs per record repetition
  std::vector<unsigned> fault_mutants;
  std::vector<unsigned> mutation_max;
};

struct Guest {
  std::string name;
  std::string source;
  std::string expected_uart;
  bool generated = true;  // false: a guest of core::standard_workloads()
  bool fast = false;      // the guest_mips guest
  bool analysis = false;  // campaigns, coverage, record and replay run it
  // Filled during set-up.
  assembler::Program program;
  vp::GoldenRun golden;
  std::vector<u8> trace_bytes;
  std::unique_ptr<trace::DecodedTrace> decoded;
  // Filled by the oracle.
  perfbench::RefResult ref;
};

std::string unhex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::vector<unsigned> parse_list(const std::string& text) {
  std::vector<unsigned> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoul(item));
  return out;
}

// Format: "@plan key=value ..." then per guest "@guest NAME ROLES",
// "@uart HEX", source lines, "@end". "@builtin NAME ROLES" names a guest of
// core::standard_workloads().
bool read_guests(const std::string& path, Plan& plan,
                 std::vector<Guest>& guests) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  Guest* current = nullptr;
  auto roles = [](Guest& g, const std::string& r) {
    g.fast = r.find("fast") != std::string::npos;
    g.analysis = r.find("analysis") != std::string::npos;
  };
  while (std::getline(in, line)) {
    if (current != nullptr && line != "@end") {
      if (line.rfind("@uart ", 0) == 0) {
        current->expected_uart = unhex(line.substr(6));
      } else {
        current->source += line + "\n";
      }
      continue;
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "@plan") {
      std::string kv;
      while (ls >> kv) {
        const auto eq = kv.find('=');
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "fast_runs") plan.fast_runs = std::stoul(value);
        if (key == "coverage_runs") plan.coverage_runs = parse_list(value);
        if (key == "record_runs") plan.record_runs = parse_list(value);
        if (key == "fault_mutants") plan.fault_mutants = parse_list(value);
        if (key == "mutation_max") plan.mutation_max = parse_list(value);
      }
    } else if (tag == "@guest" || tag == "@builtin") {
      Guest g;
      std::string r;
      ls >> g.name >> r;
      roles(g, r);
      if (tag == "@builtin") {
        auto w = core::find_workload(g.name);
        if (!w.ok()) return false;
        g.source = w->source;
        g.generated = false;
        guests.push_back(std::move(g));
      } else {
        guests.push_back(std::move(g));
        current = &guests.back();
      }
    } else if (tag == "@end") {
      current = nullptr;
    }
  }
  return !guests.empty();
}

// --- Checks -----------------------------------------------------------------

struct Checker {
  bool ok = true;
  u64 failures = 0;                // failed checks, counted per call
  std::set<std::string> reported;  // each failed check is printed once
  void expect(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      ++failures;
      if (reported.insert(what).second) {
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
      }
    }
  }
};

// Collects the executed PCs of a careful-loop run.
class PcSet final : public vp::PluginBase {
 public:
  Subscriptions subscriptions() const override {
    Subscriptions s;
    s.insn_exec = true;
    return s;
  }
  void on_insn_exec(const s4e_insn_info& insn) override {
    seen_.push_back(insn.address);
  }
  std::vector<u32> sorted() {
    std::sort(seen_.begin(), seen_.end());
    seen_.erase(std::unique(seen_.begin(), seen_.end()), seen_.end());
    return seen_;
  }

 private:
  std::vector<u32> seen_;
};

// An insn_exec subscriber that does nothing: forces the careful loop.
class NoopInsn final : public vp::PluginBase {
 public:
  Subscriptions subscriptions() const override {
    Subscriptions s;
    s.insn_exec = true;
    return s;
  }
};

perfbench::RefImage ref_image(const assembler::Program& p) {
  perfbench::RefImage img;
  for (const auto& s : p.sections) img.segments.push_back({s.base, s.bytes});
  img.entry = p.entry;
  if (const auto* data = p.find_section(".data")) {
    img.data_base = data->base;
    img.data_size = static_cast<u32>(data->bytes.size());
  }
  return img;
}

// --- The yardstick ----------------------------------------------------------

struct Yardstick {
  perfbench::RefKernel kernel;
  std::vector<double> seconds;  // every run, for ref.mips
  Checker* check = nullptr;

  // One kernel run; returns its host time.
  double run() {
    const auto t0 = Clock::now();
    const bool good = kernel.run();
    const double t = since(t0);
    check->expect(good, "reference kernel checksum");
    seconds.push_back(t);
    return t;
  }
};

// One end-to-end metric: raw samples, each with the index of the kernel run
// that preceded it. A sample is normalised by the mean of that run and the
// next one (the kernel run before the following operation), so the
// reference brackets the operation at no extra cost.
struct Series {
  std::vector<double> raw;
  std::vector<std::size_t> ref_index;
  std::vector<double> normalised(const std::vector<double>& refs) const {
    std::vector<double> out;
    for (std::size_t k = 0; k < raw.size(); ++k) {
      const std::size_t i = ref_index[k];
      const double ref_s = i + 1 < refs.size() ? 0.5 * (refs[i] + refs[i + 1]) : refs[i];
      out.push_back(raw[k] / at_nominal(ref_s));
    }
    return out;
  }
};

// --- The workload -----------------------------------------------------------

class Bench {
 public:
  Bench(Plan plan, std::vector<Guest> guests, std::string corrupt)
      : plan_(std::move(plan)), guests_(std::move(guests)),
        corrupt_(std::move(corrupt)) {
    yard_.check = &check_;
    for (auto& g : guests_) {
      if (g.fast) fast_ = &g;
      if (g.analysis) analysis_.push_back(&g);
    }
    fault_counts_.resize(analysis_.size());
    mutation_counts_.resize(analysis_.size());
  }

  Checker& check() { return check_; }
  Yardstick& yard() { return yard_; }

  // The traced run's fleet comparison: the s4e-faultsim worker binary and
  // a directory for the guest's ELF file.
  std::string faultsim;
  std::string workdir;

  bool shape_ok() const {
    const std::size_t n = analysis_.size();
    return fast_ != nullptr && n != 0 && plan_.coverage_runs.size() == n &&
           plan_.record_runs.size() == n && plan_.fault_mutants.size() == n &&
           plan_.mutation_max.size() == n;
  }

  // From guest source to the first timed operation: assemble, machine
  // build + load, golden profile, triage, WCET analysis, record + decode.
  bool setup() {
    for (auto& g : guests_) {
      auto p = assembler::assemble(g.source);
      if (!p.ok()) {
        std::fprintf(stderr, "perfbench: %s: %s\n", g.name.c_str(),
                     p.error().to_string().c_str());
        return false;
      }
      g.program = std::move(*p);
    }
    {
      vp::Machine m(config_);
      if (!m.load_program(fast_->program).ok()) return false;
    }
    for (Guest* g : analysis_) {
      vp::Machine m(config_);
      coverage::CoveragePlugin cov;
      cov.attach(m.vm_handle());
      auto golden = vp::run_golden(m, g->program);
      if (!golden.ok()) {
        std::fprintf(stderr, "perfbench: %s golden: %s\n", g->name.c_str(),
                     golden.error().to_string().c_str());
        return false;
      }
      g->golden = std::move(*golden);
      auto triage = dataflow::StaticTriage::build(
          g->program, {config_.ram_base + config_.ram_size});
      if (!triage.ok()) return false;
      auto analysis = wcet::Analyzer().analyze(g->program);
      if (!analysis.ok()) {
        std::fprintf(stderr, "perfbench: %s wcet: %s\n", g->name.c_str(),
                     analysis.error().to_string().c_str());
        return false;
      }
      if (!record(*g)) return false;
    }
    return true;
  }

  // The oracle and the method invariants; none of this is timed.
  void verify() {
    perfbench::RefVm ref;
    for (auto& g : guests_) {
      g.ref = ref.run(ref_image(g.program), config_.max_instructions, true);
      const auto& r = g.ref;
      check_.expect(r.exited, g.name + ": reference run exits (" + r.error + ")");
      check_.expect(r.exit_code == 0, g.name + ": guest self-check passes on the reference");
      if (g.generated) {
        check_.expect(r.uart == g.expected_uart, g.name + ": reference UART equals host expectation");
      }
      u64 ref_hash = r.data_hash;
      if (corrupt_ == "ref_hash") ref_hash ^= 1;

      auto compare = [&](const vp::RunResult& run, u64 hash,
                         const std::string& uart, const std::string& how) {
        check_.expect(run.normal_exit() && run.exit_code == r.exit_code,
                      g.name + " " + how + ": exit code equals reference");
        check_.expect(run.instructions == r.instructions,
                      g.name + " " + how + ": instructions " +
                          std::to_string(run.instructions) + " equal reference " +
                          std::to_string(r.instructions));
        check_.expect(hash == ref_hash, g.name + " " + how + ": .data hash equals reference");
        check_.expect(uart == r.uart, g.name + " " + how + ": UART equals reference");
      };
      {
        vp::Machine m(config_);
        (void)m.load_program(g.program);
        const auto run = m.run();
        compare(run, vp::data_memory_hash(m, g.program), m.uart()->tx_log(), "fast run");
      }
      {
        vp::Machine m(config_);
        coverage::CoveragePlugin cov;
        PcSet pcs;
        cov.attach(m.vm_handle());
        pcs.attach(m.vm_handle());
        (void)m.load_program(g.program);
        const auto run = m.run();
        compare(run, vp::data_memory_hash(m, g.program), m.uart()->tx_log(), "coverage run");
        check_.expect(pcs.sorted() == r.executed, g.name + " coverage run: executed PCs equal reference");
        check_.expect(cov.data().total_instructions == r.instructions, g.name + ": coverage instruction count equals reference");
        check_.expect(cov.data().loads == r.loads && cov.data().stores == r.stores,
                      g.name + ": coverage load/store counts equal reference");
      }
      if (g.analysis) {
        compare(g.golden.result, g.golden.memory_hash, g.golden.uart, "golden run");
        check_.expect(g.golden.executed_code == r.executed, g.name + " golden run: executed code equals reference PCs");
      }
    }
    for (std::size_t i = 0; i < analysis_.size(); ++i) verify_campaigns(i);
    for (Guest* g : analysis_) verify_replay(*g);
  }

  // --- Timed operations: each returns its own rate.

  double op_guest() {
    u64 insns = 0;
    const auto t0 = Clock::now();
    for (unsigned k = 0; k < plan_.fast_runs; ++k) {
      vp::Machine m(config_);
      (void)m.load_program(fast_->program);
      const auto run = m.run();
      check_.expect(run.exit_code == 0 && run.instructions == fast_->ref.instructions,
                    "guest_mips run matches reference");
      insns += run.instructions;
    }
    return static_cast<double>(insns) / since(t0) / 1e6;
  }

  double op_coverage() {
    u64 insns = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < analysis_.size(); ++i) {
      const Guest* g = analysis_[i];
      for (unsigned k = 0; k < plan_.coverage_runs[i]; ++k) {
        vp::Machine m(config_);
        coverage::CoveragePlugin cov;
        cov.attach(m.vm_handle());
        (void)m.load_program(g->program);
        const auto run = m.run();
        check_.expect(run.exit_code == 0 && cov.data().total_instructions == g->ref.instructions,
                      "coverage run matches reference");
        insns += run.instructions;
      }
    }
    return static_cast<double>(insns) / since(t0) / 1e6;
  }

  double op_fault() {
    u64 mutants = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < analysis_.size(); ++i) {
      auto r = fault_campaign(i, plan_.fault_mutants[i], 1);
      check_.expect(r.ok() && r->mutants.size() == plan_.fault_mutants[i] &&
                        counts(*r) == fault_counts_[i],
                    "fault campaign repeats its outcome counts");
      if (r.ok()) mutants += r->mutants.size();
    }
    return static_cast<double>(mutants) / since(t0);
  }

  double op_mutation() {
    u64 mutants = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < analysis_.size(); ++i) {
      auto r = mutation_campaign(i, plan_.mutation_max[i]);
      check_.expect(r.ok() && counts(*r) == mutation_counts_[i],
                    "mutation campaign repeats its verdict counts");
      if (r.ok()) mutants += r->results.size();
    }
    return static_cast<double>(mutants) / since(t0);
  }

  double op_record() {
    u64 insns = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < analysis_.size(); ++i) {
      const Guest* g = analysis_[i];
      for (unsigned k = 0; k < plan_.record_runs[i]; ++k) {
        std::vector<u8> bytes;
        check_.expect(record_bytes(*g, bytes) && bytes == g->trace_bytes,
                      "record repeats the set-up trace");
        insns += g->ref.instructions;
      }
    }
    return static_cast<double>(insns) / since(t0) / 1e6;
  }

  // s4e-qta --replay --models all --jobs 1: per config, WCET analysis,
  // replay with the path accumulator, and the QTA chain check.
  double op_replay() {
    u64 configs = 0;
    const auto t0 = Clock::now();
    for (Guest* g : analysis_) {
      for (const auto& nt : matrix_) {
        wcet::AnalyzerOptions opts;
        opts.timing = nt.params;
        opts.program_name = nt.name;
        auto analysis = wcet::Analyzer(opts).analyze(g->program);
        if (!analysis.ok()) {
          check_.expect(false, g->name + " " + nt.name + ": WCET analysis");
          continue;
        }
        analysis->annotated.reindex();
        qta::PathAccumulator path(analysis->annotated);
        auto replayed = trace::replay(*g->decoded, nt.params,
                                      [&path](u32 pc) { path.step(pc); });
        if (!replayed.ok()) {
          check_.expect(false, g->name + " " + nt.name + ": replay");
          continue;
        }
        const auto rep = path.report(replayed->cycles);
        check_.expect(rep.observed_cycles <= rep.wc_path_cycles &&
                          rep.wc_path_cycles <= rep.static_bound &&
                          !rep.bound_violated && rep.unknown_blocks == 0,
                      g->name + " " + nt.name + ": observed <= WC(path) <= bound");
        ++configs;
      }
    }
    return static_cast<double>(configs) / since(t0);
  }

  // --- Layer measurements for the traced run.
  void layers(std::map<std::string, double>& out);

  const std::vector<Guest*>& analysis() const { return analysis_; }

 private:
  using Counts = std::vector<u64>;
  static Counts counts(const fault::CampaignResult& r) {
    return {r.outcome_counts[0], r.outcome_counts[1], r.outcome_counts[2],
            r.outcome_counts[3], r.pruned_count};
  }
  static Counts counts(const mutation::MutationScore& r) {
    return {r.verdict_counts[0], r.verdict_counts[1], r.verdict_counts[2],
            r.verdict_counts[3], r.pruned_count};
  }

  fault::CampaignConfig fault_config(unsigned mutants, unsigned jobs) const {
    fault::CampaignConfig c;
    c.seed = kCampaignSeed;
    c.mutant_count = mutants;
    c.jobs = jobs;
    c.reuse_machines = true;
    c.triage = dataflow::TriageMode::kOn;
    c.machine = config_;
    return c;
  }
  Result<fault::CampaignResult> fault_campaign(std::size_t i, unsigned mutants,
                                               unsigned jobs) const {
    return fault::Campaign(analysis_[i]->program, fault_config(mutants, jobs)).run();
  }
  mutation::MutationConfig mutation_config(unsigned max) const {
    mutation::MutationConfig c;
    c.max_mutants = max;
    c.jobs = 1;
    c.reuse_machines = true;
    c.triage = dataflow::TriageMode::kOn;
    c.machine = config_;
    return c;
  }
  Result<mutation::MutationScore> mutation_campaign(std::size_t i,
                                                    unsigned max) const {
    return mutation::MutationCampaign(analysis_[i]->program, mutation_config(max)).run();
  }

  bool record_bytes(const Guest& g, std::vector<u8>& bytes) const {
    vp::Machine m(config_);
    if (!m.load_program(g.program).ok()) return false;
    trace::TraceRecorder rec(trace::TraceRecorder::config_for(config_, g.program));
    if (!rec.attach_checked(m.vm_handle()).ok()) return false;
    const auto run = m.run();
    bytes = rec.finish_bytes(run);
    return run.normal_exit();
  }

  bool record(Guest& g) {
    if (!record_bytes(g, g.trace_bytes)) return false;
    auto tr = trace::Trace::parse(g.trace_bytes);
    if (!tr.ok()) return false;
    auto decoded = trace::DecodedTrace::decode(*tr);
    if (!decoded.ok()) {
      std::fprintf(stderr, "perfbench: %s decode: %s\n", g.name.c_str(),
                   decoded.error().to_string().c_str());
      return false;
    }
    g.decoded = std::make_unique<trace::DecodedTrace>(std::move(*decoded));
    return true;
  }

  void verify_campaigns(std::size_t i) {
    const Guest& g = *analysis_[i];
    const unsigned n = plan_.fault_mutants[i];
    auto full = fault_campaign(i, n, 1);
    check_.expect(full.ok(), g.name + ": fault campaign runs");
    if (!full.ok()) return;
    u64 expected_total = n;
    if (corrupt_ == "outcome_count") ++expected_total;
    const Counts c = counts(*full);
    check_.expect(c[0] + c[1] + c[2] + c[3] == expected_total && full->mutants.size() == n,
                  g.name + ": masked+sdc+crash+hang equals the fault mutant count");
    check_.expect(full->golden_instructions == g.ref.instructions &&
                      full->golden_memory_hash == g.ref.data_hash &&
                      full->golden_uart == g.ref.uart,
                  g.name + ": fault campaign golden run equals reference");
    fault_counts_[i] = c;
    // Every timed fault repetition must then fail its repeat check.
    if (corrupt_ == "repeat_count") ++fault_counts_[i][0];
    // A sampled shard with fresh machines matches the reuse run.
    auto cfg = fault_config(n, 1);
    cfg.reuse_machines = false;
    cfg.shard_index = 1;
    cfg.shard_count = 3;
    auto shard = fault::Campaign(g.program, cfg).run();
    check_.expect(shard.ok() && !shard->mutants.empty() &&
                      shard->shard_begin + shard->mutants.size() <= full->mutants.size(),
                  g.name + ": fault shard runs inside the campaign");
    if (shard.ok() && shard->shard_begin + shard->mutants.size() <= full->mutants.size()) {
      bool same = true;
      for (std::size_t k = 0; k < shard->mutants.size(); ++k) {
        const auto& a = shard->mutants[k];
        const auto& b = full->mutants[shard->shard_begin + k];
        same = same && a.outcome == b.outcome && a.instructions == b.instructions &&
               a.exit_code == b.exit_code;
      }
      check_.expect(same, g.name + ": fresh-machine fault shard equals reuse run");
    }

    const unsigned max = plan_.mutation_max[i];
    auto score = mutation_campaign(i, max);
    check_.expect(score.ok(), g.name + ": mutation campaign runs");
    if (!score.ok()) return;
    const u64 enumerated = mutation::enumerate_mutants(g.program, g.ref.executed).size();
    const u64 expected_mutants = max == 0 ? enumerated : std::min<u64>(max, enumerated);
    check_.expect(score->results.size() == expected_mutants &&
                      score->total_mutants == expected_mutants,
                  g.name + ": mutation mutants equal enumerate_mutants over reference PCs");
    check_.expect(score->killed() + score->count(mutation::Verdict::kSurvived) ==
                      score->results.size(),
                  g.name + ": killed+survived equals the mutation mutant count");
    mutation_counts_[i] = counts(*score);
    auto mcfg = mutation_config(max);
    mcfg.reuse_machines = false;
    mcfg.shard_index = 1;
    mcfg.shard_count = 3;
    auto mshard = mutation::MutationCampaign(g.program, mcfg).run();
    check_.expect(mshard.ok() && !mshard->results.empty() &&
                      mshard->shard_begin + mshard->results.size() <= score->results.size(),
                  g.name + ": mutation shard runs inside the campaign");
    if (mshard.ok() && mshard->shard_begin + mshard->results.size() <= score->results.size()) {
      bool same = true;
      for (std::size_t k = 0; k < mshard->results.size(); ++k) {
        const auto& a = mshard->results[k];
        const auto& b = score->results[mshard->shard_begin + k];
        same = same && a.verdict == b.verdict && a.instructions == b.instructions;
      }
      check_.expect(same, g.name + ": fresh-machine mutation shard equals reuse run");
    }
  }

  // Replayed cycles equal live cycles for every config of the matrix.
  void verify_replay(const Guest& g) {
    for (const auto& nt : matrix_) {
      vp::MachineConfig c = config_;
      c.timing = nt.params;
      vp::Machine m(c);
      (void)m.load_program(g.program);
      const auto live = m.run();
      auto replayed = trace::replay(*g.decoded, nt.params);
      check_.expect(replayed.ok() && replayed->cycles == live.cycles &&
                        replayed->instructions == live.instructions,
                    g.name + " " + nt.name + ": replayed cycles equal live cycles");
    }
  }

  Plan plan_;
  std::vector<Guest> guests_;
  std::string corrupt_;
  vp::MachineConfig config_;
  const std::vector<trace::NamedTiming> matrix_ = trace::timing_matrix();
  Guest* fast_ = nullptr;
  std::vector<Guest*> analysis_;
  std::vector<Counts> fault_counts_;
  std::vector<Counts> mutation_counts_;
  Checker check_;
  Yardstick yard_;
};

// --- Per-layer measurements -------------------------------------------------

template <typename F>
double median_seconds(unsigned reps, F&& f) {
  std::vector<double> v;
  for (unsigned i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    v.push_back(since(t0));
  }
  return median(v);
}

void Bench::layers(std::map<std::string, double>& out) {
  // Set-up layers, summed over the workload's guests.
  out["asm.assemble_ms"] = 1e3 * median_seconds(5, [&] {
    for (auto& g : guests_) check_.expect(assembler::assemble(g.source).ok(), "assemble");
  });
  out["vp.machine_build_us"] = 1e6 * median_seconds(21, [&] { vp::Machine m(config_); });
  {
    std::vector<double> v;
    for (int i = 0; i < 21; ++i) {
      vp::Machine m(config_);
      const auto t0 = Clock::now();
      (void)m.load_program(fast_->program);
      v.push_back(since(t0));
    }
    out["vp.load_us"] = 1e6 * median(v);
  }
  out["coverage.golden_profile_ms"] = 1e3 * median_seconds(3, [&] {
    for (Guest* g : analysis_) {
      vp::Machine m(config_);
      coverage::CoveragePlugin cov;
      cov.attach(m.vm_handle());
      check_.expect(vp::run_golden(m, g->program).ok(), "golden profile");
    }
  });
  out["dataflow.triage_ms"] = 1e3 * median_seconds(3, [&] {
    for (Guest* g : analysis_) {
      check_.expect(dataflow::StaticTriage::build(g->program, {config_.ram_base + config_.ram_size}).ok(), "triage");
    }
  });
  out["wcet.analyze_ms"] = 1e3 * median_seconds(3, [&] {
    for (Guest* g : analysis_) check_.expect(wcet::Analyzer().analyze(g->program).ok(), "wcet");
  });
  out["trace.decode_ms"] = 1e3 * median_seconds(3, [&] {
    for (Guest* g : analysis_) {
      auto tr = trace::Trace::parse(g->trace_bytes);
      check_.expect(tr.ok() && trace::DecodedTrace::decode(*tr).ok(), "decode");
    }
  });

  // Fast path: a cold run, then a warm run after restoring the loaded state
  // (restore keeps the translation blocks of pages the run did not write).
  {
    std::vector<double> warm;
    vp::EngineStats stats;
    u64 misses = 0, severs = 0;
    for (int i = 0; i < 5; ++i) {
      vp::Machine m(config_);
      (void)m.load_program(fast_->program);
      vp::Snapshot snap;
      m.save_state(snap);
      const auto run = m.run();
      stats = m.engine_stats();
      misses = m.tb_cache().lookup_misses();
      severs = m.tb_cache().chain_severs();
      m.restore_state(snap);
      const auto t0 = Clock::now();
      const auto again = m.run();
      warm.push_back(since(t0));
      check_.expect(run.instructions == fast_->ref.instructions &&
                        again.instructions == run.instructions,
                    "warm run matches cold run");
    }
    out["vp.fast_mips"] = static_cast<double>(fast_->ref.instructions) / median(warm) / 1e6;
    out["vp.blocks_fast"] = static_cast<double>(stats.blocks_fast);
    out["vp.tb_misses"] = static_cast<double>(misses);
    out["vp.chain_severs"] = static_cast<double>(severs);
  }
  // Translation: the first kTranslateWindow instructions cold minus the
  // same window warm. The window covers every block of one round of a
  // generated guest, so the difference is the translation work, without a
  // whole run's host noise on top of it.
  {
    constexpr u64 kTranslateWindow = 20'000;
    std::vector<double> cold, warm;
    for (int i = 0; i < 21; ++i) {
      vp::Machine m(config_);
      (void)m.load_program(fast_->program);
      vp::Snapshot snap;
      m.save_state(snap);
      auto t0 = Clock::now();
      (void)m.run(kTranslateWindow);
      cold.push_back(since(t0));
      m.restore_state(snap);
      t0 = Clock::now();
      (void)m.run(kTranslateWindow);
      warm.push_back(since(t0));
    }
    out["vp.translate_ms"] = 1e3 * (median(cold) - median(warm));
  }
  {
    u64 careful_blocks = 0;
    const double t = median_seconds(3, [&] {
      vp::Machine m(config_);
      NoopInsn noop;
      noop.attach(m.vm_handle());
      (void)m.load_program(fast_->program);
      check_.expect(m.run().instructions == fast_->ref.instructions, "careful run");
      careful_blocks = m.engine_stats().blocks_careful;
    });
    out["vp.careful_mips"] = static_cast<double>(fast_->ref.instructions) / t / 1e6;
    out["vp.blocks_careful"] = static_cast<double>(careful_blocks);
  }
  {
    auto vm = vp::WorkerVm::create(config_, analysis_[0]->program);
    if (vm.ok()) {
      std::vector<double> v;
      for (int i = 0; i < 51; ++i) {
        const auto t0 = Clock::now();
        vp::Machine& m = (*vm)->prepare();
        v.push_back(since(t0));
        (void)m.run();
      }
      const auto& s = (*vm)->stats();
      out["vp.snapshot_restore_us"] = 1e6 * median(v);
      out["vp.pages_copied_per_restore"] =
          s.restores ? static_cast<double>(s.pages_copied) / static_cast<double>(s.restores) : 0.0;
    }
    check_.expect(vm.ok(), "worker vm");
  }

  // Campaign slope and intercept: run() at N and 2N mutants.
  {
    double slope_s = 0, fixed_s = 0, n_total = 0, pruned = 0;
    for (std::size_t i = 0; i < analysis_.size(); ++i) {
      const unsigned n = plan_.fault_mutants[i];
      const double t1 = median_seconds(5, [&] { check_.expect(fault_campaign(i, n, 1).ok(), "fault N"); });
      const double t2 = median_seconds(5, [&] { check_.expect(fault_campaign(i, 2 * n, 1).ok(), "fault 2N"); });
      slope_s += t2 - t1;
      fixed_s += 2 * t1 - t2;
      n_total += n;
      pruned += static_cast<double>(fault_counts_[i][4]);
    }
    out["fault.per_mutant_us"] = 1e6 * slope_s / n_total;
    out["fault.fixed_ms"] = 1e3 * fixed_s;
    out["fault.pruned"] = pruned;
  }
  {
    double slope_s = 0, fixed_s = 0, n_total = 0, pruned = 0;
    for (std::size_t i = 0; i < analysis_.size(); ++i) {
      // N and 2N within the enumeration: halve the plan's cap for N.
      const unsigned full = static_cast<unsigned>(mutation_counts_[i][0] + mutation_counts_[i][1] +
                                                  mutation_counts_[i][2] + mutation_counts_[i][3]);
      const unsigned n = std::max(1u, full / 2);
      u64 got1 = 0, got2 = 0;
      const double t1 = median_seconds(3, [&] {
        auto r = mutation_campaign(i, n);
        check_.expect(r.ok(), "mutation N");
        if (r.ok()) got1 = r->results.size();
      });
      const double t2 = median_seconds(3, [&] {
        auto r = mutation_campaign(i, 2 * n);
        check_.expect(r.ok(), "mutation 2N");
        if (r.ok()) got2 = r->results.size();
      });
      const double dn = static_cast<double>(got2) - static_cast<double>(got1);
      if (dn > 0) {
        slope_s += (t2 - t1);
        n_total += dn;
        fixed_s += t1 - (t2 - t1) / dn * static_cast<double>(got1);
      }
      pruned += static_cast<double>(mutation_counts_[i][4]);
    }
    out["mutation.per_mutant_us"] = n_total > 0 ? 1e6 * slope_s / n_total : 0.0;
    out["mutation.fixed_ms"] = 1e3 * fixed_s;
    out["mutation.pruned"] = pruned;
  }

  // Trace layers.
  {
    double insns = 0, bytes = 0;
    const double t = median_seconds(3, [&] {
      insns = 0;
      bytes = 0;
      for (Guest* g : analysis_) {
        std::vector<u8> b;
        check_.expect(record_bytes(*g, b), "record");
        insns += static_cast<double>(g->ref.instructions);
        bytes += static_cast<double>(b.size());
      }
    });
    out["trace.record_mips"] = insns / t / 1e6;
    out["trace.stream_bytes_per_insn"] = bytes / insns;
  }
  {
    std::vector<double> bare, hooked;
    for (Guest* g : analysis_) {
      for (const auto& nt : matrix_) {
        wcet::AnalyzerOptions opts;
        opts.timing = nt.params;
        auto analysis = wcet::Analyzer(opts).analyze(g->program);
        if (!analysis.ok()) continue;
        analysis->annotated.reindex();
        qta::PathAccumulator path(analysis->annotated);
        auto t0 = Clock::now();
        check_.expect(trace::replay(*g->decoded, nt.params).ok(), "bare replay");
        bare.push_back(since(t0));
        t0 = Clock::now();
        check_.expect(trace::replay(*g->decoded, nt.params, [&path](u32 pc) { path.step(pc); }).ok(),
                      "hooked replay");
        hooked.push_back(since(t0));
      }
    }
    const double n = static_cast<double>(bare.size());
    double sb = 0, sh = 0;
    for (double x : bare) sb += x;
    for (double x : hooked) sh += x;
    out["trace.replay_config_ms"] = 1e3 * sb / n;
    out["qta.path_accumulator_ms"] = 1e3 * (sh - sb) / n;
  }

  // Parallel lanes and the fleet: at most two threads or processes.
  {
    const unsigned n = 2 * plan_.fault_mutants[0];
    const double t1 = median_seconds(3, [&] { check_.expect(fault_campaign(0, n, 1).ok(), "jobs=1"); });
    const double t2 = median_seconds(3, [&] { check_.expect(fault_campaign(0, n, 2).ok(), "jobs=2"); });
    out["exec.jobs2_speedup"] = t1 / t2;
  }
  {
    // The fleet workers run s4e-faultsim defaults (triage off); the thread
    // comparison uses the same campaign in-process at jobs=2.
    const unsigned n = 2 * plan_.fault_mutants[0];
    const std::string elf = workdir + "/guest.elf";
    double ratio = 0;
    if (!faultsim.empty() && elf::write_elf_file(analysis_[0]->program, elf).ok()) {
      fleet::FleetOptions fo;
      fo.elf_path = elf;
      fo.mode = fleet::Mode::kFault;
      fo.worker_path = faultsim;
      fo.workers = 2;
      fo.seed = kCampaignSeed;
      fo.mutants = n;
      std::string fleet_report;
      const double tf = median_seconds(3, [&] {
        auto r = fleet::run_fleet(fo);
        check_.expect(r.ok(), "fleet run");
        if (r.ok()) fleet_report = r->report;
      });
      auto cfg = fault_config(n, 2);
      cfg.triage = dataflow::TriageMode::kOff;
      std::string thread_report;
      const double tt = median_seconds(3, [&] {
        auto r = fault::Campaign(analysis_[0]->program, cfg).run();
        check_.expect(r.ok(), "thread run");
        if (r.ok()) thread_report = r->to_string();
      });
      check_.expect(fleet_report == thread_report, "fleet report equals thread-pool report");
      ratio = tt / tf;
      std::remove(elf.c_str());
    }
    out["fleet.vs_thread"] = ratio;
  }
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<std::pair<std::string, std::pair<double, std::string>>>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted) +
       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(vu.first) ? vu.first : 0.0);
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const double seconds = std::atof(args["--seconds"].c_str());
  const bool traced = args["--trace"] == "1";

  Plan plan;
  std::vector<Guest> guests;
  if (!read_guests(args["--guests"], plan, guests)) {
    std::fprintf(stderr, "perfbench: cannot read guests from '%s'\n", args["--guests"].c_str());
    return 2;
  }
  Bench bench(std::move(plan), std::move(guests), args["--corrupt"]);
  bench.faultsim = args["--faultsim"];
  bench.workdir = args["--workdir"];
  if (!bench.shape_ok()) {
    std::fprintf(stderr, "perfbench: plan does not match the guests\n");
    return 2;
  }
  if (!bench.setup()) return 1;
  const double setup_raw = since(process_start);
  // The kernel's first run pays for faulting in its RAM; it normalises
  // nothing.
  (void)bench.yard().kernel.run();
  std::vector<double> setup_refs;
  for (int i = 0; i < 3; ++i) setup_refs.push_back(bench.yard().run());
  const double setup_norm = setup_raw * at_nominal(median(setup_refs));
  if (args["--setup-only"] == "1") {
    // One cold set-up sample for run.py: "normalised/raw".
    std::printf("%.17g/%.17g\n", setup_norm, setup_raw);
    return bench.check().ok ? 0 : 1;
  }
  // setup_s: the median over this process's cold set-up and those of the
  // set-up-only processes run.py started before it.
  std::vector<double> setup_norms{setup_norm}, setup_raws{setup_raw};
  {
    std::stringstream ss(args["--setup-samples"]);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const auto slash = item.find('/');
      if (slash == std::string::npos) continue;
      setup_norms.push_back(std::atof(item.substr(0, slash).c_str()));
      setup_raws.push_back(std::atof(item.substr(slash + 1).c_str()));
    }
  }

  bench.verify();

  // Timed rounds: the reference kernel, then one repetition of each
  // end-to-end operation. Whole rounds only, so every run attempts the
  // same mix of operations.
  using Op = double (Bench::*)();
  const std::vector<std::pair<std::string, Op>> ops = {
      {"guest_mips", &Bench::op_guest},
      {"coverage_mips", &Bench::op_coverage},
      {"fault_mutants_per_s", &Bench::op_fault},
      {"mutation_mutants_per_s", &Bench::op_mutation},
      {"record_mips", &Bench::op_record},
      {"replay_configs_per_s", &Bench::op_replay},
  };
  const std::map<std::string, std::string> units = {
      {"guest_mips", "MIPS"}, {"coverage_mips", "MIPS"},
      {"fault_mutants_per_s", "1/s"}, {"mutation_mutants_per_s", "1/s"},
      {"record_mips", "MIPS"}, {"replay_configs_per_s", "1/s"}};
  std::map<std::string, Series> series;
  u64 attempted = 0, failed = 0;
  const double timed_budget = traced ? seconds / 2 : seconds;
  const auto timed_start = Clock::now();
  const std::vector<double>& refs = bench.yard().seconds;
  do {
    for (const auto& [name, op] : ops) {
      bench.yard().run();
      const u64 failures = bench.check().failures;
      const double rate = (bench.*op)();
      ++attempted;
      // A repetition whose call errs or whose output is wrong counts as
      // failed, and its rate is left out.
      if (bench.check().failures != failures) {
        ++failed;
        continue;
      }
      series[name].raw.push_back(rate);
      series[name].ref_index.push_back(refs.size() - 1);
    }
  } while (since(timed_start) < timed_budget);
  bench.yard().run();

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!traced) {
    metrics.push_back({"setup_s", {median(setup_norms), "s"}});
    for (const auto& [name, op] : ops) {
      metrics.push_back({name, {median(series[name].normalised(refs)), units.at(name)}});
    }
    metrics.push_back({"peak_rss_mib", {peak_rss_mib(), "MiB"}});
  } else {
    std::map<std::string, double> layer;
    bench.layers(layer);
    for (const auto& [name, value] : layer) {
      std::string unit = "count";
      const auto dot = name.rfind('_');
      const std::string suffix = dot == std::string::npos ? "" : name.substr(dot + 1);
      if (suffix == "ms" || suffix == "us" || suffix == "mips") unit = suffix == "mips" ? "MIPS" : suffix;
      if (name == "trace.stream_bytes_per_insn") unit = "B/insn";
      if (name == "exec.jobs2_speedup" || name == "fleet.vs_thread") unit = "x";
      if (name == "vp.pages_copied_per_restore") unit = "pages";
      metrics.push_back({name, {value, unit}});
    }
    metrics.push_back({"ref.mips", {static_cast<double>(bench.yard().kernel.instructions()) / median(refs) / 1e6, "MIPS"}});
    metrics.push_back({"ref.ms", {1e3 * median(refs), "ms"}});
    metrics.push_back({"raw.setup_s", {median(setup_raws), "s"}});
    for (const auto& [name, op] : ops) {
      metrics.push_back({"raw." + name, {median(series[name].raw), units.at(name)}});
    }
  }
  // The unnormalised medians go to stderr on every run, so the raw and
  // the normalised spread can be compared from the same runs.
  std::fprintf(stderr, "perfbench: raw setup_s=%.6g ref_ms=%.6g", median(setup_raws),
               1e3 * median(bench.yard().seconds));
  for (const auto& [name, op] : ops) {
    std::fprintf(stderr, " %s=%.6g", name.c_str(), median(series[name].raw));
  }
  std::fprintf(stderr, "\n");
  const bool correct = bench.check().ok;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
