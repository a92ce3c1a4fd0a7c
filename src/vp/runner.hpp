// Shared campaign-runner plumbing: the golden-run setup and final-state
// hashing that fault-effect analysis and binary mutation both need, plus
// the per-worker VM that exec::run_campaign gives each worker lane.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "vp/machine.hpp"
#include "vp/snapshot.hpp"

namespace s4e::vp {

// FNV-1a over the program's final .data contents in `machine`'s RAM — the
// deep-state comparison surface of the campaign engines. 0 when the program
// has no .data section (or it is unreadable).
u64 data_memory_hash(Machine& machine, const assembler::Program& program);

// Instruction budget for one mutant run: `golden_instructions * factor`
// plus a fixed slack for short goldens, computed with saturating arithmetic
// (a long golden run times a large factor must not wrap to a tiny — or
// zero — budget that disables or corrupts the hang detector), and clamped
// to the machine config's own `max_instructions` cap.
u64 hang_budget(u64 golden_instructions, u64 factor, u64 max_instructions)
    noexcept;

// Golden (fault-free) reference execution of a program.
struct GoldenRun {
  RunResult result;
  std::string uart;
  u64 memory_hash = 0;              // FNV-1a over the final .data contents
  std::vector<u32> executed_code;   // instruction addresses executed (sorted)
  std::vector<u32> touched_memory;  // data addresses accessed (sorted)
};

// Load `program` into `machine`, run it to completion and collect the
// golden reference. The machine is constructed by the caller so extra
// plugins (coverage) can be attached before the run. Fails unless the run
// terminates normally.
Result<GoldenRun> run_golden(Machine& machine,
                             const assembler::Program& program);

// One worker's long-lived VM for a mutant campaign. Every prepare() hands
// back a machine holding the freshly loaded program with no plugins
// attached; the policy decides how:
//   - kRestore: the machine is built and loaded once, a baseline Snapshot
//     is captured, and prepare() restores it — dirty pages only, TB cache
//     warm, previous run's plugins dropped;
//   - kRebuild: prepare() builds and loads a new machine (the first call
//     hands out the one create() built). This is the pre-snapshot path and
//     the oracle the restore layer is checked against.
class WorkerVm {
 public:
  enum class Policy : u8 { kRestore, kRebuild };

  // `program` must outlive the WorkerVm.
  static Result<std::unique_ptr<WorkerVm>> create(
      const MachineConfig& config, const assembler::Program& program,
      Policy policy = Policy::kRestore);

  // Baseline machine for the next mutant run.
  Machine& prepare();

  Machine& machine() noexcept { return *machine_; }
  const SnapshotStats& stats() const noexcept {
    return machine_->snapshot_stats();
  }

 private:
  WorkerVm(const MachineConfig& config, const assembler::Program& program,
           Policy policy)
      : config_(config),
        program_(program),
        policy_(policy),
        machine_(std::in_place, config) {}

  MachineConfig config_;
  const assembler::Program& program_;
  Policy policy_;
  bool handed_out_ = false;  // kRebuild: the current machine has run
  std::optional<Machine> machine_;
  Snapshot baseline_;
};

}  // namespace s4e::vp
