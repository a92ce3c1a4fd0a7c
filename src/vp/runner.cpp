#include "vp/runner.hpp"

#include <utility>

#include "common/page_bitmap.hpp"
#include "vp/s4e_plugin.h"

namespace s4e::vp {

u64 data_memory_hash(Machine& machine, const assembler::Program& program) {
  const assembler::Section* data = program.find_section(".data");
  if (data == nullptr || data->bytes.empty()) return 0;
  std::vector<u8> buffer(data->bytes.size());
  if (!machine.bus()
           .ram_read(data->base, buffer.data(),
                     static_cast<u32>(buffer.size()))
           .ok()) {
    return 0;
  }
  u64 hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (u8 byte : buffer) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

u64 hang_budget(u64 golden_instructions, u64 factor,
                u64 max_instructions) noexcept {
  const u64 budget = saturating_add(
      saturating_mul(golden_instructions, factor), 10'000);
  return budget < max_instructions ? budget : max_instructions;
}

Result<GoldenRun> run_golden(Machine& machine,
                             const assembler::Program& program) {
  S4E_TRY_STATUS(machine.load_program(program));

  // Record touched data memory and executed code through the C API, the
  // same way campaign plugins observe the run.
  struct Tracker {
    PageBitmap memory;  // first byte of each data access
    PageBitmap code;    // translated instruction addresses
  } tracker;
  s4e_register_mem_cb(
      machine.vm_handle(),
      [](void* userdata, s4e_vm*, const s4e_mem_event* event) {
        static_cast<Tracker*>(userdata)->memory.mark(event->vaddr);
      },
      &tracker);
  s4e_register_tb_trans_cb(
      machine.vm_handle(),
      [](void* userdata, s4e_vm*, const s4e_tb_info* tb) {
        auto* t = static_cast<Tracker*>(userdata);
        for (u32 i = 0; i < tb->n_insns; ++i) {
          t->code.mark(tb->insns[i].address);
        }
      },
      &tracker);

  GoldenRun golden;
  golden.result = machine.run();
  if (!golden.result.normal_exit()) {
    return Error(ErrorCode::kStateError,
                 "golden run did not terminate normally: " +
                     std::string(to_string(golden.result.reason)));
  }
  golden.uart = machine.uart() != nullptr ? machine.uart()->tx_log() : "";
  golden.memory_hash = data_memory_hash(machine, program);
  golden.executed_code = tracker.code.sorted();
  golden.touched_memory = tracker.memory.sorted();
  return golden;
}

Result<std::unique_ptr<WorkerVm>> WorkerVm::create(
    const MachineConfig& config, const assembler::Program& program,
    Policy policy) {
  std::unique_ptr<WorkerVm> vm(new WorkerVm(config, program, policy));
  S4E_TRY_STATUS(vm->machine_->load_program(program));
  if (policy == Policy::kRestore) vm->machine_->save_state(vm->baseline_);
  return vm;
}

Machine& WorkerVm::prepare() {
  if (policy_ == Policy::kRestore) {
    machine_->clear_plugins();
    machine_->restore_state(baseline_);
  } else if (handed_out_) {
    machine_.emplace(config_);
    // create() loaded the same program into the same configuration, so a
    // failure here is a broken invariant, not an input error.
    const Status loaded = machine_->load_program(program_);
    S4E_CHECK(loaded.ok());
  }
  handed_out_ = true;
  return *machine_;
}

}  // namespace s4e::vp
