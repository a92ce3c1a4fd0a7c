// Reference RV32IM interpreter of the benchmark. It shares no code with the
// program under test and has two jobs:
//
//   - oracle: it runs every guest the benchmark hands to the VP, and its
//     exit code, retired-instruction count, executed PCs, UART output and
//     FNV-1a hash of .data must equal the VP's;
//   - yardstick: it runs a fixed guest kernel right before every timed
//     repetition, so host time can be reported at the kernel's nominal speed
//     (README.md, "Normalisation").
//
// Only what the guests use is implemented: RV32I without fence/CSR ops,
// the M extension, the `ecall` exit (a7 = 93) and the UART TXDATA register.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RefImage {
  struct Segment {
    uint32_t base = 0;
    std::vector<uint8_t> bytes;
  };
  std::vector<Segment> segments;
  uint32_t entry = 0;
  uint32_t data_base = 0;  // .data window hashed after the run
  uint32_t data_size = 0;
};

struct RefResult {
  bool exited = false;  // ecall exit reached within the budget
  int exit_code = 0;
  uint64_t instructions = 0;  // retired, the exit ecall included
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t data_hash = 0;     // FNV-1a over the final .data bytes
  std::string uart;
  std::vector<uint32_t> executed;  // distinct PCs, ascending
  std::string error;               // why the run stopped, if not an exit
};

class RefVm {
 public:
  static constexpr uint32_t kRamBase = 0x8000'0000u;
  static constexpr uint32_t kRamSize = 4u << 20;
  static constexpr uint32_t kUartTx = 0x1000'0000u;

  RefVm();

  // Run `image` from a fresh state. `track_pcs` fills RefResult::executed.
  RefResult run(const RefImage& image, uint64_t max_instructions,
                bool track_pcs);

 private:
  uint32_t load(uint32_t addr, unsigned size, bool is_signed, bool& ok);
  bool store(uint32_t addr, unsigned size, uint32_t value);

  std::vector<uint8_t> ram_;
  uint32_t dirty_lo_ = 0;  // RAM offsets written since the last reset
  uint32_t dirty_hi_ = 0;
  std::string uart_;
};

// The yardstick: a fixed RV32IM kernel (LCG-driven loads and stores over a
// 1 MiB table, a data-dependent branch, a multiply and an unsigned divide
// per iteration) encoded in refvm.cpp, and its fixed amount of guest work.
struct RefKernel {
  RefKernel();
  // Runs the kernel once; returns false if its checksum is wrong.
  bool run();
  uint64_t instructions() const noexcept { return instructions_; }

 private:
  RefVm vm_;
  RefImage image_;
  uint64_t instructions_ = 0;
};

}  // namespace perfbench
