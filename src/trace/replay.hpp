// VP-free differential timing replay — the "replay-many" half.
//
// replay() walks one recorded event stream and charges it under an arbitrary
// TimingParams configuration, running the *stateful* microarchitectural
// models (direct-mapped icache, bimodal predictor) against the recorded
// block/branch sequence. Because the exec engine's lowering precomputes all
// per-instruction costs from TimingModel::class_cycles() and the recorder
// preserves every input those costs depend on (latency class, RAM/MMIO
// classification, dividend, taken bit, block dispatches, traps), the
// replayed cycle count is bit-identical to what a live run under the same
// configuration would report — without booting a VP, decoding instructions,
// or simulating architectural state.
//
// Tainted traces (any timing-path-sensitive site: cycle CSR reads,
// CLINT/GPIO loads, interrupts, non-final wfi) are refused with a per-site
// diagnostic: under a different configuration the program could have taken a
// different path, and replaying the recorded one would be fiction.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "trace/format.hpp"

namespace s4e::trace {

struct ReplayResult {
  u64 cycles = 0;
  u64 instructions = 0;
  u64 blocks = 0;
  u64 icache_misses = 0;
  u64 mispredicts = 0;  // only counted when branch_predictor is enabled
};

// Called once per retired instruction with its PC, in program order (RLE
// runs are expanded). This is the hook the QTA path accumulator attaches to;
// it sees exactly the sequence a live run's insn_exec callback would.
using InsnHook = std::function<void(u32 pc)>;

// Refuse traces replay cannot honour: wrong workload (fingerprint mismatch;
// pass 0 to skip the check) or a timing-path-tainted recording (every taint
// site is listed with its PC and kind).
Status check_replayable(const Trace& trace, u64 expected_fingerprint);

// A trace decoded once into a flat compact-event vector: the varint stream
// decode (and the taint check) is paid a single time, and every
// per-configuration replay walks the shared read-only decoded form. This is
// what makes replay-many cheap — replay_matrix() and s4e-qta --replay decode
// once and fan the configurations out over it.
class DecodedTrace {
 public:
  // Refuses tainted traces (per-site diagnostic) and stream decode errors.
  static Result<DecodedTrace> decode(const Trace& trace);

  const Header& header() const noexcept { return header_; }
  const Footer& footer() const noexcept { return footer_; }
  std::size_t events() const noexcept { return events_.size(); }

  // One timing-relevant event, reduced to exactly the fields a replay
  // charges from (targets and addresses are dropped; classification bits
  // are folded into `flags`).
  struct Compact {
    u8 tag = 0;       // trace::Tag
    u8 op_class = 0;  // isa::OpClass (kTrapInsn only)
    u8 length = 0;    // instruction byte length (RLE run stride)
    u8 flags = 0;     // bit0 mem store, bit1 mem MMIO, bit2 trap handled
    u32 pc = 0;
    u32 count = 0;    // RLE run length
    u32 dividend = 0; // kDiv: rs1 value at issue
  };
  const std::vector<Compact>& stream() const noexcept { return events_; }

 private:
  DecodedTrace() = default;
  std::vector<Compact> events_;
  Header header_;
  Footer footer_;
};

// Charge the trace under `params`. Validates replayability (taints) first;
// cross-checks the walked instruction/block counts against the footer.
Result<ReplayResult> replay(const Trace& trace, const vp::TimingParams& params,
                            const InsnHook& on_insn = nullptr);

// Same, over a pre-decoded trace — the fast path for replay-many.
Result<ReplayResult> replay(const DecodedTrace& trace,
                            const vp::TimingParams& params,
                            const InsnHook& on_insn = nullptr);

// Replay under the *recording* configuration and compare against the cycle
// count the footer captured from the live run — the trace's built-in
// end-to-end self check.
Status self_check(const Trace& trace);

// One named point of the replay configuration matrix.
struct NamedTiming {
  std::string name;  // "base", "icache+bpred", ...
  vp::TimingParams params;
};

// The full E8 ablation lattice: every combination of the five binary
// microarchitectural features (icache, branch predictor, slow RAM, deep
// pipeline, slow multiplier/divider) on the default base — 32 configurations.
std::vector<NamedTiming> timing_matrix();

struct MatrixRow {
  std::string name;
  vp::TimingParams params;
  ReplayResult result;
};

// Fan one trace out over `configs` with exec::parallel_for (`jobs` as
// there; 0 = hardware concurrency). The trace is shared read-only; rows
// come back in `configs` order.
Result<std::vector<MatrixRow>> replay_matrix(
    const Trace& trace, const std::vector<NamedTiming>& configs,
    unsigned jobs);

}  // namespace s4e::trace
