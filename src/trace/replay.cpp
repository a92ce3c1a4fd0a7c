#include "trace/replay.hpp"

#include "common/strings.hpp"
#include "exec/parallel.hpp"
#include "isa/opcode.hpp"

namespace s4e::trace {

using isa::OpClass;

namespace {

Error taint_error(const Trace& trace) {
  std::string message =
      format("trace is timing-path-tainted at %zu site(s); the recorded path "
             "is only valid for the recording configuration:",
             trace.taints().size());
  std::size_t listed = 0;
  for (const TaintSite& site : trace.taints()) {
    if (listed == 8) {
      message += format(" ... (%zu more)", trace.taints().size() - listed);
      break;
    }
    message += format(" [pc=0x%08x %.*s]", site.pc,
                      static_cast<int>(to_string(site.kind).size()),
                      to_string(site.kind).data());
    ++listed;
  }
  return Error(ErrorCode::kStateError, message);
}

}  // namespace

Status check_replayable(const Trace& trace, u64 expected_fingerprint) {
  if (expected_fingerprint != 0 &&
      trace.header().fingerprint != expected_fingerprint) {
    return Error(
        ErrorCode::kInvalidArgument,
        format("trace was recorded from a different workload (trace "
               "fingerprint %016llx, expected %016llx)",
               static_cast<unsigned long long>(trace.header().fingerprint),
               static_cast<unsigned long long>(expected_fingerprint)));
  }
  if (!trace.taints().empty()) return taint_error(trace);
  return Status();
}

Result<DecodedTrace> DecodedTrace::decode(const Trace& trace) {
  if (!trace.taints().empty()) return taint_error(trace);

  DecodedTrace out;
  out.header_ = trace.header();
  out.footer_ = trace.footer();
  // Events are at least two stream bytes each (tag + payload) except bare
  // runs/blocks; half the stream size is a decent reservation.
  out.events_.reserve(trace.stream_size() / 2 + 16);

  Cursor cursor(trace);
  Event event;
  while (cursor.next(event)) {
    switch (event.tag) {
      case Tag::kTaint:
      case Tag::kWfiSleep:
        // Unreachable: taints were rejected above; be loud, not wrong.
        return taint_error(trace);
      case Tag::kEnd:
      case Tag::kCount:
        continue;
      default:
        break;
    }
    Compact compact;
    compact.tag = static_cast<u8>(event.tag);
    compact.op_class = event.op_class;
    compact.length = static_cast<u8>(event.length);
    compact.flags = static_cast<u8>((event.mem_store ? 1 : 0) |
                                    (event.mem_mmio ? 2 : 0) |
                                    (event.handled ? 4 : 0));
    compact.pc = event.pc;
    compact.count = event.count;
    compact.dividend = event.dividend;
    out.events_.push_back(compact);
  }
  if (!cursor.ok()) {
    return Error(ErrorCode::kParseError,
                 format("event stream decode failed at offset %zu: %s",
                        cursor.offset(), cursor.error().c_str()));
  }
  return out;
}

namespace {

// The hot loop, specialized on hook presence: the cycles-only walk (no
// per-instruction hook) is the replay-many fast path, and keeping the
// std::function test out of it is worth a template — per-event cost is
// what the >=10x-over-re-execution claim rests on.
template <bool kHooked>
ReplayResult replay_loop(const DecodedTrace& trace,
                         const vp::TimingParams& params,
                         const InsnHook& on_insn) {
  const vp::TimingModel model(params);
  vp::IcacheSim icache(params);
  vp::BimodalPredictor bimodal;
  ReplayResult out;

  // Per-class fall-through costs are loop-invariant; precompute them the way
  // the exec engine's lowering bakes them into DecodedInsn. Memory costs are
  // a four-entry table indexed by the compact (store, mmio) flag bits.
  const u64 c_arith = model.class_cycles(OpClass::kArith, false, false);
  const u64 c_mul = model.class_cycles(OpClass::kMul, false, false);
  const u64 c_div = model.class_cycles(OpClass::kDiv, false, false);
  const u64 c_csr = model.class_cycles(OpClass::kCsr, false, false);
  const u64 c_amo = model.class_cycles(OpClass::kAmo, false, false);
  const u64 c_jump = model.class_cycles(OpClass::kJump, true, false);
  const u64 c_branch_fall = model.class_cycles(OpClass::kBranch, false, false);
  const u64 c_branch_taken = model.class_cycles(OpClass::kBranch, true, false);
  const u64 c_sys_fall = model.class_cycles(OpClass::kSystem, false, false);
  const u64 c_sys_taken = model.class_cycles(OpClass::kSystem, true, false);
  const u64 c_mem[4] = {
      model.class_cycles(OpClass::kLoad, false, false),
      model.class_cycles(OpClass::kStore, false, false),
      model.class_cycles(OpClass::kLoad, false, true),
      model.class_cycles(OpClass::kStore, false, true),
  };
  const bool icache_on = icache.enabled();
  const bool bpred_on = params.branch_predictor;

  for (const DecodedTrace::Compact& event : trace.stream()) {
    switch (static_cast<Tag>(event.tag)) {
      case Tag::kBlock:
      case Tag::kBlockAt:
        ++out.blocks;
        if (icache_on && icache.probe(event.pc, params)) {
          out.cycles += params.icache_miss_cycles;
        }
        break;
      case Tag::kRun4:
      case Tag::kRun2:
        out.instructions += event.count;
        out.cycles += c_arith * event.count;
        if constexpr (kHooked) {
          for (u32 i = 0; i < event.count; ++i) {
            on_insn(event.pc + i * event.length);
          }
        }
        break;
      case Tag::kJump:
        ++out.instructions;
        out.cycles += c_jump;
        if constexpr (kHooked) on_insn(event.pc);
        break;
      case Tag::kBranchT:
      case Tag::kBranchN4:
      case Tag::kBranchN2: {
        const bool taken = static_cast<Tag>(event.tag) == Tag::kBranchT;
        bool penalize = taken;
        if (bpred_on) {
          penalize = bimodal.mispredict(event.pc, taken);
          if (penalize) ++out.mispredicts;
        }
        ++out.instructions;
        out.cycles += penalize ? c_branch_taken : c_branch_fall;
        if constexpr (kHooked) on_insn(event.pc);
        break;
      }
      case Tag::kLoad4: case Tag::kLoad2:
      case Tag::kStore4: case Tag::kStore2:
      case Tag::kLoadMmio4: case Tag::kLoadMmio2:
      case Tag::kStoreMmio4: case Tag::kStoreMmio2:
        ++out.instructions;
        out.cycles += c_mem[event.flags & 3];
        if constexpr (kHooked) on_insn(event.pc);
        break;
      case Tag::kAmoLoad:
      case Tag::kAmoStore:
      case Tag::kAmoRmw:
      case Tag::kAmoFail:
        ++out.instructions;
        out.cycles += c_amo;
        if constexpr (kHooked) on_insn(event.pc);
        break;
      case Tag::kMul4: case Tag::kMul2:
        ++out.instructions;
        out.cycles += c_mul;
        if constexpr (kHooked) on_insn(event.pc);
        break;
      case Tag::kDiv4: case Tag::kDiv2:
        ++out.instructions;
        out.cycles += c_div + model.divide_cycles(event.dividend);
        if constexpr (kHooked) on_insn(event.pc);
        break;
      case Tag::kCsr4: case Tag::kCsr2:
        ++out.instructions;
        out.cycles += c_csr;
        if constexpr (kHooked) on_insn(event.pc);
        break;
      case Tag::kSysExit:
        ++out.instructions;
        out.cycles += c_sys_fall;
        if constexpr (kHooked) on_insn(event.pc);
        break;
      case Tag::kMret:
      case Tag::kWfiHalt:
        ++out.instructions;
        out.cycles += c_sys_taken;
        if constexpr (kHooked) on_insn(event.pc);
        break;
      case Tag::kTrapInsn:
        // The trapped instruction issued (its class cost and the redirect
        // were charged by the live run), then trap entry cost on top when a
        // handler was installed — exactly Machine::take_trap's accounting.
        ++out.instructions;
        out.cycles += model.class_cycles(static_cast<OpClass>(event.op_class),
                                         true, false);
        if (event.flags & 4) out.cycles += params.trap_cycles;
        if constexpr (kHooked) on_insn(event.pc);
        break;
      case Tag::kTrapFetch:
        // Fetch/decode fault at a block head: no instruction executed, no
        // class cost — only trap entry if handled.
        if (event.flags & 4) out.cycles += params.trap_cycles;
        break;
      default:
        // decode() stores timing-relevant tags only.
        break;
    }
  }
  out.icache_misses = icache.misses();
  return out;
}

}  // namespace

Result<ReplayResult> replay(const DecodedTrace& trace,
                            const vp::TimingParams& params,
                            const InsnHook& on_insn) {
  const ReplayResult out = on_insn
                               ? replay_loop<true>(trace, params, on_insn)
                               : replay_loop<false>(trace, params, on_insn);
  if (out.instructions != trace.footer().instructions ||
      out.blocks != trace.footer().blocks) {
    return Error(
        ErrorCode::kStateError,
        format("replay walked %llu instructions / %llu blocks but the footer "
               "recorded %llu / %llu",
               static_cast<unsigned long long>(out.instructions),
               static_cast<unsigned long long>(out.blocks),
               static_cast<unsigned long long>(trace.footer().instructions),
               static_cast<unsigned long long>(trace.footer().blocks)));
  }
  return out;
}

Result<ReplayResult> replay(const Trace& trace, const vp::TimingParams& params,
                            const InsnHook& on_insn) {
  auto decoded = DecodedTrace::decode(trace);
  if (!decoded.ok()) return decoded.error();
  return replay(*decoded, params, on_insn);
}

Status self_check(const Trace& trace) {
  auto result = replay(trace, trace.header().recorded);
  if (!result.ok()) return result.error();
  if (result->cycles != trace.footer().recorded_cycles) {
    return Error(
        ErrorCode::kStateError,
        format("self check failed: replaying the recording configuration "
               "gives %llu cycles, the live run counted %llu",
               static_cast<unsigned long long>(result->cycles),
               static_cast<unsigned long long>(
                   trace.footer().recorded_cycles)));
  }
  return Status();
}

std::vector<NamedTiming> timing_matrix() {
  struct Feature {
    const char* name;
    void (*apply)(vp::TimingParams&);
  };
  static constexpr Feature kFeatures[] = {
      {"icache", [](vp::TimingParams& p) { p.icache_miss_cycles = 12; }},
      {"bpred", [](vp::TimingParams& p) { p.branch_predictor = true; }},
      {"slowram", [](vp::TimingParams& p) { p.ram_access_cycles = 3; }},
      {"deeppipe", [](vp::TimingParams& p) { p.redirect_penalty = 4; }},
      {"slowmath",
       [](vp::TimingParams& p) {
         p.mul_cycles = 4;
         p.div_min_cycles = 4;
         p.div_max_cycles = 65;
       }},
  };
  constexpr unsigned kFeatureCount = 5;

  std::vector<NamedTiming> matrix;
  matrix.reserve(1u << kFeatureCount);
  for (unsigned mask = 0; mask < (1u << kFeatureCount); ++mask) {
    NamedTiming config;
    for (unsigned bit = 0; bit < kFeatureCount; ++bit) {
      if ((mask & (1u << bit)) == 0) continue;
      if (!config.name.empty()) config.name += '+';
      config.name += kFeatures[bit].name;
      kFeatures[bit].apply(config.params);
    }
    if (config.name.empty()) config.name = "base";
    matrix.push_back(std::move(config));
  }
  return matrix;
}

Result<std::vector<MatrixRow>> replay_matrix(
    const Trace& trace, const std::vector<NamedTiming>& configs,
    unsigned jobs) {
  S4E_TRY_STATUS(check_replayable(trace, 0));
  auto decoded = DecodedTrace::decode(trace);
  if (!decoded.ok()) return decoded.error();

  std::vector<MatrixRow> rows(configs.size());
  std::vector<Status> failures(configs.size());
  exec::parallel_for(jobs, configs.size(), [&](unsigned, std::size_t i) {
    rows[i].name = configs[i].name;
    rows[i].params = configs[i].params;
    auto result = replay(*decoded, configs[i].params);
    if (result.ok()) {
      rows[i].result = *result;
    } else {
      failures[i] = result.error();
    }
  });
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (!failures[i].ok()) {
      return Error(failures[i].error().code(),
                   format("config '%s': %s", configs[i].name.c_str(),
                          failures[i].error().message().c_str()));
    }
  }
  return rows;
}

}  // namespace s4e::trace
