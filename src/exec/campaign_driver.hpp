// The one campaign driver behind fault-effect analysis (fault::Campaign)
// and binary mutation testing (mutation::MutationCampaign). Both are the
// same loop: a golden run, a list of mutants, one VP run per mutant on a
// worker lane's machine, a classification and a report. The driver owns
// everything but the engine-specific parts:
//
//   - shard validation and the shard's global index range;
//   - static triage: one decision per mutant, pruned-result synthesis
//     (kOn) and the static/dynamic cross-check (kVerify);
//   - the hang budget, CampaignTelemetry, CampaignProgress and the
//     flight-recorder post-mortem;
//   - one vp::WorkerVm per lane (restore or rebuild policy) and the
//     in-order fold of the result slots into the report.
//
// An Engine supplies the rest as plain (inlined) members:
//
//   using Report;   // campaign report: shard_begin, pruned_count,
//                   // snapshot_stats, metrics_json, add(Mutant)
//   using Mutant;   // per-mutant result: exit_code, instructions, pruned,
//                   // prune_reason, post_mortem
//   static constexpr unsigned kProvenBucket;   // what triage proves
//   Result<Report> start();     // golden run + enumerate every mutant
//   std::size_t size() const;   // mutants in the full campaign
//   u64 golden_instructions() const;
//   const assembler::Program& program() const;
//   std::vector<std::string> metric_buckets() const;  // telemetry names
//   dataflow::TriageDecision triage(const dataflow::StaticTriage&,
//                                   std::size_t i) const;
//   Mutant proven(std::size_t i) const;  // mutant i as triage decides it
//   template <class Run>                 // inject mutant i into `machine`,
//   Result<Mutant> execute(vp::Machine& machine, std::size_t i,
//                          Run&& run) const;  // run(machine), classify
//   static unsigned bucket(const Mutant&);    // outcome / verdict index
//   static bool failed(const Mutant&);        // crash or hang
//   std::string describe(const Mutant&) const;      // for verify errors
//   static std::string bucket_name(const Mutant&);  // for verify errors
//
// Determinism: every job writes only its own slot and the report folds the
// slots in submission order after the barrier, so the report is
// bit-identical for any `jobs` count and either machine policy.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/strings.hpp"
#include "dataflow/triage.hpp"
#include "exec/parallel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "vp/machine.hpp"
#include "vp/runner.hpp"

namespace s4e::exec {

// Live counters for an in-flight campaign, readable from any thread: lanes
// bump atomic counters (jobs done + an 8-bucket outcome histogram), and a
// monitor thread (--progress) takes consistent-enough snapshots without
// perturbing them.
class CampaignProgress {
 public:
  static constexpr unsigned kBuckets = 8;

  struct Snapshot {
    u64 total = 0;
    u64 completed = 0;
    u64 buckets[kBuckets] = {};

    double fraction() const noexcept {
      return total == 0 ? 0.0
                        : static_cast<double>(completed) /
                              static_cast<double>(total);
    }
  };

  void begin(u64 total) noexcept {
    total_.store(total, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  }

  // Called by lanes once per finished job; `bucket` indexes the caller's
  // outcome histogram (fault Outcome / mutation Verdict).
  void record(unsigned bucket) noexcept {
    if (bucket < kBuckets) {
      buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_release);
  }

  Snapshot snapshot() const noexcept {
    Snapshot snap;
    snap.completed = completed_.load(std::memory_order_acquire);
    snap.total = total_.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < kBuckets; ++i) {
      snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return snap;
  }

 private:
  std::atomic<u64> total_{0};
  std::atomic<u64> completed_{0};
  std::atomic<u64> buckets_[kBuckets]{};
};

// Knobs both campaign engines share (fault::CampaignConfig and
// mutation::MutationConfig inherit them).
struct CampaignOptions {
  // Hang budget as a multiple of the golden run's instruction count.
  u64 hang_budget_factor = 8;
  // Worker threads for the mutant runs (each worker owns a private
  // vp::Machine, so results are bit-identical to the serial run). 0 =
  // hardware_concurrency, 1 = run inline on the calling thread.
  unsigned jobs = 0;
  // Reuse one long-lived machine per worker across its mutants: the loaded
  // state is snapshotted once and restored (dirty pages only, warm TB
  // cache) before every run. Off = build and load a fresh machine per
  // mutant (vp::WorkerVm::Policy::kRebuild, the restore layer's oracle);
  // results are bit-identical either way.
  bool reuse_machines = true;
  // --- Observability (src/obs). Neither switch changes any mutant result
  // or the campaign's stdout report — runs are only observed.
  // Collect campaign telemetry into the report's metrics_json.
  bool collect_metrics = false;
  // Attach a flight recorder to every mutant run and keep a post-mortem of
  // the last `post_mortem_events` events for every crashed or hung mutant.
  bool post_mortem = false;
  unsigned post_mortem_events = 16;
  // Static campaign triage (dataflow::StaticTriage). kOn skips mutants whose
  // result is statically provable (they report the proven outcome with
  // zero simulated instructions); kVerify runs them anyway and errors on
  // any mismatch between the static verdict and the dynamic result.
  dataflow::TriageMode triage = dataflow::TriageMode::kOff;
  // Shard selection for multi-process fleets (s4e-campaignd): the full
  // mutant list is still generated deterministically (identical for every
  // shard), then only the contiguous index range
  // [floor(i*M/N), floor((i+1)*M/N)) is simulated, where M is the full
  // list size, i = shard_index and N = shard_count. The union of all N
  // shards' results is exactly the serial campaign; shard_count == 1 is
  // the whole campaign.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  vp::MachineConfig machine;
};

template <class Engine>
Result<typename Engine::Report> run_campaign(Engine& engine,
                                             const CampaignOptions& options,
                                             CampaignProgress& progress) {
  using Mutant = typename Engine::Mutant;
  if (options.shard_count < 1 || options.shard_index >= options.shard_count) {
    return Error(ErrorCode::kInvalidArgument,
                 format("invalid shard %u/%u", options.shard_index,
                        options.shard_count));
  }
  S4E_TRY(report, engine.start());

  // Static triage decides every mutant of the *full* list up front;
  // enumeration is unaffected, so the non-pruned subset is identical to a
  // triage-off run.
  const u64 total = engine.size();
  std::vector<dataflow::TriageDecision> decisions(total);
  if (options.triage != dataflow::TriageMode::kOff) {
    dataflow::TriageOptions triage_options;
    triage_options.stack_top =
        options.machine.ram_base + options.machine.ram_size;
    S4E_TRY(triage,
            dataflow::StaticTriage::build(engine.program(), triage_options));
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      decisions[i] = engine.triage(triage, i);
    }
  }
  const bool skip_pruned = options.triage == dataflow::TriageMode::kOn;

  vp::MachineConfig mutant_config = options.machine;
  mutant_config.max_instructions =
      vp::hang_budget(engine.golden_instructions(),
                      options.hang_budget_factor,
                      options.machine.max_instructions);

  // Only the shard's contiguous global index range [begin, end) runs here.
  const u64 begin = total * options.shard_index / options.shard_count;
  const u64 end = total * (options.shard_index + 1) / options.shard_count;
  const std::size_t count = static_cast<std::size_t>(end - begin);
  report.shard_begin = begin;

  std::vector<Mutant> slots(count);
  std::vector<std::optional<Error>> errors(count);
  progress.begin(count);
  const unsigned lanes = resolve_jobs(options.jobs);
  // Telemetry shards are per worker lane (lock-free: each lane writes only
  // its own shard) and fold deterministically after the barrier.
  std::unique_ptr<obs::CampaignTelemetry> telemetry;
  if (options.collect_metrics) {
    telemetry = std::make_unique<obs::CampaignTelemetry>(
        engine.metric_buckets(), lanes);
    telemetry->set_campaign(count, engine.golden_instructions(),
                            mutant_config.max_instructions);
  }

  // One machine per lane, built and loaded on the lane's first simulated
  // mutant; the policy decides how prepare() resets it between mutants.
  const vp::WorkerVm::Policy policy = options.reuse_machines
                                          ? vp::WorkerVm::Policy::kRestore
                                          : vp::WorkerVm::Policy::kRebuild;
  std::vector<std::unique_ptr<vp::WorkerVm>> vms(lanes);
  // Mutant `global` on lane `worker`'s machine, or its synthesized result
  // when triage decided it statically.
  const auto run_one = [&](unsigned worker,
                           std::size_t global) -> Result<Mutant> {
    const dataflow::TriageDecision& decision = decisions[global];
    if (skip_pruned && decision.pruned) {
      Mutant mutant = engine.proven(global);  // no VM needed
      mutant.pruned = true;
      mutant.prune_reason = decision.reason;
      return mutant;
    }
    if (vms[worker] == nullptr) {
      S4E_TRY(vm, vp::WorkerVm::create(mutant_config, engine.program(),
                                       policy));
      vms[worker] = std::move(vm);
    }
    // The recorder is passive (it only reads the event structs), so
    // results are bit-identical with and without it. It attaches after the
    // engine's injection, just before the run.
    std::unique_ptr<obs::FlightRecorderPlugin> recorder;
    auto mutant = engine.execute(
        vms[worker]->prepare(), global, [&](vp::Machine& machine) {
          if (options.post_mortem) {
            recorder = std::make_unique<obs::FlightRecorderPlugin>(
                options.post_mortem_events);
            recorder->attach(machine.vm_handle());
          }
          return machine.run();
        });
    if (!mutant.ok()) return mutant;
    if (recorder != nullptr && Engine::failed(*mutant)) {
      mutant->post_mortem = recorder->post_mortem(options.post_mortem_events);
    }
    if (!decision.pruned) return mutant;
    mutant->pruned = true;
    mutant->prune_reason = decision.reason;
    if (options.triage == dataflow::TriageMode::kVerify &&
        Engine::bucket(*mutant) != Engine::kProvenBucket) {
      return Error(
          ErrorCode::kAnalysisError,
          format("triage verify mismatch: %s statically pruned as '%s' but "
                 "dynamically %s",
                 engine.describe(*mutant).c_str(),
                 mutant->prune_reason.c_str(),
                 Engine::bucket_name(*mutant).c_str()));
    }
    return mutant;
  };

  parallel_for(options.jobs, count, [&](unsigned worker, std::size_t index) {
    auto mutant = run_one(worker, static_cast<std::size_t>(begin) + index);
    if (!mutant.ok()) {
      errors[index] = mutant.error();
      progress.record(CampaignProgress::kBuckets);  // count done only
      return;
    }
    const unsigned bucket = Engine::bucket(*mutant);
    // Statically decided mutants were never simulated; they count toward
    // the outcome histogram but not the run telemetry.
    if (telemetry != nullptr && !(skip_pruned && mutant->pruned)) {
      telemetry->record_run(worker, bucket, mutant->instructions,
                            !mutant->post_mortem.empty());
    }
    slots[index] = std::move(*mutant);
    progress.record(bucket);
  });
  for (const auto& vm : vms) {
    if (vm != nullptr) report.snapshot_stats += vm->stats();
  }

  for (std::size_t index = 0; index < slots.size(); ++index) {
    if (errors[index].has_value()) return *errors[index];
    report.add(std::move(slots[index]));
  }
  if (telemetry != nullptr) {
    if (options.triage != dataflow::TriageMode::kOff) {
      telemetry->set_pruned(report.pruned_count);
    }
    report.metrics_json = telemetry->to_json();
  }
  return std::move(report);
}

}  // namespace s4e::exec
