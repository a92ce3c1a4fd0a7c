// Fan-out tests: exec::resolve_jobs' clamping, exec::parallel_for's index
// and lane contract (the CampaignExecutor suites: every slot once, inline
// lane 0 at one job, lane affinity, exception propagation), the campaign
// progress counters, and the determinism guarantee the campaign engines
// rely on (jobs=1 output == jobs=8 output, bit for bit).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "asm/assembler.hpp"
#include "exec/campaign_driver.hpp"
#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "mutation/mutation.hpp"
#include "obs/metrics.hpp"

namespace s4e::exec {
namespace {

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(3), 3u);
  EXPECT_GE(resolve_jobs(0), 1u);  // 0 = hardware concurrency
  // Absurd requests (e.g. a negative count cast to unsigned) are clamped
  // instead of aborting in std::thread.
  EXPECT_EQ(resolve_jobs(0xfffffffdu), 4096u);
}

// The CampaignExecutor cases pin the index contract independent of lanes,
// the CampaignExecutorAffine cases below pin the lane contract.
TEST(CampaignExecutor, FillsEverySlotExactlyOnce) {
  EXPECT_EQ(resolve_jobs(8), 8u);

  std::vector<std::atomic<int>> slots(500);
  parallel_for(8, slots.size(), [&](unsigned, std::size_t i) { ++slots[i]; });
  for (const auto& slot : slots) {
    EXPECT_EQ(slot.load(), 1);
  }
  // Fewer jobs than lanes: only min(jobs, count) lanes start, and each
  // index still runs exactly once.
  std::vector<std::atomic<int>> few(3);
  std::atomic<bool> lane_in_range{true};
  parallel_for(8, few.size(), [&](unsigned lane, std::size_t i) {
    if (lane >= few.size()) lane_in_range.store(false);
    ++few[i];
  });
  EXPECT_TRUE(lane_in_range.load());
  for (const auto& slot : few) {
    EXPECT_EQ(slot.load(), 1);
  }
  // An empty campaign runs nothing.
  bool ran = false;
  parallel_for(8, 0, [&](unsigned, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(CampaignExecutor, SingleJobRunsInlineInSubmissionOrder) {
  // Repeated runs at jobs=1 are each inline and in submission order,
  // continuing where the caller's state left off.
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  for (int round = 0; round < 2; ++round) {
    parallel_for(1, 10, [&](unsigned, std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
  }
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % 10);
  }
}

TEST(CampaignExecutor, PropagatesJobException) {
  // Inline at jobs=1 the exception leaves like a serial loop's: at the
  // throwing index, with the later indices never run.
  std::vector<std::size_t> ran;
  EXPECT_THROW(parallel_for(1, 20,
                            [&](unsigned, std::size_t i) {
                              ran.push_back(i);
                              if (i == 7) throw std::runtime_error("job 7");
                            }),
               std::runtime_error);
  ASSERT_EQ(ran.size(), 8u);
  EXPECT_EQ(ran.back(), 7u);
}

TEST(CampaignExecutorAffine, FillsEverySlotOnceWithValidLanes) {
  std::vector<std::atomic<int>> slots(300);
  std::atomic<bool> lane_in_range{true};
  parallel_for(4, slots.size(), [&](unsigned lane, std::size_t i) {
    if (lane >= 4) lane_in_range.store(false);
    ++slots[i];
  });
  EXPECT_TRUE(lane_in_range.load());
  for (const auto& slot : slots) {
    EXPECT_EQ(slot.load(), 1);
  }
}

TEST(CampaignExecutorAffine, MetricShardsAggregateDeterministically) {
  // The obs::MetricsRegistry concurrency model under real threads: every
  // lane writes only its own shard (plain stores, no atomics), the join
  // at the end of parallel_for orders the writes before aggregation, and
  // the fold is partition-invariant — so a 4-lane run must aggregate to
  // exactly the serial answer. Run under -DS4E_SANITIZE=thread this is the
  // race check for the lock-free-by-partitioning claim.
  auto aggregate_with = [](unsigned jobs) {
    obs::MetricsRegistry registry;
    const auto runs = registry.add_counter("runs");
    const auto sum = registry.add_counter("sum");
    const auto peak = registry.add_gauge("peak");
    const auto hist = registry.add_histogram("value", {100, 1000});
    registry.open_shards(resolve_jobs(jobs));
    parallel_for(jobs, 500, [&](unsigned lane, std::size_t i) {
      auto& shard = registry.shard(lane);
      const u64 value = static_cast<u64>(i) * 7 % 1500;
      shard.add(runs, 1);
      shard.add(sum, value);
      shard.set(peak, value);
      shard.observe(hist, value);
    });
    return registry.to_json();
  };
  const std::string serial = aggregate_with(1);
  EXPECT_EQ(serial, aggregate_with(2));
  EXPECT_EQ(serial, aggregate_with(4));
}

TEST(CampaignExecutorAffine, SingleJobRunsInlineOnLaneZero) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(1, 10, [&](unsigned lane, std::size_t i) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(CampaignExecutorAffine, EachLaneKeepsItsOwnThread) {
  // The point of lane affinity: lane k's jobs all run on one thread, so a
  // per-lane vp::Machine is never touched concurrently.
  std::vector<std::thread::id> lane_thread(3);
  std::vector<std::atomic<int>> lane_switches(3);
  parallel_for(3, 200, [&](unsigned lane, std::size_t) {
    const auto self = std::this_thread::get_id();
    if (lane_thread[lane] == std::thread::id{}) {
      lane_thread[lane] = self;
    } else if (lane_thread[lane] != self) {
      ++lane_switches[lane];
    }
  });
  for (const auto& switches : lane_switches) {
    EXPECT_EQ(switches.load(), 0);
  }
}

TEST(CampaignExecutorAffine, PropagatesJobException) {
  // The first job exception is rethrown after every lane drained; the lane
  // that threw stops claiming, and the remaining lanes finish every other
  // index exactly once (campaign slots are filled or failed, never
  // silently skipped).
  std::vector<std::atomic<int>> slots(20);
  EXPECT_THROW(parallel_for(4, slots.size(),
                            [&](unsigned, std::size_t i) {
                              ++slots[i];
                              if (i == 7) throw std::runtime_error("job 7");
                            }),
               std::runtime_error);
  for (const auto& slot : slots) {
    EXPECT_EQ(slot.load(), 1);
  }
}

TEST(CampaignProgress, CountsAndSnapshots) {
  CampaignProgress progress;
  progress.begin(10);
  auto empty = progress.snapshot();
  EXPECT_EQ(empty.total, 10u);
  EXPECT_EQ(empty.completed, 0u);
  EXPECT_DOUBLE_EQ(empty.fraction(), 0.0);

  progress.record(0);
  progress.record(0);
  progress.record(3);
  progress.record(CampaignProgress::kBuckets);  // out-of-range: done only
  auto snap = progress.snapshot();
  EXPECT_EQ(snap.completed, 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_DOUBLE_EQ(snap.fraction(), 0.4);

  progress.begin(5);  // reusable across campaigns
  EXPECT_EQ(progress.snapshot().completed, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: parallel campaigns must be bit-identical to serial ones.

const char* kChecksumSource = R"(
_start:
    la t0, data
    li t1, 8
    li a0, 0
loop:
    lw t2, 0(t0)
    add a0, a0, t2
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, loop
    li a7, 93
    ecall
.data
data:
    .word 1, 2, 3, 4, 5, 6, 7, 8
)";

assembler::Program build_checksum() {
  auto program = assembler::assemble(kChecksumSource);
  EXPECT_TRUE(program.ok());
  return *program;
}

TEST(Determinism, FaultCampaignSerialEqualsParallel) {
  auto program = build_checksum();
  fault::CampaignConfig config;
  config.seed = 42;
  config.mutant_count = 80;

  config.jobs = 1;
  fault::Campaign serial(program, config);
  auto serial_result = serial.run();
  ASSERT_TRUE(serial_result.ok()) << serial_result.error().to_string();

  config.jobs = 8;
  fault::Campaign parallel(program, config);
  auto parallel_result = parallel.run();
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.error().to_string();

  EXPECT_EQ(serial_result->golden_exit_code,
            parallel_result->golden_exit_code);
  EXPECT_EQ(serial_result->golden_instructions,
            parallel_result->golden_instructions);
  EXPECT_EQ(serial_result->golden_memory_hash,
            parallel_result->golden_memory_hash);
  // simulated_instructions is a float sum: identical aggregation order
  // makes even that bit-exact.
  EXPECT_EQ(serial_result->simulated_instructions,
            parallel_result->simulated_instructions);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(serial_result->outcome_counts[i],
              parallel_result->outcome_counts[i]);
  }
  ASSERT_EQ(serial_result->mutants.size(), parallel_result->mutants.size());
  for (std::size_t i = 0; i < serial_result->mutants.size(); ++i) {
    const auto& a = serial_result->mutants[i];
    const auto& b = parallel_result->mutants[i];
    EXPECT_EQ(a.outcome, b.outcome) << "mutant " << i;
    EXPECT_EQ(a.exit_code, b.exit_code) << "mutant " << i;
    EXPECT_EQ(a.instructions, b.instructions) << "mutant " << i;
    EXPECT_EQ(a.spec.to_string(), b.spec.to_string()) << "mutant " << i;
  }
  // The full report strings must match byte for byte.
  EXPECT_EQ(serial_result->to_string(), parallel_result->to_string());
}

TEST(Determinism, MutationCampaignSerialEqualsParallel) {
  auto program = build_checksum();
  mutation::MutationConfig config;

  config.jobs = 1;
  mutation::MutationCampaign serial(program, config);
  auto serial_score = serial.run();
  ASSERT_TRUE(serial_score.ok()) << serial_score.error().to_string();

  config.jobs = 8;
  mutation::MutationCampaign parallel(program, config);
  auto parallel_score = parallel.run();
  ASSERT_TRUE(parallel_score.ok()) << parallel_score.error().to_string();

  ASSERT_EQ(serial_score->results.size(), parallel_score->results.size());
  EXPECT_GT(serial_score->results.size(), 0u);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(serial_score->verdict_counts[i],
              parallel_score->verdict_counts[i]);
  }
  for (std::size_t i = 0; i < serial_score->results.size(); ++i) {
    const auto& a = serial_score->results[i];
    const auto& b = parallel_score->results[i];
    EXPECT_EQ(a.verdict, b.verdict) << "mutant " << i;
    EXPECT_EQ(a.exit_code, b.exit_code) << "mutant " << i;
    EXPECT_EQ(a.mutant.address, b.mutant.address) << "mutant " << i;
    EXPECT_EQ(a.mutant.mutated, b.mutant.mutated) << "mutant " << i;
  }
  EXPECT_EQ(serial_score->to_string(), parallel_score->to_string());
}

// Per-worker machine reuse under threads: with --jobs 2 each worker lane
// owns a long-lived vp::Machine that is snapshot-restored between mutants.
// Run under tsan (ctest -L tsan) this is the race check for that path; the
// results must also stay bit-identical to the fresh-machine path.
TEST(Determinism, FaultCampaignMachineReuseAcrossTwoWorkers) {
  auto program = build_checksum();
  fault::CampaignConfig config;
  config.seed = 42;
  config.mutant_count = 80;
  config.jobs = 2;

  config.reuse_machines = false;
  fault::Campaign fresh(program, config);
  auto fresh_result = fresh.run();
  ASSERT_TRUE(fresh_result.ok()) << fresh_result.error().to_string();

  config.reuse_machines = true;
  fault::Campaign reused(program, config);
  auto reused_result = reused.run();
  ASSERT_TRUE(reused_result.ok()) << reused_result.error().to_string();

  EXPECT_EQ(fresh_result->to_string(), reused_result->to_string());
  ASSERT_EQ(fresh_result->mutants.size(), reused_result->mutants.size());
  for (std::size_t i = 0; i < fresh_result->mutants.size(); ++i) {
    const auto& a = fresh_result->mutants[i];
    const auto& b = reused_result->mutants[i];
    EXPECT_EQ(a.outcome, b.outcome) << "mutant " << i;
    EXPECT_EQ(a.exit_code, b.exit_code) << "mutant " << i;
    EXPECT_EQ(a.instructions, b.instructions) << "mutant " << i;
  }
  // Every mutant ran on a restored machine; the stats aggregate over the
  // (at most 2) worker lanes that actually claimed work.
  EXPECT_EQ(reused_result->snapshot_stats.restores, 80u);
  EXPECT_GE(reused_result->snapshot_stats.snapshots, 1u);
  EXPECT_LE(reused_result->snapshot_stats.snapshots, 2u);
}

TEST(Determinism, MutationCampaignMachineReuseAcrossTwoWorkers) {
  auto program = build_checksum();
  mutation::MutationConfig config;
  config.jobs = 2;

  config.reuse_machines = false;
  mutation::MutationCampaign fresh(program, config);
  auto fresh_score = fresh.run();
  ASSERT_TRUE(fresh_score.ok()) << fresh_score.error().to_string();

  config.reuse_machines = true;
  mutation::MutationCampaign reused(program, config);
  auto reused_score = reused.run();
  ASSERT_TRUE(reused_score.ok()) << reused_score.error().to_string();

  EXPECT_EQ(fresh_score->to_string(), reused_score->to_string());
  ASSERT_EQ(fresh_score->results.size(), reused_score->results.size());
  EXPECT_GT(reused_score->results.size(), 0u);
  for (std::size_t i = 0; i < fresh_score->results.size(); ++i) {
    const auto& a = fresh_score->results[i];
    const auto& b = reused_score->results[i];
    EXPECT_EQ(a.verdict, b.verdict) << "mutant " << i;
    EXPECT_EQ(a.exit_code, b.exit_code) << "mutant " << i;
  }
  EXPECT_EQ(reused_score->snapshot_stats.restores,
            reused_score->results.size());
}

TEST(Determinism, ProgressReachesTotalAfterParallelRun) {
  auto program = build_checksum();
  fault::CampaignConfig config;
  config.seed = 7;
  config.mutant_count = 40;
  config.jobs = 4;
  fault::Campaign campaign(program, config);
  ASSERT_TRUE(campaign.run().ok());
  const auto snap = campaign.progress().snapshot();
  EXPECT_EQ(snap.total, 40u);
  EXPECT_EQ(snap.completed, 40u);
  u64 histogram_sum = 0;
  for (u64 bucket : snap.buckets) histogram_sum += bucket;
  EXPECT_EQ(histogram_sum, 40u);
  EXPECT_DOUBLE_EQ(snap.fraction(), 1.0);
}

}  // namespace
}  // namespace s4e::exec
