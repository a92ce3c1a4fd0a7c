// Campaign fleet orchestrator (the engine behind s4e-campaignd): shards a
// fault or mutation campaign across worker *processes*, streams their
// JSONL results back over stdout pipes, and merges them with the same
// slot-array discipline the in-process campaign driver uses.
//
// Determinism contract: every worker regenerates the identical full
// fault/mutant enumeration (same seed, same RNG walk) and executes only
// its contiguous index range; the orchestrator places each record into a
// slot array indexed by the *global* mutant index and folds the slots in
// order. The final report is therefore byte-identical to the serial tool's
// stdout — for any worker count, any shard count, any arrival order, and
// across crash/resume cycles.
//
// Fault tolerance: a worker that dies mid-shard is detected by stream EOF
// before its `done` line (or by a non-zero exit); its partial records are
// discarded and the shard is requeued, up to `max_retries` respawns per
// shard. Completed shards are committed to an append-only checkpoint
// journal (fsync before acknowledge), so a daemon crash loses at most the
// in-flight shards and a restart resumes from the committed set.
#pragma once

#include <functional>
#include <string>

#include "common/status.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/records.hpp"

namespace s4e::fleet {

struct FleetOptions {
  std::string elf_path;
  Mode mode = Mode::kFault;
  // Worker binary (s4e-faultsim for kFault, s4e-mutate for kMutation).
  std::string worker_path;
  unsigned workers = 2;   // concurrent worker processes
  unsigned shards = 0;    // shard count; 0 = 4x workers (restart granularity)
  unsigned worker_jobs = 1;  // threads inside each worker process

  // Campaign shape, forwarded to the workers (and folded into the
  // fingerprint). `mutants`/`seed` drive the fault engine, `max_mutants`
  // caps the mutation enumeration.
  u64 seed = 1;
  unsigned mutants = 200;
  unsigned max_mutants = 0;

  // Checkpoint journal path; empty disables checkpointing (and resume).
  std::string checkpoint_path;
  // Live status endpoint: -1 = off, 0 = ephemeral port, else fixed port.
  // Each connection receives one JSON metrics line and is closed.
  int status_port = -1;
  // Invoked once with the bound status port (tests grab ephemeral ports).
  std::function<void(int)> on_status_port;
  // Respawn budget per shard before the fleet gives up.
  unsigned max_retries = 3;

  // --- Deterministic failure-injection hooks (tests only).
  // SIGKILL the first worker process after it has streamed N records.
  unsigned test_kill_after_records = 0;
  // Abort the daemon (error return, checkpoint intact) after N commits.
  unsigned test_fail_after_commits = 0;
};

struct FleetStats {
  u64 records = 0;             // records aggregated this run (live ones)
  unsigned shards_total = 0;
  unsigned shards_done = 0;       // committed live by this run
  unsigned shards_recovered = 0;  // taken from the checkpoint, not re-run
  unsigned workers_spawned = 0;
  unsigned worker_restarts = 0;
  bool checkpoint_replaced = false;  // stale journal was discarded
  int status_port = -1;
};

struct FleetReport {
  // The campaign report, byte-identical to the serial tool's stdout.
  std::string report;
  FleetStats stats;
  std::string metrics_json;  // the status endpoint's final snapshot
};

Result<FleetReport> run_fleet(const FleetOptions& options);

}  // namespace s4e::fleet
