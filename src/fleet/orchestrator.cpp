#include "fleet/orchestrator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/strings.hpp"
#include "debug/tcp.hpp"
#include "fleet/worker.hpp"
#include "obs/metrics.hpp"

namespace s4e::fleet {

namespace {

// Poll heartbeat: bounds the latency of child reaping and the status
// endpoint; all data paths are event-driven.
constexpr int kPollIntervalMs = 50;

// One worker process driving one shard.
struct WorkerProc {
  pid_t pid = -1;
  unsigned shard = 0;
  unsigned spawn_index = 0;
  int fd = -1;  // read end of the worker's stdout pipe
  std::string buffer;
  bool meta_seen = false;
  bool done_seen = false;
  bool stream_closed = false;
  bool exited = false;
  int wait_status = 0;
  CompletedShard block;
};

// Kills and reaps every still-running worker on scope exit, so error
// returns never leak children.
struct ReapGuard {
  std::vector<WorkerProc>* workers;
  ~ReapGuard() {
    for (WorkerProc& worker : *workers) {
      if (worker.pid < 0 || worker.exited) continue;
      ::kill(worker.pid, SIGKILL);
      ::waitpid(worker.pid, nullptr, 0);
      worker.exited = true;
    }
  }
};

std::vector<std::string> worker_argv(const FleetOptions& options,
                                     unsigned shard, unsigned shards,
                                     unsigned stall_after) {
  std::vector<std::string> argv;
  argv.push_back(options.worker_path);
  argv.push_back(options.elf_path);
  argv.push_back("--shard");
  argv.push_back(format("%u/%u", shard, shards));
  argv.push_back("--emit-jsonl");
  argv.push_back("--jobs");
  argv.push_back(format("%u", options.worker_jobs));
  if (options.mode == Mode::kFault) {
    argv.push_back("--seed");
    argv.push_back(format("%llu", static_cast<unsigned long long>(
                                      options.seed)));
    argv.push_back("--mutants");
    argv.push_back(format("%u", options.mutants));
  } else {
    argv.push_back("--max");
    argv.push_back(format("%u", options.max_mutants));
  }
  if (stall_after != 0) {
    argv.push_back("--test-stall-after");
    argv.push_back(format("%u", stall_after));
  }
  return argv;
}

// fork/exec one worker; its stdout becomes the stream and `out_fd`
// receives the pipe's read end.
Result<pid_t> spawn_worker(const FleetOptions& options, unsigned shard,
                           unsigned shards, unsigned stall_after,
                           int& out_fd) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    return Error(ErrorCode::kIoError,
                 format("fleet: pipe failed: %s", std::strerror(errno)));
  }

  const auto argv_strings = worker_argv(options, shard, shards, stall_after);
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const std::string& arg : argv_strings) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Error(ErrorCode::kIoError,
                 format("fleet: fork failed: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "fleet: exec %s failed: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd = fds[0];
  return pid;
}

// Campaign-wide facts learned from the first meta line (or the recovered
// checkpoint) and enforced on every subsequent one.
struct GoldenRef {
  bool known = false;
  u64 total = 0;
  int exit_code = 0;
  u64 instructions = 0;
};

Status note_golden(GoldenRef& golden, u64 total, int exit_code,
                   u64 instructions) {
  if (!golden.known) {
    golden.known = true;
    golden.total = total;
    golden.exit_code = exit_code;
    golden.instructions = instructions;
    return Status();
  }
  if (golden.total != total || golden.exit_code != exit_code ||
      golden.instructions != instructions) {
    return Error(
        ErrorCode::kStateError,
        format("fleet: workers disagree on the campaign (total %llu vs "
               "%llu, golden exit %d vs %d) — mixed binaries or a "
               "non-deterministic workload",
               static_cast<unsigned long long>(golden.total),
               static_cast<unsigned long long>(total), golden.exit_code,
               exit_code));
  }
  return Status();
}

u64 shard_bound(u64 total, unsigned index, unsigned shards) {
  return total * index / shards;
}

// Consume complete lines from `buffer`, feeding them to `worker`'s block.
Status consume_lines(WorkerProc& worker, Mode mode, u64 fingerprint,
                     unsigned shards, GoldenRef& golden, u64& records_seen) {
  std::size_t newline;
  while ((newline = worker.buffer.find('\n')) != std::string::npos) {
    const std::string line = worker.buffer.substr(0, newline);
    worker.buffer.erase(0, newline + 1);
    if (line.empty()) continue;
    S4E_TRY(parsed, parse_line(line, mode));
    if (parsed.meta.has_value()) {
      const MetaLine& meta = *parsed.meta;
      if (worker.meta_seen) {
        return Error(ErrorCode::kStateError,
                     format("fleet: shard %u sent two meta lines",
                            worker.shard));
      }
      if (meta.shard != worker.shard || meta.shards != shards) {
        return Error(ErrorCode::kStateError,
                     format("fleet: expected shard %u/%u, worker announced "
                            "%u/%u",
                            worker.shard, shards, meta.shard, meta.shards));
      }
      if (meta.fingerprint != fingerprint) {
        return Error(ErrorCode::kStateError,
                     format("fleet: shard %u fingerprint mismatch (worker "
                            "sees a different campaign — wrong binary or "
                            "ELF?)",
                            worker.shard));
      }
      S4E_TRY_STATUS(note_golden(golden, meta.total, meta.golden_exit,
                                 meta.golden_instructions));
      if (meta.begin != shard_bound(golden.total, meta.shard, shards) ||
          meta.end != shard_bound(golden.total, meta.shard + 1, shards)) {
        return Error(ErrorCode::kStateError,
                     format("fleet: shard %u announced range [%llu,%llu) "
                            "outside the contract",
                            worker.shard,
                            static_cast<unsigned long long>(meta.begin),
                            static_cast<unsigned long long>(meta.end)));
      }
      worker.meta_seen = true;
      worker.block.shard = meta.shard;
      worker.block.begin = meta.begin;
      worker.block.end = meta.end;
      worker.block.total = meta.total;
      worker.block.golden_exit = meta.golden_exit;
      worker.block.golden_instructions = meta.golden_instructions;
      continue;
    }
    if (parsed.record.has_value()) {
      if (!worker.meta_seen || worker.done_seen) {
        return Error(ErrorCode::kStateError,
                     format("fleet: shard %u sent a record outside its "
                            "stream frame",
                            worker.shard));
      }
      const u64 expected =
          worker.block.begin + worker.block.records.size();
      if (parsed.record->index != expected ||
          parsed.record->index >= worker.block.end) {
        return Error(ErrorCode::kStateError,
                     format("fleet: shard %u record index %llu, expected "
                            "%llu",
                            worker.shard,
                            static_cast<unsigned long long>(
                                parsed.record->index),
                            static_cast<unsigned long long>(expected)));
      }
      worker.block.records.push_back(*parsed.record);
      ++records_seen;
      continue;
    }
    // done line
    if (!worker.meta_seen || parsed.done->shard != worker.shard ||
        parsed.done->count != worker.block.records.size() ||
        worker.block.begin + parsed.done->count != worker.block.end) {
      return Error(ErrorCode::kStateError,
                   format("fleet: shard %u done line disagrees with its "
                          "stream",
                          worker.shard));
    }
    worker.done_seen = true;
  }
  return Status();
}

}  // namespace

Result<FleetReport> run_fleet(const FleetOptions& options) {
  if (options.workers == 0 || options.worker_path.empty() ||
      options.elf_path.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "fleet: elf path, worker path and workers >= 1 required");
  }
  // The daemon writes to sockets whose peer may vanish; broken pipes must
  // surface as write errors, not process death.
  ::signal(SIGPIPE, SIG_IGN);

  const unsigned shards =
      options.shards != 0 ? options.shards : options.workers * 4;
  S4E_TRY(elf_bytes, read_file_bytes(options.elf_path));
  // Only the mode's own knobs shape the mutant space; the irrelevant ones
  // are zeroed so both sides of the wire hash the same inputs.
  const u64 fingerprint = campaign_fingerprint(
      elf_bytes, options.mode,
      options.mode == Mode::kFault ? options.seed : 0,
      options.mode == Mode::kFault ? options.mutants : 0,
      options.mode == Mode::kMutation ? options.max_mutants : 0, shards);

  FleetReport out;
  out.stats.shards_total = shards;

  // --- Metrics: the status endpoint's source of truth.
  obs::MetricsRegistry registry;
  const auto m_records = registry.add_counter("fleet_records");
  const auto m_done = registry.add_counter("fleet_shards_done");
  const auto m_recovered = registry.add_counter("fleet_shards_recovered");
  const auto m_spawned = registry.add_counter("fleet_workers_spawned");
  const auto m_restarts = registry.add_counter("fleet_worker_restarts");
  const auto m_total = registry.add_gauge("fleet_shards_total");
  registry.open_shards(1);
  auto& metrics = registry.shard(0);
  metrics.set(m_total, shards);

  // --- Checkpoint: recover committed shards, keep the journal open.
  GoldenRef golden;
  std::map<unsigned, CompletedShard> committed;
  std::unique_ptr<CheckpointJournal> journal;
  if (!options.checkpoint_path.empty()) {
    std::vector<CompletedShard> recovered;
    bool replaced = false;
    CheckpointHeader header;
    header.mode = options.mode;
    header.fingerprint = fingerprint;
    header.shards = shards;
    auto opened = CheckpointJournal::open(options.checkpoint_path, header,
                                          recovered, replaced);
    if (!opened.ok()) return opened.error();
    journal = std::make_unique<CheckpointJournal>(std::move(*opened));
    out.stats.checkpoint_replaced = replaced;
    for (CompletedShard& shard : recovered) {
      if (shard.shard >= shards || committed.count(shard.shard) != 0) {
        return Error(ErrorCode::kStateError,
                     format("fleet: checkpoint holds invalid shard %u",
                            shard.shard));
      }
      S4E_TRY_STATUS(note_golden(golden, shard.total, shard.golden_exit,
                                 shard.golden_instructions));
      committed.emplace(shard.shard, std::move(shard));
    }
    out.stats.shards_recovered = static_cast<unsigned>(committed.size());
    metrics.add(m_recovered, committed.size());
  }

  // --- Status endpoint.
  std::unique_ptr<debug::TcpListener> status_listener;
  if (options.status_port >= 0) {
    std::string error;
    status_listener = debug::TcpListener::listen_loopback(
        static_cast<u16>(options.status_port), error);
    if (status_listener == nullptr) {
      return Error(ErrorCode::kIoError, "fleet: status listener: " + error);
    }
    out.stats.status_port = status_listener->port();
    if (options.on_status_port) {
      options.on_status_port(status_listener->port());
    }
  }

  // --- Scheduling state.
  std::deque<unsigned> pending;
  for (unsigned shard = 0; shard < shards; ++shard) {
    if (committed.count(shard) == 0) pending.push_back(shard);
  }
  std::vector<unsigned> retries(shards, 0);
  std::vector<WorkerProc> workers;
  ReapGuard guard{&workers};
  unsigned spawned_total = 0;
  unsigned live_commits = 0;
  u64 records_seen = 0;
  bool kill_hook_pending = options.test_kill_after_records != 0;

  const auto active_workers = [&workers] {
    std::size_t active = 0;
    for (const WorkerProc& worker : workers) {
      active += !worker.exited || !worker.stream_closed;
    }
    return active;
  };

  while (committed.size() < shards) {
    // Spawn until the worker budget is full.
    while (!pending.empty() && active_workers() < options.workers) {
      const unsigned shard = pending.front();
      pending.pop_front();
      // The stall hook rides on the very first spawn only: that worker is
      // the designated victim.
      const unsigned stall =
          (kill_hook_pending && spawned_total == 0)
              ? options.test_kill_after_records
              : 0;
      int fd = -1;
      auto pid = spawn_worker(options, shard, shards, stall, fd);
      if (!pid.ok()) return pid.error();
      WorkerProc worker;
      worker.pid = *pid;
      worker.shard = shard;
      worker.spawn_index = spawned_total++;
      worker.fd = fd;
      workers.push_back(std::move(worker));
      ++out.stats.workers_spawned;
      metrics.add(m_spawned, 1);
    }

    // Poll every live stream plus the status endpoint.
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;  // workers index of each stream slot
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (workers[i].fd >= 0 && !workers[i].stream_closed) {
        fds.push_back({workers[i].fd, POLLIN, 0});
        owner.push_back(i);
      }
    }
    const std::size_t streams = fds.size();
    if (status_listener != nullptr) {
      fds.push_back({status_listener->fd(), POLLIN, 0});
    }
    if (!fds.empty()) {
      const int n = ::poll(fds.data(), fds.size(), kPollIntervalMs);
      if (n < 0 && errno != EINTR) {
        return Error(ErrorCode::kIoError,
                     format("fleet: poll failed: %s", std::strerror(errno)));
      }
    }

    // Status endpoint: one metrics line per connection, then close.
    if (status_listener != nullptr && (fds.back().revents & POLLIN) != 0) {
      std::string error;
      bool timed_out = false;
      auto client = status_listener->accept_one_for(0, error, timed_out);
      if (client != nullptr) {
        client->write_all(registry.to_json() + "\n");
      }
    }

    // Drain readable worker streams.
    for (std::size_t slot = 0; slot < streams; ++slot) {
      if ((fds[slot].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerProc& worker = workers[owner[slot]];
      char chunk[65536];
      const ssize_t n = ::read(worker.fd, chunk, sizeof chunk);
      if (n > 0) {
        worker.buffer.append(chunk, static_cast<std::size_t>(n));
        const u64 before = records_seen;
        S4E_TRY_STATUS(consume_lines(worker, options.mode, fingerprint,
                                     shards, golden, records_seen));
        out.stats.records += records_seen - before;
        metrics.add(m_records, records_seen - before);
        // Kill hook: the victim has streamed enough — SIGKILL it mid-shard.
        if (kill_hook_pending && worker.spawn_index == 0 &&
            worker.block.records.size() >=
                options.test_kill_after_records) {
          kill_hook_pending = false;
          ::kill(worker.pid, SIGKILL);
        }
      } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
        worker.stream_closed = true;
        ::close(worker.fd);
        worker.fd = -1;
      }
    }

    // Reap exited children — per known pid, never waitpid(-1), so an
    // embedding process's other children (popen!) are left alone.
    for (WorkerProc& worker : workers) {
      if (worker.exited) continue;
      int status = 0;
      if (::waitpid(worker.pid, &status, WNOHANG) == worker.pid) {
        worker.exited = true;
        worker.wait_status = status;
      }
    }

    // Settle workers whose stream and process have both finished.
    for (std::size_t i = 0; i < workers.size();) {
      WorkerProc& worker = workers[i];
      if (!worker.exited || !worker.stream_closed) {
        ++i;
        continue;
      }
      const bool clean = worker.done_seen &&
                         WIFEXITED(worker.wait_status) &&
                         WEXITSTATUS(worker.wait_status) == 0;
      if (clean) {
        if (journal != nullptr) {
          S4E_TRY_STATUS(journal->commit(worker.block));
        }
        committed.emplace(worker.shard, std::move(worker.block));
        ++out.stats.shards_done;
        metrics.add(m_done, 1);
        ++live_commits;
        if (options.test_fail_after_commits != 0 &&
            live_commits >= options.test_fail_after_commits) {
          return Error(ErrorCode::kStateError,
                       format("fleet: test-induced daemon failure after %u "
                              "commits",
                              live_commits));
        }
      } else {
        // Worker died (or its stream broke) mid-shard: drop the partial
        // block and requeue, bounded by the retry budget.
        if (++retries[worker.shard] > options.max_retries) {
          return Error(
              ErrorCode::kStateError,
              format("fleet: shard %u failed %u times, giving up "
                     "(last exit status 0x%x)",
                     worker.shard, retries[worker.shard],
                     static_cast<unsigned>(worker.wait_status)));
        }
        pending.push_back(worker.shard);
        ++out.stats.worker_restarts;
        metrics.add(m_restarts, 1);
      }
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  if (!golden.known) {
    return Error(ErrorCode::kStateError, "fleet: no worker reported");
  }

  // --- Deterministic aggregation: fill the slot array in global index
  // order from the committed blocks, then fold exactly like the serial
  // engines do.
  std::vector<RecordLine> slots(static_cast<std::size_t>(golden.total));
  std::vector<bool> filled(slots.size(), false);
  for (const auto& [shard, block] : committed) {
    for (std::size_t offset = 0; offset < block.records.size(); ++offset) {
      const u64 index = block.begin + offset;
      if (index >= golden.total || filled[static_cast<std::size_t>(index)]) {
        return Error(ErrorCode::kStateError,
                     format("fleet: duplicate or out-of-range record %llu",
                            static_cast<unsigned long long>(index)));
      }
      slots[static_cast<std::size_t>(index)] = block.records[offset];
      filled[static_cast<std::size_t>(index)] = true;
    }
  }
  for (std::size_t index = 0; index < filled.size(); ++index) {
    if (!filled[index]) {
      return Error(ErrorCode::kStateError,
                   format("fleet: record %zu missing after all shards "
                          "committed",
                          index));
    }
  }

  if (options.mode == Mode::kFault) {
    fault::CampaignResult result;
    result.golden_exit_code = golden.exit_code;
    result.golden_instructions = golden.instructions;
    result.total_faults = golden.total;
    result.mutants.reserve(slots.size());
    for (const RecordLine& record : slots) {
      fault::MutantResult mutant;
      mutant.spec.target = static_cast<fault::FaultTarget>(record.klass);
      mutant.outcome = static_cast<fault::Outcome>(record.bucket);
      mutant.exit_code = record.exit_code;
      mutant.instructions = record.instructions;
      mutant.pruned = record.pruned;
      result.add(std::move(mutant));
    }
    out.report = result.to_string();
  } else {
    mutation::MutationScore score;
    score.total_mutants = golden.total;
    score.results.reserve(slots.size());
    for (const RecordLine& record : slots) {
      mutation::MutantResult result;
      result.mutant.op = static_cast<mutation::Operator>(record.klass);
      result.verdict = static_cast<mutation::Verdict>(record.bucket);
      result.exit_code = record.exit_code;
      result.instructions = record.instructions;
      result.pruned = record.pruned;
      score.add(std::move(result));
    }
    out.report = score.to_string();
  }
  out.metrics_json = registry.to_json();
  return out;
}

}  // namespace s4e::fleet
