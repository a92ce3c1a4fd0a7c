// Campaign fleet service tests: wire codec round trips, checkpoint journal
// recovery, and the orchestrator's headline contract — the multi-process
// fleet report is byte-identical to the serial engine's, including across
// worker SIGKILLs and daemon crash/resume cycles.
//
// Orchestrator tests fork real worker binaries (s4e-faultsim / s4e-mutate
// from S4E_TOOL_DIR), so this suite exercises the full process-supervision
// path, not a mock.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.hpp"
#include "common/strings.hpp"
#include "core/workloads.hpp"
#include "debug/tcp.hpp"
#include "elf/elf32.hpp"
#include "fault/fault.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/orchestrator.hpp"
#include "fleet/records.hpp"
#include "fleet/worker.hpp"
#include "mutation/mutation.hpp"

#ifndef S4E_TOOL_DIR
#error "S4E_TOOL_DIR must be defined by the build system"
#endif

namespace s4e::fleet {
namespace {

std::string tool(const std::string& name) {
  return std::string(S4E_TOOL_DIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" +
         (info != nullptr ? std::string(info->name()) + "_" : "") + name;
}

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  const std::string full = command + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// Fixture: one checksum ELF on disk plus the serial reference reports,
// computed in-process through the same engines the worker binaries use.
class Fleet : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = core::find_workload("checksum");
    ASSERT_TRUE(workload.ok());
    auto program = assembler::assemble(workload->source);
    ASSERT_TRUE(program.ok()) << program.error().to_string();
    elf_ = temp_path("fleet.elf");
    ASSERT_TRUE(elf::write_elf_file(*program, elf_).ok());
    program_ = *program;
  }
  void TearDown() override { std::remove(elf_.c_str()); }

  std::string serial_fault_report(unsigned mutants, u64 seed) {
    fault::CampaignConfig config;
    config.mutant_count = mutants;
    config.seed = seed;
    config.jobs = 1;
    fault::Campaign campaign(program_, config);
    auto result = campaign.run();
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->to_string() : "";
  }

  std::string serial_mutation_report(unsigned max_mutants) {
    mutation::MutationConfig config;
    config.max_mutants = max_mutants;
    config.jobs = 1;
    mutation::MutationCampaign campaign(program_, config);
    auto score = campaign.run();
    EXPECT_TRUE(score.ok());
    return score.ok() ? score->to_string() : "";
  }

  FleetOptions fault_options(unsigned mutants, u64 seed) {
    FleetOptions options;
    options.elf_path = elf_;
    options.mode = Mode::kFault;
    options.worker_path = tool("s4e-faultsim");
    options.mutants = mutants;
    options.seed = seed;
    return options;
  }

  std::string elf_;
  assembler::Program program_;
};

// --- wire records ----------------------------------------------------------

TEST(FleetRecords, MetaRoundTrips) {
  MetaLine meta;
  meta.mode = Mode::kFault;
  meta.shard = 3;
  meta.shards = 16;
  meta.begin = 37;
  meta.end = 50;
  meta.total = 200;
  meta.golden_exit = 42;
  meta.golden_instructions = 123456;
  meta.fingerprint = 0xdeadbeefcafef00dull;  // exceeds i64: hex transport
  auto parsed = parse_line(encode(meta), Mode::kFault);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_TRUE(parsed->meta.has_value());
  EXPECT_EQ(parsed->meta->shard, 3u);
  EXPECT_EQ(parsed->meta->begin, 37u);
  EXPECT_EQ(parsed->meta->end, 50u);
  EXPECT_EQ(parsed->meta->total, 200u);
  EXPECT_EQ(parsed->meta->golden_exit, 42);
  EXPECT_EQ(parsed->meta->golden_instructions, 123456u);
  EXPECT_EQ(parsed->meta->fingerprint, 0xdeadbeefcafef00dull);
}

TEST(FleetRecords, RecordRoundTripsBothModes) {
  RecordLine record;
  record.index = 99;
  record.klass = 2;
  record.bucket = 1;
  record.exit_code = -6;
  record.instructions = 4242;
  record.pruned = true;
  for (const Mode mode : {Mode::kFault, Mode::kMutation}) {
    auto parsed = parse_line(encode(mode, record), mode);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    ASSERT_TRUE(parsed->record.has_value());
    EXPECT_EQ(parsed->record->index, 99u);
    EXPECT_EQ(parsed->record->klass, 2);
    EXPECT_EQ(parsed->record->bucket, 1);
    EXPECT_EQ(parsed->record->exit_code, -6);
    EXPECT_EQ(parsed->record->instructions, 4242u);
    EXPECT_TRUE(parsed->record->pruned);
  }
}

TEST(FleetRecords, DoneRoundTrips) {
  DoneLine done;
  done.shard = 7;
  done.count = 13;
  auto parsed = parse_line(encode(done), Mode::kMutation);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->done.has_value());
  EXPECT_EQ(parsed->done->shard, 7u);
  EXPECT_EQ(parsed->done->count, 13u);
}

TEST(FleetRecords, RejectsMalformedLines) {
  EXPECT_FALSE(parse_line("{\"i\":1}", Mode::kFault).ok());
  EXPECT_FALSE(parse_line("not json at all", Mode::kFault).ok());
  EXPECT_FALSE(
      parse_line("{\"i\":0,\"class\":\"gpr\",\"bucket\":\"nope\","
                 "\"exit\":0,\"insns\":1,\"pruned\":0}",
                 Mode::kFault)
          .ok());
  // A fault-mode class name is rejected under mutation mode (and vice
  // versa) — the two vocabularies never mix on one stream.
  EXPECT_FALSE(
      parse_line("{\"i\":0,\"class\":\"gpr\",\"bucket\":\"SURVIVED\","
                 "\"exit\":0,\"insns\":1,\"pruned\":0}",
                 Mode::kMutation)
          .ok());
  MetaLine meta;
  meta.shard = 5;
  meta.shards = 4;  // shard >= shards
  EXPECT_FALSE(parse_line(encode(meta), Mode::kFault).ok());
}

TEST(FleetRecords, FingerprintSeparatesCampaigns) {
  const std::string elf_bytes = "\x7f" "ELF-ish";
  const u64 a = campaign_fingerprint(elf_bytes, Mode::kFault, 1, 200, 0, 4);
  EXPECT_NE(a, campaign_fingerprint(elf_bytes, Mode::kFault, 2, 200, 0, 4));
  EXPECT_NE(a, campaign_fingerprint(elf_bytes, Mode::kFault, 1, 100, 0, 4));
  EXPECT_NE(a, campaign_fingerprint(elf_bytes, Mode::kFault, 1, 200, 0, 8));
  EXPECT_NE(a,
            campaign_fingerprint(elf_bytes, Mode::kMutation, 1, 200, 0, 4));
  EXPECT_NE(a,
            campaign_fingerprint(elf_bytes + "x", Mode::kFault, 1, 200, 0, 4));
  EXPECT_EQ(a, campaign_fingerprint(elf_bytes, Mode::kFault, 1, 200, 0, 4));
}

TEST(FleetRecords, ParseShardSelector) {
  auto shard = parse_shard("3/16");
  ASSERT_TRUE(shard.has_value());
  EXPECT_EQ(shard->first, 3u);
  EXPECT_EQ(shard->second, 16u);
  EXPECT_FALSE(parse_shard("16/16").has_value());  // index out of range
  EXPECT_FALSE(parse_shard("3").has_value());
  EXPECT_FALSE(parse_shard("a/b").has_value());
  EXPECT_FALSE(parse_shard("-1/4").has_value());
  EXPECT_FALSE(parse_shard("0/0").has_value());
}

// --- checkpoint journal ----------------------------------------------------

CompletedShard make_shard(unsigned shard, u64 begin, u64 end, u64 total) {
  CompletedShard block;
  block.shard = shard;
  block.begin = begin;
  block.end = end;
  block.total = total;
  block.golden_exit = 36;
  block.golden_instructions = 999;
  for (u64 i = begin; i < end; ++i) {
    RecordLine record;
    record.index = i;
    record.klass = static_cast<u8>(i % 3);
    record.bucket = static_cast<u8>(i % 4);
    record.exit_code = 36;
    record.instructions = 100 + i;
    block.records.push_back(record);
  }
  return block;
}

TEST(FleetCheckpoint, CommitAndRecover) {
  const std::string path = temp_path("ck.jsonl");
  CheckpointHeader header;
  header.mode = Mode::kFault;
  header.fingerprint = 0xabcdef0123456789ull;
  header.shards = 4;

  std::vector<CompletedShard> recovered;
  bool replaced = false;
  {
    auto journal = CheckpointJournal::open(path, header, recovered, replaced);
    ASSERT_TRUE(journal.ok()) << journal.error().to_string();
    EXPECT_TRUE(recovered.empty());
    EXPECT_FALSE(replaced);
    ASSERT_TRUE(journal->commit(make_shard(2, 10, 20, 40)).ok());
    ASSERT_TRUE(journal->commit(make_shard(0, 0, 10, 40)).ok());
  }
  {
    auto journal = CheckpointJournal::open(path, header, recovered, replaced);
    ASSERT_TRUE(journal.ok());
    EXPECT_FALSE(replaced);
    ASSERT_EQ(recovered.size(), 2u);
    EXPECT_EQ(recovered[0].shard, 0u);  // sorted by shard index
    EXPECT_EQ(recovered[1].shard, 2u);
    EXPECT_EQ(recovered[1].records.size(), 10u);
    EXPECT_EQ(recovered[1].records[0].index, 10u);
    EXPECT_EQ(recovered[0].golden_exit, 36);
  }
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, PartialTrailingBlockIsDiscarded) {
  CheckpointHeader header;
  header.mode = Mode::kMutation;
  header.fingerprint = 7;
  header.shards = 2;
  std::string text = encode_header(header) + "\n";
  const CompletedShard good = make_shard(0, 0, 3, 6);
  text += encode_shard_header(good) + "\n";
  for (const RecordLine& record : good.records) {
    text += encode(Mode::kMutation, record) + "\n";
  }
  text += "{\"commit\":0}\n";
  // Second block: shard header + one record, then the daemon died — no
  // commit line.
  const CompletedShard bad = make_shard(1, 3, 6, 6);
  text += encode_shard_header(bad) + "\n";
  text += encode(Mode::kMutation, bad.records[0]) + "\n";

  bool matches = false;
  auto parsed = parse_journal(text, header, matches);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(matches);
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].shard, 0u);
}

TEST(FleetCheckpoint, StaleJournalIsReplaced) {
  const std::string path = temp_path("ck_stale.jsonl");
  CheckpointHeader header;
  header.mode = Mode::kFault;
  header.fingerprint = 1;
  header.shards = 2;
  std::vector<CompletedShard> recovered;
  bool replaced = false;
  {
    auto journal = CheckpointJournal::open(path, header, recovered, replaced);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->commit(make_shard(0, 0, 2, 4)).ok());
  }
  // Same path, different campaign fingerprint: committed work must NOT be
  // resurrected into the wrong campaign.
  header.fingerprint = 2;
  {
    auto journal = CheckpointJournal::open(path, header, recovered, replaced);
    ASSERT_TRUE(journal.ok());
    EXPECT_TRUE(recovered.empty());
    EXPECT_TRUE(replaced);
  }
  std::remove(path.c_str());
}

// --- orchestrator: byte-identity -------------------------------------------

TEST_F(Fleet, FaultReportMatchesSerialEngine) {
  const std::string serial = serial_fault_report(40, 1);
  FleetOptions options = fault_options(40, 1);
  options.workers = 3;
  options.shards = 5;
  auto fleet = run_fleet(options);
  ASSERT_TRUE(fleet.ok()) << fleet.error().to_string();
  EXPECT_EQ(fleet->report, serial);
  EXPECT_EQ(fleet->stats.shards_done, 5u);
  EXPECT_EQ(fleet->stats.records, 40u);
  EXPECT_EQ(fleet->stats.worker_restarts, 0u);
}

TEST_F(Fleet, MutationReportMatchesSerialEngine) {
  const std::string serial = serial_mutation_report(50);
  FleetOptions options;
  options.elf_path = elf_;
  options.mode = Mode::kMutation;
  options.worker_path = tool("s4e-mutate");
  options.max_mutants = 50;
  options.workers = 2;
  options.shards = 4;
  auto fleet = run_fleet(options);
  ASSERT_TRUE(fleet.ok()) << fleet.error().to_string();
  EXPECT_EQ(fleet->report, serial);
}

// --- orchestrator: fault tolerance -----------------------------------------

TEST_F(Fleet, SigkilledWorkerIsRestartedAndReportUnchanged) {
  const std::string serial = serial_fault_report(40, 1);
  FleetOptions options = fault_options(40, 1);
  options.workers = 2;
  options.shards = 4;
  // The first spawned worker stalls after 3 records and is SIGKILLed by
  // the daemon; its shard must be re-run and the merged report unharmed.
  options.test_kill_after_records = 3;
  auto fleet = run_fleet(options);
  ASSERT_TRUE(fleet.ok()) << fleet.error().to_string();
  EXPECT_EQ(fleet->report, serial);
  EXPECT_GE(fleet->stats.worker_restarts, 1u);
  EXPECT_GT(fleet->stats.workers_spawned, 4u);
}

TEST_F(Fleet, DaemonCrashResumesFromCheckpoint) {
  const std::string serial = serial_fault_report(40, 1);
  const std::string checkpoint = temp_path("resume.jsonl");
  FleetOptions options = fault_options(40, 1);
  options.workers = 2;
  options.shards = 4;
  options.checkpoint_path = checkpoint;
  options.test_fail_after_commits = 2;
  auto crashed = run_fleet(options);
  ASSERT_FALSE(crashed.ok());  // simulated daemon death

  options.test_fail_after_commits = 0;
  auto resumed = run_fleet(options);
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_EQ(resumed->report, serial);
  EXPECT_GE(resumed->stats.shards_recovered, 2u);
  EXPECT_LE(resumed->stats.shards_done, 2u);
  EXPECT_FALSE(resumed->stats.checkpoint_replaced);
  std::remove(checkpoint.c_str());
}

TEST_F(Fleet, KillCrashAndResumeCombined) {
  // The full gauntlet: a worker is SIGKILLed, the daemon then dies, and
  // the resumed daemon must still converge on the serial bytes.
  const std::string serial = serial_fault_report(40, 1);
  const std::string checkpoint = temp_path("gauntlet.jsonl");
  FleetOptions options = fault_options(40, 1);
  options.workers = 2;
  options.shards = 4;
  options.checkpoint_path = checkpoint;
  options.test_kill_after_records = 2;
  options.test_fail_after_commits = 1;
  auto crashed = run_fleet(options);
  ASSERT_FALSE(crashed.ok());

  options.test_kill_after_records = 0;
  options.test_fail_after_commits = 0;
  auto resumed = run_fleet(options);
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_EQ(resumed->report, serial);
  std::remove(checkpoint.c_str());
}

TEST_F(Fleet, BrokenWorkerBinaryExhaustsRetries) {
  FleetOptions options = fault_options(10, 1);
  options.worker_path = "/nonexistent/worker";
  options.workers = 1;
  options.shards = 2;
  options.max_retries = 1;
  auto fleet = run_fleet(options);
  ASSERT_FALSE(fleet.ok());
  EXPECT_NE(fleet.error().message().find("giving up"), std::string::npos)
      << fleet.error().message();
}

// --- orchestrator: status endpoint -----------------------------------------

// Status endpoint client: connect to 127.0.0.1:port. Null with a message in
// `error` when nothing accepts there.
std::unique_ptr<debug::TcpChannel> connect_loopback(u16 port,
                                                    std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<debug::TcpChannel>(fd);
}

// Deadline read: block up to `timeout_ms` for data. Empty with `timed_out`
// set means the deadline passed with the peer still connected; empty
// without it means the peer closed, so the client loop never hangs.
std::string read_for(debug::TcpChannel& channel, int timeout_ms,
                     bool& timed_out) {
  timed_out = false;
  pollfd pfd{channel.fd(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) {
    timed_out = true;
    return {};
  }
  if (ready < 0) return {};  // poll error: treat as closed
  return channel.read_blocking();  // data or EOF is pending
}

TEST_F(Fleet, StatusEndpointServesLiveMetrics) {
  FleetOptions options = fault_options(60, 1);
  options.workers = 1;  // serialize shards: a wide time window to query
  options.shards = 8;
  options.status_port = 0;
  std::atomic<int> port{-1};
  options.on_status_port = [&port](int bound) { port.store(bound); };

  std::atomic<bool> done{false};
  std::string response;
  std::thread client([&] {
    while (!done.load()) {
      const int p = port.load();
      if (p < 0) continue;
      std::string error;
      auto channel = connect_loopback(static_cast<u16>(p), error);
      if (channel == nullptr) continue;
      bool timed_out = false;
      const std::string line = read_for(*channel, 2000, timed_out);
      if (!line.empty()) {
        response = line;
        return;
      }
    }
  });
  auto fleet = run_fleet(options);
  done.store(true);
  client.join();
  ASSERT_TRUE(fleet.ok()) << fleet.error().to_string();
  EXPECT_NE(response.find("\"fleet_shards_total\": 8"), std::string::npos)
      << response;
  EXPECT_NE(response.find("fleet_records"), std::string::npos);
  EXPECT_EQ(fleet->stats.status_port, port.load());
  // The final registry snapshot is also exported on the report.
  EXPECT_NE(fleet->metrics_json.find("\"fleet_shards_done\": 8"),
            std::string::npos)
      << fleet->metrics_json;
}

// --- shard property: union of shards == whole campaign ----------------------

std::vector<std::string> stream_records(const std::string& output) {
  std::vector<std::string> records;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"i\":", 0) == 0) records.push_back(line);
  }
  return records;
}

TEST_F(Fleet, ShardUnionEqualsSerialForSeveralShardCounts) {
  // Worker-level property test over the real binary: for several N, the
  // concatenation of all N shard streams is exactly the 1-shard stream —
  // same records, same global order, no gaps, no overlaps.
  const std::string base = tool("s4e-faultsim") + " " + elf_ +
                           " --emit-jsonl --jobs 1 --mutants 24 --seed 3";
  auto whole = run_command(base + " --shard 0/1");
  ASSERT_EQ(whole.exit_code, 0) << whole.output;
  const auto reference = stream_records(whole.output);
  ASSERT_EQ(reference.size(), 24u);

  for (const unsigned shards : {2u, 3u, 5u, 7u}) {
    std::vector<std::string> merged;
    for (unsigned i = 0; i < shards; ++i) {
      auto shard = run_command(base + format(" --shard %u/%u", i, shards));
      ASSERT_EQ(shard.exit_code, 0) << shard.output;
      const auto records = stream_records(shard.output);
      merged.insert(merged.end(), records.begin(), records.end());
    }
    EXPECT_EQ(merged, reference) << "shard count " << shards;
  }
}

TEST_F(Fleet, MutationShardUnionEqualsSerial) {
  const std::string base = tool("s4e-mutate") + " " + elf_ +
                           " --emit-jsonl --jobs 1 --max 30";
  auto whole = run_command(base + " --shard 0/1");
  ASSERT_EQ(whole.exit_code, 0) << whole.output;
  const auto reference = stream_records(whole.output);
  ASSERT_FALSE(reference.empty());

  for (const unsigned shards : {2u, 4u}) {
    std::vector<std::string> merged;
    for (unsigned i = 0; i < shards; ++i) {
      auto shard = run_command(base + format(" --shard %u/%u", i, shards));
      ASSERT_EQ(shard.exit_code, 0) << shard.output;
      const auto records = stream_records(shard.output);
      merged.insert(merged.end(), records.begin(), records.end());
    }
    EXPECT_EQ(merged, reference) << "shard count " << shards;
  }
}

// --- daemon binary ----------------------------------------------------------

TEST_F(Fleet, DaemonBinaryMatchesSerialTool) {
  auto serial = run_command(tool("s4e-faultsim") + " " + elf_ +
                            " --jobs 1 --mutants 20 --seed 5");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  auto daemon = run_command(tool("s4e-campaignd") + " " + elf_ +
                            " --workers 2 --shards 3 --mutants 20 --seed 5");
  ASSERT_EQ(daemon.exit_code, 0) << daemon.output;
  EXPECT_EQ(daemon.output, serial.output);
}

TEST_F(Fleet, DaemonRejectsBadMode) {
  auto result = run_command(tool("s4e-campaignd") + " " + elf_ +
                            " --mode sideways");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("fault|mutation"), std::string::npos);
}

}  // namespace
}  // namespace s4e::fleet
