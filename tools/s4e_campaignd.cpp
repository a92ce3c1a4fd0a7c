// s4e-campaignd — campaign fleet service: shards a fault or mutation
// campaign across worker processes and merges their streamed results.
//
//   s4e-campaignd file.elf [--mode fault|mutation] [--workers N]
//                 [--shards N] [--worker-jobs N] [--seed S] [--mutants N]
//                 [--max N] [--worker PATH] [--checkpoint FILE] [--tcp]
//                 [--status-port P] [--max-retries N] [--stats]
//
// The merged report on stdout is byte-identical to the serial tool's
// (s4e-faultsim / s4e-mutate with the same campaign knobs): workers
// regenerate the identical mutant enumeration, execute only their
// contiguous shard, and the daemon folds the records in global index
// order. --checkpoint makes the fleet crash-safe: completed shards are
// journaled (fsync before acknowledge), and a restarted daemon resumes
// from the committed set instead of re-running it. Workers that die
// mid-shard are respawned automatically.
//
// --status-port P serves one line of live JSON metrics per connection
// (P=0 binds an ephemeral port, printed to stderr). --tcp streams results
// over loopback TCP instead of stdout pipes (same wire format).
#include <unistd.h>

#include <cstdio>
#include <limits>
#include <string>

#include "fleet/orchestrator.hpp"
#include "tools/tool_util.hpp"

namespace {

// Default worker binary: s4e-faultsim / s4e-mutate next to this binary,
// so an installed or build-tree daemon finds its siblings without flags.
std::string sibling_tool(const char* name) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return name;
  buffer[n] = '\0';
  std::string path(buffer);
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return name;
  return path.substr(0, slash + 1) + name;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s4e;
  static constexpr char kUsage[] =
      "usage: s4e-campaignd <file.elf> [--mode fault|mutation] "
      "[--workers N] [--shards N] [--worker-jobs N] [--seed S] "
      "[--mutants N] [--max N] [--worker PATH] [--checkpoint FILE] "
      "[--tcp] [--status-port P] [--max-retries N] [--stats] "
      "[--test-kill-after N] [--test-fail-after-commits N]\n";
  tools::Args args(argc, argv,
                   {"--mode", "--workers", "--shards", "--worker-jobs",
                    "--seed", "--mutants", "--max", "--worker",
                    "--checkpoint", "--status-port", "--max-retries",
                    "--test-kill-after", "--test-fail-after-commits"},
                   {"--tcp", "--stats"});
  if (const int code = tools::standard_flags(args, "s4e-campaignd", kUsage);
      code >= 0) {
    return code;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  fleet::FleetOptions options;
  options.elf_path = args.positional()[0];
  const std::string mode = args.value("--mode", "fault");
  if (mode == "fault") {
    options.mode = fleet::Mode::kFault;
  } else if (mode == "mutation") {
    options.mode = fleet::Mode::kMutation;
  } else {
    std::fprintf(stderr,
                 "s4e-campaignd: --mode expects fault|mutation (got %s)\n",
                 mode.c_str());
    return 2;
  }
  const auto workers = parse_integer(args.value("--workers", "2"));
  if (!workers.ok() || *workers < 1 || *workers > 256) {
    std::fprintf(stderr, "s4e-campaignd: --workers expects 1..256\n");
    return 2;
  }
  options.workers = static_cast<unsigned>(*workers);
  const auto shards = parse_integer(args.value("--shards", "0"));
  if (!shards.ok() || *shards < 0 || *shards > 1 << 16) {
    std::fprintf(stderr, "s4e-campaignd: --shards expects 0..65536\n");
    return 2;
  }
  options.shards = static_cast<unsigned>(*shards);
  constexpr u64 kUnsignedMax = std::numeric_limits<unsigned>::max();
  const auto worker_jobs =
      tools::count_option(args, "s4e-campaignd", "--worker-jobs", 1, 4096);
  const auto seed =
      tools::count_option(args, "s4e-campaignd", "--seed", 1, u64{1} << 40);
  const auto mutants = tools::count_option(args, "s4e-campaignd",
                                           "--mutants", 200, kUnsignedMax);
  const auto max_mutants =
      tools::count_option(args, "s4e-campaignd", "--max", 0, kUnsignedMax);
  const auto status_port =
      tools::count_option(args, "s4e-campaignd", "--status-port", 0, 65535);
  const auto max_retries = tools::count_option(args, "s4e-campaignd",
                                               "--max-retries", 3, kUnsignedMax);
  if (!worker_jobs || !seed || !mutants || !max_mutants || !status_port ||
      !max_retries) {
    return 2;
  }
  options.worker_jobs = static_cast<unsigned>(*worker_jobs);
  options.seed = *seed;
  options.mutants = static_cast<unsigned>(*mutants);
  options.max_mutants = static_cast<unsigned>(*max_mutants);
  options.worker_path = args.value(
      "--worker", sibling_tool(options.mode == fleet::Mode::kFault
                                   ? "s4e-faultsim"
                                   : "s4e-mutate"));
  options.checkpoint_path = args.value("--checkpoint");
  options.tcp_transport = args.has("--tcp");
  if (args.has("--status-port")) {
    options.status_port = static_cast<int>(*status_port);
    options.on_status_port = [](int port) {
      std::fprintf(stderr, "[campaignd] status endpoint on 127.0.0.1:%d\n",
                   port);
    };
  }
  options.max_retries = static_cast<unsigned>(*max_retries);
  options.test_kill_after_records = static_cast<unsigned>(
      parse_integer(args.value("--test-kill-after", "0")).value_or(0));
  options.test_fail_after_commits = static_cast<unsigned>(
      parse_integer(args.value("--test-fail-after-commits", "0"))
          .value_or(0));

  auto fleet_run = fleet::run_fleet(options);
  if (!fleet_run.ok()) {
    std::fprintf(stderr, "s4e-campaignd: %s\n",
                 fleet_run.error().to_string().c_str());
    return 1;
  }
  std::printf("%s", fleet_run->report.c_str());
  if (args.has("--stats")) {
    // Fleet bookkeeping goes to stderr so stdout stays byte-identical to
    // the serial tool's report.
    const fleet::FleetStats& stats = fleet_run->stats;
    std::fprintf(stderr,
                 "[campaignd] %u/%u shards (%u recovered), %llu records, "
                 "%u workers spawned, %u restarts%s\n",
                 stats.shards_done + stats.shards_recovered,
                 stats.shards_total, stats.shards_recovered,
                 static_cast<unsigned long long>(stats.records),
                 stats.workers_spawned, stats.worker_restarts,
                 stats.checkpoint_replaced ? ", stale checkpoint replaced"
                                           : "");
  }
  return tools::finish_stdout("s4e-campaignd");
}
