// Shared front end of the campaign tools (s4e-faultsim, s4e-mutate): the
// flags both accept and their validation into exec::CampaignOptions, the
// --progress status thread, the fleet worker stream (--shard,
// --emit-jsonl) and the report epilogue (--snapshot-stats, post-mortems,
// --metrics-out). Each tool adds only its own flags, config and report
// lines.
//
// Observability flags never change the stdout report: metrics go to FILE,
// post-mortems go to stderr (or one file per mutant under DIR).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.hpp"
#include "dataflow/triage.hpp"
#include "elf/elf32.hpp"
#include "exec/campaign_driver.hpp"
#include "fleet/records.hpp"
#include "fleet/worker.hpp"
#include "tools/tool_util.hpp"

namespace s4e::tools {

class CampaignCli {
 public:
  // `name` is the tool ("s4e-faultsim"), `tag` its stderr prefix
  // ("faultsim"); the key lists hold the tool's own options.
  CampaignCli(int argc, char** argv, const char* name, const char* tag,
              const char* usage, std::vector<std::string> value_keys,
              std::vector<std::string> flag_keys)
      : name_(name),
        tag_(tag),
        usage_(usage),
        args_(argc, argv, 1,
              with(std::move(value_keys),
                   {"--jobs", "--metrics-out", "--post-mortem-dir", "--shard",
                    "--test-stall-after"}),
              with(std::move(flag_keys),
                   {"--progress", "--reuse-machine", "--triage",
                    "--snapshot-stats", "--post-mortem", "--emit-jsonl"})) {}

  const Args& args() const { return args_; }

  // Standard flags, the input argument and the shared campaign flags into
  // `options`. Returns the exit code to use, or -1 to continue.
  int parse(exec::CampaignOptions& options) {
    if (const int code = standard_flags(args_, name_, usage_); code >= 0) {
      return code;
    }
    if (args_.positional().empty()) {
      std::fprintf(stderr, "%s", usage_);
      return 2;
    }
    // 0 = all hardware threads; --jobs 1 forces the serial path.
    const auto jobs = number("--jobs", 0, 4096);
    if (!jobs) return 2;
    options.jobs = static_cast<unsigned>(*jobs);
    // Per-worker machine reuse is the default; --reuse-machine is accepted
    // for symmetry and --reuse-machine=off builds a fresh VP per mutant.
    options.reuse_machines = args_.value("--reuse-machine") != "off";
    // Static triage: --triage prunes statically decided mutants, =verify
    // runs them anyway and errors on any static/dynamic mismatch.
    if (args_.has("--triage")) {
      const auto mode = dataflow::parse_triage_mode(args_.value("--triage"));
      if (!mode) {
        std::fprintf(stderr, "%s: --triage expects on|off|verify (got %s)\n",
                     name_, args_.value("--triage").c_str());
        return 2;
      }
      options.triage = *mode;
    }
    options.collect_metrics = args_.has("--metrics-out");
    options.post_mortem =
        args_.has("--post-mortem") || args_.has("--post-mortem-dir");
    // Fleet mode (s4e-campaignd workers): --shard I/N runs only the
    // shard's contiguous slice of the full mutant list.
    if (args_.has("--shard")) {
      const auto shard = fleet::parse_shard(args_.value("--shard"));
      if (!shard) {
        std::fprintf(stderr, "%s: --shard expects I/N (got %s)\n", name_,
                     args_.value("--shard").c_str());
        return 2;
      }
      options.shard_index = shard->first;
      options.shard_count = shard->second;
    }
    shard_index_ = options.shard_index;
    shard_count_ = options.shard_count;
    post_mortem_ = options.post_mortem;
    return -1;
  }

  // Strict numeric option (see count_option); nullopt means exit 2.
  std::optional<u64> number(const std::string& key, u64 fallback,
                            u64 max) const {
    return count_option(args_, name_, key, fallback, max);
  }

  std::optional<assembler::Program> load_program() const {
    auto program = elf::read_elf_file(args_.positional()[0]);
    if (!program.ok()) {
      fail(program.error());
      return std::nullopt;
    }
    return std::move(*program);
  }

  // campaign.run(), with an optional status line fed by the campaign's
  // atomic progress counters; `buckets` names the outcome histogram.
  template <class Campaign>
  auto run(Campaign& campaign, const char* const (&buckets)[4]) const {
    std::atomic<bool> done{false};
    std::thread status_thread;
    if (args_.has("--progress")) {
      status_thread = std::thread([&] {
        while (!done.load(std::memory_order_acquire)) {
          const auto snap = campaign.progress().snapshot();
          if (snap.total != 0) {
            std::fprintf(
                stderr,
                "\r[%s] %llu/%llu mutants  (%s %llu, %s %llu, %s %llu, "
                "%s %llu)",
                tag_, static_cast<unsigned long long>(snap.completed),
                static_cast<unsigned long long>(snap.total), buckets[0],
                static_cast<unsigned long long>(snap.buckets[0]), buckets[1],
                static_cast<unsigned long long>(snap.buckets[1]), buckets[2],
                static_cast<unsigned long long>(snap.buckets[2]), buckets[3],
                static_cast<unsigned long long>(snap.buckets[3]));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        std::fprintf(stderr, "\n");
      });
    }
    auto result = campaign.run();
    done.store(true, std::memory_order_release);
    if (status_thread.joinable()) status_thread.join();
    return result;
  }

  // Fleet worker mode: --emit-jsonl replaces the human report with the
  // fleet wire stream on stdout. `meta` carries the mode, range start,
  // total and golden fields; the shard, range end and campaign fingerprint
  // are filled here.
  bool emit_jsonl() const { return args_.has("--emit-jsonl"); }
  template <class Item>
  int emit(fleet::MetaLine meta, u64 seed, u64 mutants, u64 max_mutants,
           const std::vector<Item>& items) const {
    auto elf_bytes = fleet::read_file_bytes(args_.positional()[0]);
    if (!elf_bytes.ok()) return fail(elf_bytes.error());
    meta.shard = shard_index_;
    meta.shards = shard_count_;
    meta.end = meta.begin + items.size();
    meta.fingerprint = fleet::campaign_fingerprint(
        *elf_bytes, meta.mode, seed, mutants, max_mutants, shard_count_);
    std::vector<std::string> lines;
    lines.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      lines.push_back(fleet::encode_record(items[i], meta.begin + i));
    }
    const auto stall_after = static_cast<unsigned>(
        parse_integer(args_.value("--test-stall-after", "0")).value_or(0));
    if (auto status = fleet::emit_stream(meta, lines, stall_after);
        !status.ok()) {
      return fail(status.error());
    }
    return finish_stdout(name_);
  }

  // The human report: `report` on stdout, then the tool's own `listing()`
  // lines, post-mortems in submission order (deterministic for any worker
  // scheduling) and --metrics-out. `label(item)` is the post-mortem header
  // after the mutant number.
  template <class Report, class Item, class Listing, class Label>
  int print_report(const Report& report, const std::vector<Item>& items,
                   Listing&& listing, Label&& label) const {
    std::printf("%s", report.to_string().c_str());
    if (args_.has("--snapshot-stats")) {
      // Debug aid on stderr so the stdout report stays byte-identical with
      // and without the flag (and with and without machine reuse).
      std::fprintf(stderr, "[%s] %s\n", tag_,
                   report.snapshot_stats.to_string().c_str());
    }
    listing();
    if (post_mortem_) {
      const std::string dir = args_.value("--post-mortem-dir");
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].post_mortem.empty()) continue;
        const std::string header = format("[%s] post-mortem #%03zu %s\n",
                                          tag_, i, label(items[i]).c_str());
        if (dir.empty()) {
          std::fprintf(stderr, "%s%s", header.c_str(),
                       items[i].post_mortem.c_str());
          continue;
        }
        const std::string path = format("%s/mutant_%03zu.txt", dir.c_str(), i);
        if (auto status = write_file(path, header + items[i].post_mortem);
            !status.ok()) {
          return fail(status.error());
        }
      }
    }
    if (args_.has("--metrics-out") &&
        !bench::merge_bench_entry(args_.value("--metrics-out"), name_,
                                  report.metrics_json)) {
      return 1;  // merge_bench_entry already reported on stderr
    }
    return finish_stdout(name_);
  }

  // Reports `error` on stderr; returns exit code 1.
  int fail(const Error& error) const {
    std::fprintf(stderr, "%s: %s\n", name_, error.to_string().c_str());
    return 1;
  }

 private:
  static std::vector<std::string> with(std::vector<std::string> keys,
                                       std::vector<std::string> shared) {
    keys.insert(keys.end(), shared.begin(), shared.end());
    return keys;
  }

  const char* name_;
  const char* tag_;
  const char* usage_;
  Args args_;
  unsigned shard_index_ = 0;
  unsigned shard_count_ = 1;
  bool post_mortem_ = false;
};

}  // namespace s4e::tools
