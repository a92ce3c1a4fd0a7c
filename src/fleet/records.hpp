// Wire records for the campaign fleet service (s4e-campaignd).
//
// A fleet worker (`s4e-faultsim --shard i/N --emit-jsonl`, likewise
// s4e-mutate) streams its shard's results as JSONL: one `meta` line
// announcing the shard's identity and range, one `record` line per mutant
// in global index order, and one `done` line carrying the record count.
// The orchestrator merges records into a slot array indexed by the global
// mutant index — the same deterministic aggregation the in-process
// campaign driver uses — so the fleet report is byte-identical to a
// serial run.
//
// The format is deliberately flat (no nested objects), so both ends share
// a line codec instead of a JSON library. Every line is self-describing;
// a stream cut mid-line is detected by the missing `done` count.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "fault/fault.hpp"
#include "mutation/mutation.hpp"

namespace s4e::fleet {

enum class Mode : u8 { kFault, kMutation };

std::string_view to_string(Mode mode) noexcept;
std::optional<Mode> parse_mode(std::string_view text) noexcept;

// Campaign identity: FNV-1a over the program image bytes plus the
// campaign-shaping configuration. Two runs with the same fingerprint
// generate the same mutant space, so their shards and checkpoints compose.
u64 campaign_fingerprint(const std::string& elf_bytes, Mode mode, u64 seed,
                         u64 mutants, u64 max_mutants, unsigned shards);

// First line of a worker stream.
struct MetaLine {
  Mode mode = Mode::kFault;
  unsigned shard = 0;
  unsigned shards = 1;
  u64 begin = 0;       // global index of the shard's first mutant
  u64 end = 0;         // one past the shard's last mutant
  u64 total = 0;       // full campaign size
  int golden_exit = 0;
  u64 golden_instructions = 0;
  u64 fingerprint = 0;
};

// One mutant outcome. `bucket` is the outcome/verdict enum value and
// `klass` the fault target / mutation operator enum value — exactly what
// the aggregate report needs; the orchestrator never re-derives specs.
struct RecordLine {
  u64 index = 0;  // global mutant index
  u8 klass = 0;   // fault::FaultTarget or mutation::Operator
  u8 bucket = 0;  // fault::Outcome or mutation::Verdict
  int exit_code = 0;
  u64 instructions = 0;
  bool pruned = false;
};

// Last line of a worker stream; `count` must equal the records sent.
struct DoneLine {
  unsigned shard = 0;
  u64 count = 0;
};

// A parsed worker line (exactly one of the optionals is set).
struct ParsedLine {
  std::optional<MetaLine> meta;
  std::optional<RecordLine> record;
  std::optional<DoneLine> done;
};

std::string encode(const MetaLine& meta);
std::string encode(Mode mode, const RecordLine& record);
std::string encode(const DoneLine& done);

// Strict parse of one worker line; errors name the offending field.
Result<ParsedLine> parse_line(std::string_view line, Mode mode);

// Convenience encoders straight from campaign results (the worker side).
std::string encode_record(const fault::MutantResult& mutant, u64 index);
std::string encode_record(const mutation::MutantResult& result, u64 index);

// Flat-JSON field access (shared with the checkpoint journal): the raw
// value token for `key`, unquoted and unescaped for strings.
std::optional<std::string> json_field(std::string_view line,
                                      std::string_view key);
// Integer field; nullopt when absent or non-numeric.
std::optional<long long> json_int_field(std::string_view line,
                                        std::string_view key);
// Minimal string escaping for the few free-text fields (quotes,
// backslashes, control characters).
std::string json_escape(std::string_view text);
// Full-width u64 from zero-padded hex (fingerprints travel as quoted hex
// because parse_integer's signed range cannot hold them).
std::optional<u64> parse_hex_u64(std::string_view text);

}  // namespace s4e::fleet
