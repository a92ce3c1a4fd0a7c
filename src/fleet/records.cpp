#include "fleet/records.hpp"

#include "common/strings.hpp"

namespace s4e::fleet {

namespace {

// Wire names are the engines' own names: fault targets and outcomes,
// mutation operators and verdicts.
constexpr u8 kClasses = 3;  // FaultTarget / Operator values
constexpr u8 kBuckets = 4;  // Outcome / Verdict values

std::string_view class_name(Mode mode, u8 klass) noexcept {
  return mode == Mode::kFault
             ? fault::to_string(static_cast<fault::FaultTarget>(klass))
             : mutation::to_string(static_cast<mutation::Operator>(klass));
}

std::string_view bucket_name(Mode mode, u8 bucket) noexcept {
  return mode == Mode::kFault
             ? fault::to_string(static_cast<fault::Outcome>(bucket))
             : mutation::to_string(static_cast<mutation::Verdict>(bucket));
}

// The value among the first `count` whose wire name is `text`.
std::optional<u8> match(std::string_view (*name)(Mode, u8) noexcept,
                        Mode mode, u8 count, std::string_view text) {
  for (u8 i = 0; i < count; ++i) {
    if (name(mode, i) == text) return i;
  }
  return std::nullopt;
}

}  // namespace

std::optional<u64> parse_hex_u64(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  u64 value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<u64>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<u64>(c - 'A' + 10);
    else return std::nullopt;
  }
  return value;
}

std::string_view to_string(Mode mode) noexcept {
  return mode == Mode::kFault ? "fault" : "mutation";
}

std::optional<Mode> parse_mode(std::string_view text) noexcept {
  if (text == "fault") return Mode::kFault;
  if (text == "mutation") return Mode::kMutation;
  return std::nullopt;
}

u64 campaign_fingerprint(const std::string& elf_bytes, Mode mode, u64 seed,
                         u64 mutants, u64 max_mutants, unsigned shards) {
  u64 hash = 0xcbf29ce484222325ull;  // FNV-1a
  const auto mix = [&hash](u64 value) {
    for (unsigned i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  for (const char c : elf_bytes) {
    hash ^= static_cast<u8>(c);
    hash *= 0x100000001b3ull;
  }
  mix(static_cast<u64>(mode));
  mix(seed);
  mix(mutants);
  mix(max_mutants);
  mix(shards);
  return hash;
}

std::string encode(const MetaLine& meta) {
  return format(
      "{\"meta\":\"s4e-fleet\",\"mode\":\"%s\",\"shard\":%u,\"shards\":%u,"
      "\"begin\":%llu,\"end\":%llu,\"total\":%llu,\"golden_exit\":%d,"
      "\"golden_instructions\":%llu,\"fingerprint\":\"%016llx\"}",
      std::string(to_string(meta.mode)).c_str(), meta.shard, meta.shards,
      static_cast<unsigned long long>(meta.begin),
      static_cast<unsigned long long>(meta.end),
      static_cast<unsigned long long>(meta.total), meta.golden_exit,
      static_cast<unsigned long long>(meta.golden_instructions),
      static_cast<unsigned long long>(meta.fingerprint));
}

std::string encode(Mode mode, const RecordLine& record) {
  const std::string_view klass = class_name(mode, record.klass);
  const std::string_view bucket = bucket_name(mode, record.bucket);
  return format("{\"i\":%llu,\"class\":\"%s\",\"bucket\":\"%s\",\"exit\":%d,"
                "\"insns\":%llu,\"pruned\":%u}",
                static_cast<unsigned long long>(record.index),
                std::string(klass).c_str(), std::string(bucket).c_str(),
                record.exit_code,
                static_cast<unsigned long long>(record.instructions),
                record.pruned ? 1u : 0u);
}

std::string encode(const DoneLine& done) {
  return format("{\"done\":true,\"shard\":%u,\"count\":%llu}", done.shard,
                static_cast<unsigned long long>(done.count));
}

std::string encode_record(const fault::MutantResult& mutant, u64 index) {
  RecordLine record;
  record.index = index;
  record.klass = static_cast<u8>(mutant.spec.target);
  record.bucket = static_cast<u8>(mutant.outcome);
  record.exit_code = mutant.exit_code;
  record.instructions = mutant.instructions;
  record.pruned = mutant.pruned;
  return encode(Mode::kFault, record);
}

std::string encode_record(const mutation::MutantResult& result, u64 index) {
  RecordLine record;
  record.index = index;
  record.klass = static_cast<u8>(result.mutant.op);
  record.bucket = static_cast<u8>(result.verdict);
  record.exit_code = result.exit_code;
  record.instructions = result.instructions;
  record.pruned = result.pruned;
  return encode(Mode::kMutation, record);
}

std::optional<std::string> json_field(std::string_view line,
                                      std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t i = pos + needle.size();
  if (i >= line.size()) return std::nullopt;
  if (line[i] == '"') {
    std::string value;
    for (++i; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) {
        const char next = line[++i];
        value += next == 'n' ? '\n' : next == 't' ? '\t' : next;
        continue;
      }
      if (line[i] == '"') return value;
      value += line[i];
    }
    return std::nullopt;  // unterminated string
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end == i || end == line.size()) return std::nullopt;
  return std::string(line.substr(i, end - i));
}

std::optional<long long> json_int_field(std::string_view line,
                                        std::string_view key) {
  const auto raw = json_field(line, key);
  if (!raw.has_value()) return std::nullopt;
  const auto value = parse_integer(*raw);
  if (!value.ok()) return std::nullopt;
  return *value;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

Result<ParsedLine> parse_line(std::string_view line, Mode mode) {
  ParsedLine parsed;
  if (line.find("\"meta\"") != std::string_view::npos) {
    MetaLine meta;
    const auto mode_name = json_field(line, "mode");
    const auto parsed_mode =
        mode_name.has_value() ? parse_mode(*mode_name) : std::nullopt;
    if (!parsed_mode.has_value() || *parsed_mode != mode) {
      return Error(ErrorCode::kParseError,
                   "fleet meta line: missing or mismatched mode");
    }
    meta.mode = *parsed_mode;
    const auto shard = json_int_field(line, "shard");
    const auto shards = json_int_field(line, "shards");
    const auto begin = json_int_field(line, "begin");
    const auto end = json_int_field(line, "end");
    const auto total = json_int_field(line, "total");
    const auto golden_exit = json_int_field(line, "golden_exit");
    const auto golden_insns = json_int_field(line, "golden_instructions");
    const auto fingerprint = json_field(line, "fingerprint");
    if (!shard || !shards || !begin || !end || !total || !golden_exit ||
        !golden_insns || !fingerprint) {
      return Error(ErrorCode::kParseError, "fleet meta line: missing field");
    }
    const auto fp = parse_hex_u64(*fingerprint);
    if (!fp) {
      return Error(ErrorCode::kParseError,
                   "fleet meta line: bad fingerprint");
    }
    meta.shard = static_cast<unsigned>(*shard);
    meta.shards = static_cast<unsigned>(*shards);
    meta.begin = static_cast<u64>(*begin);
    meta.end = static_cast<u64>(*end);
    meta.total = static_cast<u64>(*total);
    meta.golden_exit = static_cast<int>(*golden_exit);
    meta.golden_instructions = static_cast<u64>(*golden_insns);
    meta.fingerprint = *fp;
    if (meta.begin > meta.end || meta.end > meta.total ||
        meta.shards == 0 || meta.shard >= meta.shards) {
      return Error(ErrorCode::kParseError,
                   "fleet meta line: inconsistent shard range");
    }
    parsed.meta = meta;
    return parsed;
  }
  if (line.find("\"done\"") != std::string_view::npos) {
    DoneLine done;
    const auto shard = json_int_field(line, "shard");
    const auto count = json_int_field(line, "count");
    if (!shard || !count || *count < 0) {
      return Error(ErrorCode::kParseError, "fleet done line: missing field");
    }
    done.shard = static_cast<unsigned>(*shard);
    done.count = static_cast<u64>(*count);
    parsed.done = done;
    return parsed;
  }
  RecordLine record;
  const auto index = json_int_field(line, "i");
  const auto klass = json_field(line, "class");
  const auto bucket = json_field(line, "bucket");
  const auto exit_code = json_int_field(line, "exit");
  const auto insns = json_int_field(line, "insns");
  const auto pruned = json_int_field(line, "pruned");
  if (!index || !klass || !bucket || !exit_code || !insns || !pruned) {
    return Error(ErrorCode::kParseError,
                 "fleet record line: missing field in '" +
                     std::string(line.substr(0, 120)) + "'");
  }
  const auto klass_value = match(class_name, mode, kClasses, *klass);
  const auto bucket_value = match(bucket_name, mode, kBuckets, *bucket);
  if (!klass_value || !bucket_value) {
    return Error(ErrorCode::kParseError,
                 "fleet record line: unknown class or bucket");
  }
  record.index = static_cast<u64>(*index);
  record.klass = *klass_value;
  record.bucket = *bucket_value;
  record.exit_code = static_cast<int>(*exit_code);
  record.instructions = static_cast<u64>(*insns);
  record.pruned = *pruned != 0;
  parsed.record = record;
  return parsed;
}

}  // namespace s4e::fleet
