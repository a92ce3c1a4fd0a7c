// Shared helpers for the command-line tools: tiny argv parser, file IO and
// the stdout-pipe discipline every tool follows.
#pragma once

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/strings.hpp"

namespace s4e::tools {

// A tool whose stdout is a pipe whose reader went away (`s4e-faultsim … |
// head`) gets SIGPIPE on the next write and dies mid-report with no
// diagnostic and a signal exit. The standard fix: ignore SIGPIPE so writes
// fail with EPIPE instead, then check stdio's error state once at exit
// (finish_stdout below) and leave with a clean message. Installed by
// standard_flags(), i.e. by every tool.
inline void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

// Epilogue for every tool's successful main() paths: flush stdout and
// surface any accumulated write error (EPIPE from a closed pipe, ENOSPC,
// …) as exit 1 with a diagnostic on stderr. Returns `code` when stdout is
// healthy. Error paths that already return non-zero don't need it.
inline int finish_stdout(const char* tool, int code = 0) {
  const bool flush_failed = std::fflush(stdout) != 0;
  if (flush_failed || std::ferror(stdout) != 0) {
    std::fprintf(stderr, "%s: error writing to stdout (closed pipe?)\n",
                 tool);
    return 1;
  }
  return code;
}

// "--flag", "--key value", "--key=value" and positional arguments.
//
// Every argument a tool parses must be declared up front — `max_positional`
// positional arguments at most (kVariadic for any number), `value_keys` for
// options that consume a value, `flag_keys` for booleans (a flag may still
// carry an inline "=value", e.g. --trace=FILE or --gdb=PORT). Anything else
// that looks like an option is rejected with a "did you mean --X?" hint, so
// a typo like --max-isns fails loudly instead of silently running without a
// budget; a positional argument past the declared count is rejected as
// unexpected rather than ignored. "--help" and "--list-flags" are always
// known.
class Args {
 public:
  static constexpr std::size_t kVariadic = static_cast<std::size_t>(-1);

  Args(int argc, char** argv, std::size_t max_positional,
       std::vector<std::string> value_keys,
       std::vector<std::string> flag_keys = {})
      : value_keys_(std::move(value_keys)), flag_keys_(std::move(flag_keys)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.size() > 1 && arg[0] == '-' &&
          !(arg[1] >= '0' && arg[1] <= '9')) {
        const std::size_t eq = arg.find('=');
        const std::string key = eq == std::string::npos ? arg
                                                        : arg.substr(0, eq);
        if (!is_known(key)) {
          reject(key);
          continue;
        }
        if (eq != std::string::npos) {
          options_[key] = arg.substr(eq + 1);
          continue;
        }
        bool takes_value = false;
        for (const auto& vk : value_keys_) takes_value |= vk == key;
        if (takes_value && i + 1 < argc) {
          options_[key] = argv[++i];
        } else {
          options_[key] = "";
        }
      } else if (positional_.size() < max_positional) {
        positional_.push_back(arg);
      } else if (error_.empty()) {
        error_ = "unexpected argument '" + arg + "'";
      }
    }
  }

  // False when an undeclared option or an excess positional argument was
  // seen; `error()` carries the message for the first one (with a
  // nearest-known-option suggestion when one is close).
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool has(const std::string& key) const { return options_.count(key) != 0; }
  std::string value(const std::string& key,
                    const std::string& fallback = "") const {
    auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }
  const std::vector<std::string>& positional() const { return positional_; }

  // Every declared option (sorted; without the built-in --help/--list-flags).
  std::vector<std::string> known_options() const {
    std::vector<std::string> all = value_keys_;
    all.insert(all.end(), flag_keys_.begin(), flag_keys_.end());
    std::sort(all.begin(), all.end());
    return all;
  }

 private:
  bool is_known(const std::string& key) const {
    if (key == "--help" || key == "--list-flags") return true;
    for (const auto& k : value_keys_) {
      if (k == key) return true;
    }
    for (const auto& k : flag_keys_) {
      if (k == key) return true;
    }
    return false;
  }

  void reject(const std::string& key) {
    if (!error_.empty()) return;  // report the first bad argument only
    error_ = "unknown option '" + key + "'";
    std::string best;
    std::size_t best_distance = 3;  // suggest only within edit distance 2
    for (const auto& candidate : known_options()) {
      const std::size_t d = edit_distance(key, candidate);
      if (d < best_distance) {
        best_distance = d;
        best = candidate;
      }
    }
    if (!best.empty()) error_ += " (did you mean '" + best + "'?)";
  }

  std::vector<std::string> value_keys_;
  std::vector<std::string> flag_keys_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  std::string error_;
};

// Shared front matter for every tool's main():
//   - bad argument    -> message on stderr, exit 2
//   - --list-flags    -> declared options one per line on stdout, exit 0
//   - --help          -> `usage` on stdout, exit 0
// Returns the exit code to use, or -1 to continue running.
inline int standard_flags(const Args& args, const char* tool,
                          const char* usage) {
  ignore_sigpipe();
  if (!args.ok()) {
    std::fprintf(stderr, "%s: %s\n", tool, args.error().c_str());
    return 2;
  }
  if (args.has("--list-flags")) {
    for (const auto& key : args.known_options()) {
      std::printf("%s\n", key.c_str());
    }
    return finish_stdout(tool);
  }
  if (args.has("--help")) {
    std::printf("%s", usage);
    return finish_stdout(tool);
  }
  return -1;
}

// Strict non-negative integer option: the value of `key` (`fallback` when
// the option is absent). Non-numeric text, trailing garbage, a negative
// value or one above `max` prints "<tool>: <key> expects 0..<max> (got
// <text>)" on stderr and yields nullopt; callers exit 2.
inline std::optional<u64> count_option(const Args& args, const char* tool,
                                       const std::string& key, u64 fallback,
                                       u64 max) {
  if (!args.has(key)) return fallback;
  const std::string text = args.value(key);
  const auto value = parse_integer(text);
  if (!value.ok() || *value < 0 || static_cast<u64>(*value) > max) {
    std::fprintf(stderr, "%s: %s expects 0..%llu (got %s)\n", tool,
                 key.c_str(), static_cast<unsigned long long>(max),
                 text.c_str());
    return std::nullopt;
  }
  return static_cast<u64>(*value);
}

inline Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error(ErrorCode::kIoError, "cannot open '" + path + "'");
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

inline Status write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Error(ErrorCode::kIoError, "cannot open '" + path + "'");
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return out.good() ? Status()
                    : Status(Error(ErrorCode::kIoError, "short write"));
}

}  // namespace s4e::tools
