// Small string utilities used by the assembler, report writers and the
// annotated-CFG text format.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace s4e {

// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

// Split on `sep`, keeping empty fields.
std::vector<std::string_view> split(std::string_view text, char sep);

// Split on any whitespace run, dropping empty fields.
std::vector<std::string_view> split_whitespace(std::string_view text);

// Parse a signed integer with optional 0x/0b prefix and +/- sign.
Result<std::int64_t> parse_integer(std::string_view text);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// True if `text` starts with / ends with the given prefix or suffix.
bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

// Lower-case copy (ASCII only; mnemonics and directives).
std::string to_lower(std::string_view text);

// Levenshtein edit distance (insert/delete/substitute, unit costs) — the
// "did you mean --X" suggestion metric of the CLI argument parser.
std::size_t edit_distance(std::string_view a, std::string_view b);

}  // namespace s4e
