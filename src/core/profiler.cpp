#include "core/profiler.hpp"

#include <algorithm>
#include <vector>

#include "common/strings.hpp"

namespace s4e::core {

namespace {
// The profiler needs only retired totals, which the ledger keeps itself.
constexpr auto kIgnoreCut = [](u32, u32, u32) {};
}  // namespace

void ProfilerPlugin::on_tb_trans(const s4e_tb_info& tb) {
  // Only the length matters for attribution, so a re-translation of equal
  // length keeps counting into the existing entry.
  const u32 latest = ledger_.find(tb.start);
  if (latest == vp::BlockLedger::kNone ||
      ledger_.blocks()[latest].size != tb.n_insns) {
    ledger_.add(tb.start, tb.n_insns);
  }
}

void ProfilerPlugin::on_tb_exec(u32 tb_start) {
  ledger_.dispatch(tb_start, s4e_icount(vm()), kIgnoreCut);
}

void ProfilerPlugin::on_exit(int) {
  ledger_.close(s4e_icount(vm()), kIgnoreCut);
}

std::map<u32, u64> ProfilerPlugin::exec_counts() const {
  std::map<u32, u64> counts;
  for (const auto& block : ledger_.blocks()) {
    if (block.dispatches != 0) counts[block.start] += block.dispatches;
  }
  return counts;
}

u64 ProfilerPlugin::attributed_instructions() {
  if (ledger_.pending()) ledger_.settle(s4e_icount(vm()), kIgnoreCut);
  u64 total = 0;
  for (const auto& block : ledger_.blocks()) total += block.retired();
  return total;
}

std::string ProfilerPlugin::report(const assembler::Program& program,
                                   unsigned top_n) {
  // Nearest preceding symbol for an address.
  auto symbolize = [&](u32 address) -> std::string {
    std::string best_name = "?";
    u32 best_value = 0;
    bool found = false;
    for (const auto& [name, value] : program.symbols) {
      if (value <= address && (!found || value > best_value)) {
        best_name = name;
        best_value = value;
        found = true;
      }
    }
    if (!found) return format("0x%08x", address);
    const u32 delta = address - best_value;
    return delta == 0 ? best_name : format("%s+0x%x", best_name.c_str(), delta);
  };

  const u64 total = std::max<u64>(attributed_instructions(), 1);  // settles
  // One row per block start; a re-translated start sums its translations
  // and shows the latest length.
  struct Row {
    u64 execs = 0;
    u64 retired = 0;
    u32 insns = 0;
  };
  std::map<u32, Row> rows;
  for (const auto& block : ledger_.blocks()) {
    if (block.dispatches == 0) continue;
    Row& row = rows[block.start];
    row.execs += block.dispatches;
    row.retired += block.retired();
    row.insns = block.size;
  }
  std::vector<std::pair<u32, Row>> sorted(rows.begin(), rows.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.retired > b.second.retired;
                   });

  std::string out = "hot blocks (by attributed instructions):\n";
  out += format("  %-10s %-26s %10s %8s %8s\n", "address", "symbol", "execs",
                "insns", "share");
  unsigned shown = 0;
  for (const auto& [start, row] : sorted) {
    if (++shown > top_n) break;
    out += format("  0x%08x %-26s %10llu %8llu %7.1f%%\n", start,
                  symbolize(start).c_str(),
                  static_cast<unsigned long long>(row.execs),
                  static_cast<unsigned long long>(row.insns),
                  100.0 * static_cast<double>(row.retired) /
                      static_cast<double>(total));
  }
  return out;
}

}  // namespace s4e::core
