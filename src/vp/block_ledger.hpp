// Block-granular execution accounting for VP plugins.
//
// A plugin that needs per-instruction totals does not have to take an
// insn_exec callback per retired instruction. It can record each translated
// block once (tb_trans) and count block dispatches (tb_exec): every
// dispatch settles the previously dispatched block by the retired-
// instruction delta s4e_icount(now) - s4e_icount(at its dispatch).
//
// Why the delta is exact: the careful loop (the only engine that runs while
// tb_exec is subscribed) increments icount once per instruction it starts,
// at the point where it fires insn_exec, and the VP runs no instruction
// between a block's end and the next dispatch. So the delta is the number
// of the block's *leading* instructions that ran: its full length, or the
// prefix left when a trap, an exit, a TB flush, the instruction budget or a
// single step cut it short. Only the common case (a full run) is a counter
// increment; a cut-short run is handed to the owner as an instruction range.
//
// Settling points: the next dispatch, the exit callback (close()), and the
// owner's result accessors (settle()), which read the VM's icount only while
// a block is pending — after the exit callback nothing is pending.
#pragma once

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

#include "common/bits.hpp"

namespace s4e::vp {

class BlockLedger {
 public:
  static constexpr u32 kNone = ~u32{0};

  struct Block {
    u32 start = 0;
    u32 size = 0;        // instructions in this translation
    u64 dispatches = 0;  // tb_exec events
    u64 full_runs = 0;   // dispatches that retired all `size` instructions
    u64 cut_insns = 0;   // instructions retired by the other dispatches
    u64 retired() const noexcept { return full_runs * size + cut_insns; }
  };

  // The translation most recently added at `start`, or kNone.
  u32 find(u32 start) noexcept {
    Front& front = front_[front_slot(start)];
    if (front.index != kNone && front.start == start) return front.index;
    const auto it = latest_.find(start);
    if (it == latest_.end()) return kNone;
    front = {start, it->second};
    return it->second;
  }

  // Record a translation of `size` instructions at `start`; find(start)
  // returns it from now on. Earlier translations keep their counts.
  u32 add(u32 start, u32 size) {
    const auto index = static_cast<u32>(blocks_.size());
    blocks_.push_back(Block{start, size});
    latest_[start] = index;
    front_[front_slot(start)] = {start, index};
    return index;
  }

  const std::vector<Block>& blocks() const noexcept { return blocks_; }
  bool pending() const noexcept { return pending_ != kNone; }

  // tb_exec of the block at `start`, `now` = the VM's icount. `on_cut(index,
  // first, count)` receives the instructions [first, first + count) of a
  // block that did not run in full.
  template <typename OnCut>
  void dispatch(u32 start, u64 now, OnCut&& on_cut) {
    settle(now, on_cut);
    pending_ = find(start);
    if (pending_ == kNone) return;
    ++blocks_[pending_].dispatches;
    offset_ = 0;
    at_ = now;
  }

  // Account the pending block's instructions retired up to `now`. The block
  // stays pending (a reader inside a callback may see it mid-run); the next
  // settle() counts only what ran since.
  template <typename OnCut>
  void settle(u64 now, OnCut&& on_cut) {
    if (pending_ == kNone) return;
    Block& block = blocks_[pending_];
    // Clamped: icount cannot run ahead of a block, but a reset() or a
    // snapshot restore between dispatches moves it arbitrarily.
    const u64 ran =
        now > at_ ? std::min<u64>(now - at_, block.size - offset_) : 0;
    at_ = now;
    if (ran == 0) return;
    if (offset_ == 0 && ran == block.size) {
      ++block.full_runs;
    } else {
      block.cut_insns += ran;
      on_cut(pending_, offset_, static_cast<u32>(ran));
    }
    offset_ += static_cast<u32>(ran);
  }

  // Exit callback: settle and drop the pending block.
  template <typename OnCut>
  void close(u64 now, OnCut&& on_cut) {
    settle(now, on_cut);
    pending_ = kNone;
  }

 private:
  static constexpr std::size_t kFrontEntries = 1024;  // power of two
  struct Front {
    u32 start = 0;
    u32 index = kNone;
  };
  static std::size_t front_slot(u32 start) noexcept {
    return (start >> 1) & (kFrontEntries - 1);
  }

  std::vector<Block> blocks_;
  std::unordered_map<u32, u32> latest_;
  // Direct-mapped cache in front of `latest_`: find() runs once per
  // executed block.
  std::array<Front, kFrontEntries> front_{};
  u32 pending_ = kNone;
  u32 offset_ = 0;  // instructions of the pending block already settled
  u64 at_ = 0;      // icount when they were
};

}  // namespace s4e::vp
