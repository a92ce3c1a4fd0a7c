// Sparse set of 32-bit byte addresses: one 4 KiB-page bitmap per touched
// page, with the most recently used page cached, so marking the bytes of a
// data access costs a compare and an OR instead of a tree insert per byte.
// Used for "addressed memory" bookkeeping (coverage, golden-run profiles).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bits.hpp"

namespace s4e {

class PageBitmap {
 public:
  static constexpr unsigned kPageBits = 12;
  static constexpr u32 kPageSize = u32{1} << kPageBits;

  void mark(u32 address) {
    const u32 offset = address & (kPageSize - 1);
    page(address >> kPageBits)[offset >> 6] |= u64{1} << (offset & 63);
  }

  // Mark [address, address + size); addresses wrap modulo 2^32.
  void mark_range(u32 address, unsigned size) {
    const u32 offset = address & (kPageSize - 1);
    if (size != 0 && (offset & 63) + size <= 64) {
      page(address >> kPageBits)[offset >> 6] |= (~u64{0} >> (64 - size))
                                                 << (offset & 63);
      return;
    }
    for (unsigned i = 0; i < size; ++i) mark(address + i);
  }

  // Visit every marked address in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<u32> numbers;
    numbers.reserve(pages_.size());
    for (const auto& entry : pages_) numbers.push_back(entry.first);
    std::sort(numbers.begin(), numbers.end());
    for (u32 number : numbers) {
      const Page& bits = *pages_.at(number);
      for (u32 word = 0; word < bits.size(); ++word) {
        for (u64 w = bits[word]; w != 0; w &= w - 1) {
          fn((number << kPageBits) | (word << 6) |
             static_cast<u32>(std::countr_zero(w)));
        }
      }
    }
  }

  std::vector<u32> sorted() const {
    std::vector<u32> out;
    for_each([&out](u32 address) { out.push_back(address); });
    return out;
  }

 private:
  using Page = std::array<u64, kPageSize / 64>;

  Page& page(u32 number) {
    if (last_ != nullptr && last_number_ == number) return *last_;
    std::unique_ptr<Page>& slot = pages_[number];
    if (slot == nullptr) slot = std::make_unique<Page>();  // zero-filled
    last_number_ = number;
    last_ = slot.get();
    return *last_;
  }

  std::unordered_map<u32, std::unique_ptr<Page>> pages_;
  Page* last_ = nullptr;
  u32 last_number_ = 0;
};

}  // namespace s4e
