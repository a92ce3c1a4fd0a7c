#include "refvm.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {

int32_t sext(uint32_t value, unsigned bits) {
  const uint32_t m = 1u << (bits - 1);
  return static_cast<int32_t>((value ^ m) - m);
}

uint32_t imm_i(uint32_t insn) { return sext(insn >> 20, 12); }
uint32_t imm_s(uint32_t insn) {
  return sext(((insn >> 25) << 5) | ((insn >> 7) & 0x1f), 12);
}
uint32_t imm_b(uint32_t insn) {
  return sext(((insn >> 31) << 12) | (((insn >> 7) & 1) << 11) |
                  (((insn >> 25) & 0x3f) << 5) | (((insn >> 8) & 0xf) << 1),
              13);
}
uint32_t imm_j(uint32_t insn) {
  return sext(((insn >> 31) << 20) | (((insn >> 12) & 0xff) << 12) |
                  (((insn >> 20) & 1) << 11) | (((insn >> 21) & 0x3ff) << 1),
              21);
}

uint32_t div_s(uint32_t a, uint32_t b) {
  if (b == 0) return ~0u;
  if (a == 0x8000'0000u && b == ~0u) return a;
  return static_cast<uint32_t>(static_cast<int32_t>(a) /
                               static_cast<int32_t>(b));
}
uint32_t rem_s(uint32_t a, uint32_t b) {
  if (b == 0) return a;
  if (a == 0x8000'0000u && b == ~0u) return 0;
  return static_cast<uint32_t>(static_cast<int32_t>(a) %
                               static_cast<int32_t>(b));
}

}  // namespace

RefVm::RefVm() : ram_(kRamSize, 0) {}

uint32_t RefVm::load(uint32_t addr, unsigned size, bool is_signed, bool& ok) {
  const uint32_t off = addr - kRamBase;
  if (off >= kRamSize || kRamSize - off < size) {
    ok = false;
    return 0;
  }
  uint32_t value = 0;
  for (unsigned i = 0; i < size; ++i) value |= uint32_t{ram_[off + i]} << (8 * i);
  return is_signed && size < 4 ? static_cast<uint32_t>(sext(value, 8 * size))
                               : value;
}

bool RefVm::store(uint32_t addr, unsigned size, uint32_t value) {
  if (addr == kUartTx) {
    uart_.push_back(static_cast<char>(value & 0xff));
    return true;
  }
  const uint32_t off = addr - kRamBase;
  if (off >= kRamSize || kRamSize - off < size) return false;
  for (unsigned i = 0; i < size; ++i) ram_[off + i] = static_cast<uint8_t>(value >> (8 * i));
  dirty_lo_ = std::min(dirty_lo_, off);
  dirty_hi_ = std::max(dirty_hi_, off + size);
  return true;
}

RefResult RefVm::run(const RefImage& image, uint64_t max_instructions,
                     bool track_pcs) {
  // Zero only what the previous run wrote: the yardstick runs before every
  // timed repetition and must not be dominated by a 4 MiB memset.
  if (dirty_lo_ < dirty_hi_) {
    std::fill(ram_.begin() + dirty_lo_, ram_.begin() + dirty_hi_, 0);
  }
  dirty_lo_ = kRamSize;
  dirty_hi_ = 0;
  uart_.clear();
  RefResult out;
  for (const auto& seg : image.segments) {
    const uint32_t off = seg.base - kRamBase;
    if (off >= kRamSize || kRamSize - off < seg.bytes.size()) {
      out.error = "segment outside RAM";
      return out;
    }
    std::memcpy(ram_.data() + off, seg.bytes.data(), seg.bytes.size());
    dirty_lo_ = std::min(dirty_lo_, off);
    dirty_hi_ = std::max(dirty_hi_, off + static_cast<uint32_t>(seg.bytes.size()));
  }
  std::vector<uint8_t> seen;
  if (track_pcs) seen.assign(kRamSize / 4, 0);

  uint32_t x[32] = {};
  x[2] = kRamBase + kRamSize - 16;
  uint32_t pc = image.entry;
  uint64_t n = 0;
  auto wr = [&x](uint32_t rd, uint32_t v) {
    if (rd != 0) x[rd] = v;
  };
  while (n < max_instructions) {
    const uint32_t off = pc - kRamBase;
    if (off >= kRamSize || (pc & 3) != 0) {
      out.error = "fetch outside RAM or misaligned";
      break;
    }
    uint32_t insn;
    std::memcpy(&insn, ram_.data() + off, 4);
    if (track_pcs) seen[off / 4] = 1;
    ++n;
    const uint32_t rd = (insn >> 7) & 0x1f;
    const uint32_t f3 = (insn >> 12) & 7;
    const uint32_t a = x[(insn >> 15) & 0x1f];
    const uint32_t b = x[(insn >> 20) & 0x1f];
    const uint32_t f7 = insn >> 25;
    uint32_t next = pc + 4;
    bool ok = true;
    switch (insn & 0x7f) {
      case 0x37: wr(rd, insn & 0xfffff000u); break;
      case 0x17: wr(rd, pc + (insn & 0xfffff000u)); break;
      case 0x6f: wr(rd, next); next = pc + imm_j(insn); break;
      case 0x67: {
        const uint32_t target = (a + imm_i(insn)) & ~1u;
        wr(rd, next);
        next = target;
        break;
      }
      case 0x63: {
        bool taken;
        switch (f3) {
          case 0: taken = a == b; break;
          case 1: taken = a != b; break;
          case 4: taken = static_cast<int32_t>(a) < static_cast<int32_t>(b); break;
          case 5: taken = static_cast<int32_t>(a) >= static_cast<int32_t>(b); break;
          case 6: taken = a < b; break;
          case 7: taken = a >= b; break;
          default: ok = false; taken = false;
        }
        if (taken) next = pc + imm_b(insn);
        break;
      }
      case 0x03: {
        static constexpr unsigned kSize[8] = {1, 2, 4, 0, 1, 2, 0, 0};
        if (kSize[f3] == 0) {
          ok = false;
          break;
        }
        const uint32_t v = load(a + imm_i(insn), kSize[f3], f3 < 4, ok);
        if (ok) wr(rd, v);
        ++out.loads;
        break;
      }
      case 0x23:
        ok = f3 <= 2 && store(a + imm_s(insn), 1u << f3, b);
        ++out.stores;
        break;
      case 0x13: {
        const uint32_t imm = imm_i(insn);
        const uint32_t sh = imm & 0x1f;
        switch (f3) {
          case 0: wr(rd, a + imm); break;
          case 1: wr(rd, a << sh); break;
          case 2: wr(rd, static_cast<int32_t>(a) < static_cast<int32_t>(imm)); break;
          case 3: wr(rd, a < imm); break;
          case 4: wr(rd, a ^ imm); break;
          case 5:
            wr(rd, (insn >> 30) & 1
                       ? static_cast<uint32_t>(static_cast<int32_t>(a) >> sh)
                       : a >> sh);
            break;
          case 6: wr(rd, a | imm); break;
          case 7: wr(rd, a & imm); break;
        }
        break;
      }
      case 0x33:
        if (f7 == 1) {
          const int64_t sa = static_cast<int32_t>(a);
          const int64_t sb = static_cast<int32_t>(b);
          switch (f3) {
            case 0: wr(rd, a * b); break;
            case 1: wr(rd, static_cast<uint32_t>((sa * sb) >> 32)); break;
            case 2: wr(rd, static_cast<uint32_t>((sa * static_cast<int64_t>(b)) >> 32)); break;
            case 3: wr(rd, static_cast<uint32_t>((uint64_t{a} * b) >> 32)); break;
            case 4: wr(rd, div_s(a, b)); break;
            case 5: wr(rd, b == 0 ? ~0u : a / b); break;
            case 6: wr(rd, rem_s(a, b)); break;
            case 7: wr(rd, b == 0 ? a : a % b); break;
          }
        } else {
          const uint32_t sh = b & 0x1f;
          switch (f3) {
            case 0: wr(rd, f7 == 0x20 ? a - b : a + b); break;
            case 1: wr(rd, a << sh); break;
            case 2: wr(rd, static_cast<int32_t>(a) < static_cast<int32_t>(b)); break;
            case 3: wr(rd, a < b); break;
            case 4: wr(rd, a ^ b); break;
            case 5:
              wr(rd, f7 == 0x20
                         ? static_cast<uint32_t>(static_cast<int32_t>(a) >> sh)
                         : a >> sh);
              break;
            case 6: wr(rd, a | b); break;
            case 7: wr(rd, a & b); break;
          }
        }
        break;
      case 0x73:
        if (insn == 0x00000073 && x[17] == 93) {
          out.exited = true;
          out.exit_code = static_cast<int>(x[10]);
        } else {
          ok = false;
        }
        break;
      default: ok = false;
    }
    if (!ok) {
      out.error = "unsupported instruction or bad access at pc " +
                  std::to_string(pc);
      break;
    }
    if (out.exited) break;
    pc = next;
  }
  out.instructions = n;
  if (!out.exited && out.error.empty()) out.error = "instruction budget exhausted";
  out.uart = uart_;
  uint64_t hash = 0xcbf29ce484222325ull;
  const uint32_t data_off = image.data_base - kRamBase;
  if (image.data_size != 0 && data_off < kRamSize &&
      kRamSize - data_off >= image.data_size) {
    for (uint32_t i = 0; i < image.data_size; ++i) {
      hash ^= ram_[data_off + i];
      hash *= 0x100000001b3ull;
    }
  } else {
    hash = 0;
  }
  out.data_hash = hash;
  if (track_pcs) {
    for (uint32_t i = 0; i < seen.size(); ++i) {
      if (seen[i]) out.executed.push_back(kRamBase + 4 * i);
    }
  }
  return out;
}

// --- The yardstick kernel ---------------------------------------------------

namespace {

constexpr uint32_t kIterations = 0x10000;  // loaded with one lui
constexpr uint32_t kTable = 0x8010'0000u;
constexpr uint32_t kTableBits = 18;  // 2^18 words: a 1 MiB table

enum Reg : uint32_t { zero = 0, t0 = 5, t1 = 6, t2 = 7, s0 = 8, s1 = 9,
                      a0 = 10, s2 = 18, s3 = 19, s4 = 20, s5 = 21, s6 = 22,
                      a7 = 17, t3 = 28, t4 = 29 };

uint32_t r_type(uint32_t f7, uint32_t rs2, uint32_t rs1, uint32_t f3,
                uint32_t rd, uint32_t op) {
  return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op;
}
uint32_t i_type(int32_t imm, uint32_t rs1, uint32_t f3, uint32_t rd,
                uint32_t op) {
  return (static_cast<uint32_t>(imm & 0xfff) << 20) | (rs1 << 15) |
         (f3 << 12) | (rd << 7) | op;
}
uint32_t s_type(int32_t imm, uint32_t rs2, uint32_t rs1, uint32_t f3) {
  const uint32_t u = static_cast<uint32_t>(imm);
  return (((u >> 5) & 0x7f) << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) |
         ((u & 0x1f) << 7) | 0x23;
}
uint32_t b_type(int32_t imm, uint32_t rs2, uint32_t rs1, uint32_t f3) {
  const uint32_t u = static_cast<uint32_t>(imm);
  return (((u >> 12) & 1) << 31) | (((u >> 5) & 0x3f) << 25) | (rs2 << 20) |
         (rs1 << 15) | (f3 << 12) | (((u >> 1) & 0xf) << 8) |
         (((u >> 11) & 1) << 7) | 0x63;
}
uint32_t lui(uint32_t rd, uint32_t upper) { return (upper << 12) | (rd << 7) | 0x37; }
uint32_t addi(uint32_t rd, uint32_t rs1, int32_t imm) { return i_type(imm, rs1, 0, rd, 0x13); }

// Host-side model of the kernel: the checksum it must exit with.
uint32_t expected_checksum() {
  std::vector<uint32_t> table(std::size_t{1} << kTableBits, 0);
  uint32_t s1v = 0x12345000u;
  uint32_t acc = 0;
  for (uint32_t i = 0; i < kIterations; ++i) {
    s1v = s1v * 0x0019660Du + 0x3C6EF35Fu;
    uint32_t& slot = table[s1v >> (32 - kTableBits)];
    slot += s1v;
    if (s1v & 0x100) acc ^= slot;
    acc += s1v / 7;
  }
  return acc;
}

}  // namespace

RefKernel::RefKernel() {
  const std::vector<uint32_t> code = {
      lui(s2, kTable >> 12),
      lui(s0, kIterations >> 12),
      lui(s1, 0x12345),
      lui(s3, 0x00196), addi(s3, s3, 0x60D),
      lui(s5, 0x3C6EF), addi(s5, s5, 0x35F),
      addi(s6, zero, 7),
      addi(s4, zero, 0),
      // loop:
      r_type(1, s3, s1, 0, s1, 0x33),        // mul  s1, s1, s3
      r_type(0, s5, s1, 0, s1, 0x33),        // add  s1, s1, s5
      i_type(32 - kTableBits, s1, 5, t0, 0x13),  // srli t0, s1, 32-bits
      i_type(2, t0, 1, t0, 0x13),            // slli t0, t0, 2
      r_type(0, t0, s2, 0, t1, 0x33),        // add  t1, s2, t0
      i_type(0, t1, 2, t2, 0x03),            // lw   t2, 0(t1)
      r_type(0, s1, t2, 0, t2, 0x33),        // add  t2, t2, s1
      s_type(0, t2, t1, 2),                  // sw   t2, 0(t1)
      i_type(0x100, s1, 7, t3, 0x13),        // andi t3, s1, 0x100
      b_type(8, zero, t3, 0),                // beq  t3, zero, +8
      r_type(0, t2, s4, 4, s4, 0x33),        // xor  s4, s4, t2
      r_type(1, s6, s1, 5, t4, 0x33),        // divu t4, s1, s6
      r_type(0, t4, s4, 0, s4, 0x33),        // add  s4, s4, t4
      addi(s0, s0, -1),
      b_type(-56, zero, s0, 1),              // bne  s0, zero, loop
      addi(a0, s4, 0),
      addi(a7, zero, 93),
      0x00000073,                            // ecall
  };
  RefImage::Segment seg;
  seg.base = RefVm::kRamBase;
  for (uint32_t word : code) {
    for (int i = 0; i < 4; ++i) seg.bytes.push_back(static_cast<uint8_t>(word >> (8 * i)));
  }
  image_.segments.push_back(std::move(seg));
  image_.entry = RefVm::kRamBase;
}

bool RefKernel::run() {
  static const uint32_t expected = expected_checksum();
  const RefResult r = vm_.run(image_, uint64_t{1} << 32, false);
  instructions_ = r.instructions;
  return r.exited && static_cast<uint32_t>(r.exit_code) == expected;
}

}  // namespace perfbench
