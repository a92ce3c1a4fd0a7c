#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"

namespace s4e {
namespace {

TEST(Bits, ExtractBasic) {
  EXPECT_EQ(extract_bits(0xdeadbeef, 0, 4), 0xfu);
  EXPECT_EQ(extract_bits(0xdeadbeef, 4, 4), 0xeu);
  EXPECT_EQ(extract_bits(0xdeadbeef, 28, 4), 0xdu);
  EXPECT_EQ(extract_bits(0xffffffff, 0, 32), 0xffffffffu);
}

TEST(Bits, InsertBasic) {
  EXPECT_EQ(insert_bits(0, 0, 4, 0xf), 0xfu);
  EXPECT_EQ(insert_bits(0, 28, 4, 0xd), 0xd0000000u);
  EXPECT_EQ(insert_bits(0xffffffff, 8, 8, 0), 0xffff00ffu);
  // Field wider than width is masked.
  EXPECT_EQ(insert_bits(0, 0, 4, 0x1f), 0xfu);
}

TEST(Bits, InsertExtractRoundTrip) {
  for (unsigned lo = 0; lo < 28; lo += 3) {
    for (unsigned width = 1; width <= 32 - lo; width += 5) {
      const u32 field = 0x2aaaaaaau & ((width >= 32) ? ~u32{0}
                                                     : ((u32{1} << width) - 1));
      const u32 word = insert_bits(0, lo, width, field);
      EXPECT_EQ(extract_bits(word, lo, width), field)
          << "lo=" << lo << " width=" << width;
    }
  }
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0xfff, 12), -1);
  EXPECT_EQ(sign_extend(0x7ff, 12), 2047);
  EXPECT_EQ(sign_extend(0x800, 12), -2048);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0x1, 1), -1);
}

TEST(Bits, FitsSigned) {
  EXPECT_TRUE(fits_signed(2047, 12));
  EXPECT_FALSE(fits_signed(2048, 12));
  EXPECT_TRUE(fits_signed(-2048, 12));
  EXPECT_FALSE(fits_signed(-2049, 12));
}

TEST(Bits, FlipAndTest) {
  u32 value = 0;
  value = flip_bit(value, 7);
  EXPECT_TRUE(test_bit(value, 7));
  value = flip_bit(value, 7);
  EXPECT_FALSE(test_bit(value, 7));
  EXPECT_EQ(popcount32(0xff00ff00u), 16u);
}

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, CarriesError) {
  Status status = Error(ErrorCode::kParseError, "bad token");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(status.to_string(), "parse_error: bad token");
}

TEST(ResultT, ValueAndError) {
  Result<int> ok_result = 42;
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);

  Result<int> err_result = Error(ErrorCode::kNotFound, "nope");
  ASSERT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(err_result.value_or(-1), -1);
  EXPECT_THROW(err_result.value(), std::runtime_error);
}

TEST(Check, ThrowsLogicError) {
  EXPECT_THROW(S4E_CHECK(1 == 2), std::logic_error);
  EXPECT_NO_THROW(S4E_CHECK(1 == 1));
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = rng.next_in_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  foo  "), "foo");
  EXPECT_EQ(trim("foo"), "foo");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, Split) {
  auto fields = split("a,b,,c", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
}

TEST(Strings, SplitWhitespace) {
  auto fields = split_whitespace("  foo  bar\tbaz ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "bar");
}

TEST(Strings, ParseIntegerDecimal) {
  EXPECT_EQ(*parse_integer("42"), 42);
  EXPECT_EQ(*parse_integer("-42"), -42);
  EXPECT_EQ(*parse_integer("+7"), 7);
}

TEST(Strings, ParseIntegerHexBinary) {
  EXPECT_EQ(*parse_integer("0x10"), 16);
  EXPECT_EQ(*parse_integer("0xFF"), 255);
  EXPECT_EQ(*parse_integer("0b101"), 5);
  EXPECT_EQ(*parse_integer("-0x10"), -16);
}

TEST(Strings, ParseIntegerRejectsGarbage) {
  EXPECT_FALSE(parse_integer("").ok());
  EXPECT_FALSE(parse_integer("0xZZ").ok());
  EXPECT_FALSE(parse_integer("12abc").ok());
  EXPECT_FALSE(parse_integer("-").ok());
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(format("0x%08x", 0xabcu), "0x00000abc");
}

}  // namespace
}  // namespace s4e
