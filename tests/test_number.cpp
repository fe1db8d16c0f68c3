// The number codec (common/number.hpp) pins every text format's bytes:
// doubles must come out exactly as printf("%.17g") writes them and read
// back bit-identically, integers as plain decimal, and the parser must
// reject everything that is not one whole number of the requested type.
#include "common/number.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cinttypes>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/json.hpp"

namespace xfl {
namespace {

std::string printf17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A seeded spread of doubles: random bit patterns (non-finite ones
/// included), integers, dyadics, subnormals and both zeros.
std::vector<double> sample_doubles() {
  Rng rng(20170622);
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::epsilon(),
                                0.1,
                                1e17,
                                1e16 + 1.0,
                                9007199254740993.0};
  for (int i = 0; i < 200000; ++i)
    values.push_back(std::bit_cast<double>(rng.next_u64()));
  for (int i = 0; i < 20000; ++i) {
    const auto n = static_cast<std::int64_t>(rng.next_u64() >> (1 + i % 63));
    values.push_back(static_cast<double>(i % 2 == 0 ? n : -n));
  }
  for (int i = 0; i < 20000; ++i) {
    const double mantissa = static_cast<double>(rng.next_u64() >> 40);
    values.push_back(std::ldexp(mantissa, static_cast<int>(i % 120) - 90));
  }
  for (int i = 0; i < 20000; ++i)  // Subnormals: a zero exponent field.
    values.push_back(std::bit_cast<double>(
        (rng.next_u64() & 0x800fffffffffffffull) | 1u));
  return values;
}

TEST(NumberCodec, DoublesMatchPrintfAndRoundTripBitIdentically) {
  std::size_t checked = 0;
  std::string text;
  for (const double v : sample_doubles()) {
    text.clear();
    append_number(text, v);
    ASSERT_EQ(text, printf17(v)) << std::bit_cast<std::uint64_t>(v);
    double back = 1.0;
    ASSERT_TRUE(parse_number(text, back)) << text;
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(back)) << text;
      EXPECT_EQ(std::signbit(back), std::signbit(v)) << text;
    } else {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(back),
                std::bit_cast<std::uint64_t>(v))
          << text;
    }
    ++checked;
  }
  EXPECT_GT(checked, 250000u);
}

TEST(NumberCodec, IntegersAreDecimal) {
  Rng rng(7);
  std::string text;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t u = rng.next_u64() >> (i % 64);
    text.clear();
    append_number(text, u);
    ASSERT_EQ(text, std::to_string(u));
    std::uint64_t back = 0;
    ASSERT_TRUE(parse_number(text, back));
    ASSERT_EQ(back, u);

    const auto s = static_cast<std::int32_t>(rng.next_u64());
    text.clear();
    append_number(text, s);
    ASSERT_EQ(text, std::to_string(s));
    std::int32_t signed_back = 0;
    ASSERT_TRUE(parse_number(text, signed_back));
    ASSERT_EQ(signed_back, s);
  }
  text.clear();
  append_line(text, std::uint32_t{7}, -1, 0.5, std::uint64_t{1} << 63);
  EXPECT_EQ(text, "7 -1 0.5 9223372036854775808\n");
}

TEST(NumberCodec, RejectsAnythingButOneWholeNumber) {
  const char* bad_doubles[] = {"",      " 1",   "1 ",    "+1",    "1x",
                               "0x1p3", "1e",   "1e400", "-1e400", "1e-400",
                               "-",     ".",    "1,5",   "\t2"};
  for (const char* token : bad_doubles) {
    double v = 42.0;
    EXPECT_FALSE(parse_number(token, v)) << "'" << token << "'";
    EXPECT_EQ(v, 42.0) << "failed parse must leave the output untouched";
  }
  const char* bad_u64[] = {"",   "-1",  "+1",  " 1",  "1 ", "0x10",
                           "1.5", "1e3", "12abc", "18446744073709551616"};
  for (const char* token : bad_u64) {
    std::uint64_t v = 42;
    EXPECT_FALSE(parse_number(token, v)) << "'" << token << "'";
    EXPECT_EQ(v, 42u);
  }
  std::uint32_t u32 = 0;
  EXPECT_FALSE(parse_number("4294967296", u32));
  EXPECT_FALSE(parse_number("-1", u32));
  EXPECT_TRUE(parse_number("4294967295", u32));
  EXPECT_EQ(u32, 4294967295u);
  std::int32_t i32 = 0;
  EXPECT_FALSE(parse_number("2147483648", i32));
  EXPECT_FALSE(parse_number("-2147483649", i32));
  EXPECT_FALSE(parse_number("+3", i32));
  EXPECT_TRUE(parse_number("-2147483648", i32));
  EXPECT_EQ(i32, std::numeric_limits<std::int32_t>::min());

  // Non-finite values parse, since append_number writes them.
  double v = 0.0;
  EXPECT_TRUE(parse_number("inf", v));
  EXPECT_TRUE(std::isinf(v));
  EXPECT_TRUE(parse_number("-nan", v));
  EXPECT_TRUE(std::isnan(v));
  EXPECT_TRUE(parse_number("4.9406564584124654e-324", v));
  EXPECT_EQ(v, std::numeric_limits<double>::denorm_min());
}

TEST(NumberCodec, TokenReaderSplitsOnWhitespaceAndCountsBytesLeft) {
  TokenReader in("magic\n3 0.5\t-2\r\n  inf x7 ");
  EXPECT_EQ(in.token(), "magic");
  EXPECT_EQ(in.remaining(), 20u);
  std::size_t count = 0;
  double half = 0.0;
  std::int32_t minus_two = 0;
  ASSERT_TRUE(in.read(count, half, minus_two));
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(half, 0.5);
  EXPECT_EQ(minus_two, -2);
  double v = 0.0;
  EXPECT_FALSE(in.read(v)) << "the reader's doubles must be finite";
  EXPECT_FALSE(in.read(count)) << "x7 is not a number";
  EXPECT_EQ(in.token(), "");
  EXPECT_EQ(in.remaining(), 0u);
  for (const char* token : {"nan", "-inf", "1e400"}) {
    TokenReader non_finite(token);
    EXPECT_FALSE(non_finite.read(v)) << token;
  }

  // fits(): each token takes a byte and a separator before it.
  TokenReader tail("n 1 2 3");
  EXPECT_EQ(tail.token(), "n");
  EXPECT_TRUE(tail.fits(3, 1));
  EXPECT_FALSE(tail.fits(4, 1));
  EXPECT_TRUE(tail.fits(1, 3));
  EXPECT_FALSE(tail.fits(2, 3));
  EXPECT_TRUE(tail.fits(0, 5));
}

// The reader splits where std::isspace does in the "C" locale, which
// every program starts in and none of ours leaves, for every byte value.
TEST(NumberCodec, TokenReaderSplitsWhereCLocaleIsspaceDoes) {
  ASSERT_STREQ(std::setlocale(LC_CTYPE, nullptr), "C");
  for (int byte = 0; byte < 256; ++byte) {
    SCOPED_TRACE(byte);
    const std::string text{'a', static_cast<char>(byte), 'z'};
    TokenReader in(text);
    if (std::isspace(byte) != 0) {
      EXPECT_EQ(in.token(), "a");
      EXPECT_EQ(in.token(), "z");
    } else {
      EXPECT_EQ(in.token(), text);
    }
    EXPECT_EQ(in.token(), "");
  }
}

TEST(NumberCodec, JsonRendersNonFiniteAsNull) {
  std::string out;
  serve::append_json_number(out, std::numeric_limits<double>::quiet_NaN());
  out += ',';
  serve::append_json_number(out, std::numeric_limits<double>::infinity());
  out += ',';
  serve::append_json_number(out, -std::numeric_limits<double>::infinity());
  out += ',';
  serve::append_json_number(out, 0.1);
  EXPECT_EQ(out, "null,null,null,0.10000000000000001");
  const auto parsed = serve::parse_json("[" + out + "]");
  ASSERT_EQ(parsed.array.size(), 4u);
  EXPECT_TRUE(parsed.array[0].is_null());
  EXPECT_EQ(parsed.array[3].number, 0.1);
}

}  // namespace
}  // namespace xfl
