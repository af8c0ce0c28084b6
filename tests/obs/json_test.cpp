#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

namespace parastack::obs {
namespace {

std::string render_string(std::string_view s) {
  std::string out;
  json_string(out, s);
  return out;
}

std::string render_number(double v) {
  std::string out;
  json_number(out, v);
  return out;
}

/// The number format the writer must reproduce byte for byte.
std::string printf_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// The string escaper the writer replaced, one stream insert per
/// character: the reference every escape must match.
std::string reference_string(std::string_view s) {
  std::ostringstream out;
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
  return out.str();
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

TEST(JsonString, PlainAscii) {
  EXPECT_EQ(render_string("MPI_Allreduce"), "\"MPI_Allreduce\"");
  EXPECT_EQ(render_string(""), "\"\"");
}

TEST(JsonString, EscapesSpecials) {
  EXPECT_EQ(render_string("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(render_string("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(render_string("a\nb\tc"), "\"a\\nb\\tc\"");
}

TEST(JsonString, EscapesControlCharacters) {
  EXPECT_EQ(render_string(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonString, EveryByteMatchesTheReferenceEscaper) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(render_string(one), reference_string(one)) << "byte " << b;
    all += one;
  }
  EXPECT_EQ(render_string(all), reference_string(all));
}

TEST(JsonString, RandomStringsMatchTheReferenceEscaper) {
  // Half the bytes printable ASCII, so unescaped runs of every length sit
  // between escapes, at the start and at the end.
  std::mt19937_64 rng(16);
  std::uniform_int_distribution<int> length(0, 48);
  std::uniform_int_distribution<int> any_byte(0, 255);
  std::uniform_int_distribution<int> printable(0x20, 0x7e);
  std::string appended;
  std::string expected;
  for (int i = 0; i < 20000; ++i) {
    std::string s(static_cast<std::size_t>(length(rng)), '\0');
    for (char& c : s) {
      c = static_cast<char>(rng() % 2 == 0 ? printable(rng) : any_byte(rng));
    }
    ASSERT_EQ(render_string(s), reference_string(s)) << "string " << i;
    json_string(appended, s);  // appends after what is already there
    expected += reference_string(s);
  }
  EXPECT_EQ(appended, expected);
}

TEST(JsonNumber, IntegersRenderWithoutExponent) {
  EXPECT_EQ(render_number(0.0), "0");
  EXPECT_EQ(render_number(42.0), "42");
  EXPECT_EQ(render_number(-3.0), "-3");
}

TEST(JsonNumber, FractionsAreStable) {
  EXPECT_EQ(render_number(0.25), "0.25");
  EXPECT_EQ(render_number(0.25), render_number(0.25));
}

TEST(JsonNumber, NonFiniteDegradesToNull) {
  EXPECT_EQ(render_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render_number(std::nan("")), "null");
  EXPECT_EQ(render_number(-std::nan("")), "null");
}

TEST(JsonNumber, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 rng(16);
  int finite = 0;
  for (int i = 0; i < 200000; ++i) {
    const double v = from_bits(rng());
    finite += std::isfinite(v);
    ASSERT_EQ(render_number(v), printf_number(v)) << std::hexfloat << v;
  }
  EXPECT_GT(finite, 190000);
}

TEST(JsonNumber, IntegersUpTo2To53MatchPrintf) {
  std::mt19937_64 rng(16);
  std::uniform_int_distribution<std::int64_t> up_to(0, std::int64_t{1} << 53);
  for (int i = 0; i < 100000; ++i) {
    const double v = static_cast<double>(up_to(rng));
    ASSERT_EQ(render_number(v), printf_number(v)) << v;
    ASSERT_EQ(render_number(-v), printf_number(-v)) << -v;
  }
  for (int bit = 0; bit <= 53; ++bit) {
    const double p = std::ldexp(1.0, bit);
    for (const double v : {p - 1, p, p + 1}) {
      EXPECT_EQ(render_number(v), printf_number(v)) << v;
    }
  }
}

TEST(JsonNumber, BothSidesOfEveryExponentSwitchMatchPrintf) {
  // %.9g switches between fixed and scientific notation at exponents -5/-4
  // and 8/9, and a value that rounds up to the next power of ten changes
  // its exponent: check each power of ten, its neighbours, and the values
  // either side of the round-up point, across the whole double range.
  for (int e = -324; e <= 308; ++e) {
    char text[40];
    std::snprintf(text, sizeof text, "1e%d", e);
    const double p = std::strtod(text, nullptr);
    std::snprintf(text, sizeof text, "9.9999999949e%d", e - 1);
    const double below_carry = std::strtod(text, nullptr);
    std::snprintf(text, sizeof text, "9.9999999951e%d", e - 1);
    const double above_carry = std::strtod(text, nullptr);
    for (const double v :
         {p, std::nextafter(p, 0.0), std::nextafter(p, HUGE_VAL), below_carry,
          above_carry, std::nextafter(below_carry, HUGE_VAL),
          std::nextafter(above_carry, 0.0)}) {
      EXPECT_EQ(render_number(v), printf_number(v)) << std::hexfloat << v;
      EXPECT_EQ(render_number(-v), printf_number(-v)) << std::hexfloat << -v;
    }
  }
}

TEST(JsonNumber, ZerosSubnormalsAndExtremesMatchPrintf) {
  EXPECT_EQ(render_number(0.0), "0");
  EXPECT_EQ(render_number(-0.0), "-0");
  std::mt19937_64 rng(16);
  for (int i = 0; i < 10000; ++i) {
    const double subnormal = from_bits(rng() & ((std::uint64_t{1} << 52) - 1));
    ASSERT_EQ(render_number(subnormal), printf_number(subnormal));
    ASSERT_EQ(render_number(-subnormal), printf_number(-subnormal));
  }
  for (const double v :
       {std::numeric_limits<double>::denorm_min(),
        std::nextafter(DBL_MIN, 0.0), DBL_MIN, DBL_MAX, -DBL_MAX,
        std::nextafter(DBL_MAX, 0.0), DBL_EPSILON, 1.0 + DBL_EPSILON}) {
    EXPECT_EQ(render_number(v), printf_number(v)) << std::hexfloat << v;
  }
  EXPECT_EQ(render_number(DBL_MAX), "1.79769313e+308");
  EXPECT_EQ(render_number(std::numeric_limits<double>::denorm_min()),
            "4.94065646e-324");
}

TEST(JsonObject, CommaDisciplineAndTypes) {
  std::string out;
  {
    JsonObject object(out);
    object.field("s", "x").field("b", true).field("i", -7);
    object.field("u", std::uint64_t{9}).field("d", 0.5);
    object.field("a", std::vector<int>{1, 2}).field("e", std::vector<int>{});
    object.key("o");
    JsonObject(out).field("n", 1);
  }
  EXPECT_EQ(out,
            "{\"s\":\"x\",\"b\":true,\"i\":-7,\"u\":9,\"d\":0.5,"
            "\"a\":[1,2],\"e\":[],\"o\":{\"n\":1}}");
}

TEST(JsonObject, EmptyObjectAndIdempotentDone) {
  std::string out;
  JsonObject object(out);
  object.done();
  object.done();  // destructor will close a third time
  EXPECT_EQ(out, "{}");
}

TEST(JsonObject, IntegerFieldsAtTheirLimits) {
  std::string out;
  JsonObject(out)
      .field("int_min", INT_MIN)
      .field("int_max", INT_MAX)
      .field("i64_min", std::numeric_limits<std::int64_t>::min())
      .field("i64_max", std::numeric_limits<std::int64_t>::max())
      .field("u64_max", std::numeric_limits<std::uint64_t>::max())
      .field("ranks", std::vector<int>{INT_MIN, 0, INT_MAX});
  EXPECT_EQ(out,
            "{\"int_min\":-2147483648,\"int_max\":2147483647,"
            "\"i64_min\":-9223372036854775808,"
            "\"i64_max\":9223372036854775807,"
            "\"u64_max\":18446744073709551615,"
            "\"ranks\":[-2147483648,0,2147483647]}");
}

}  // namespace
}  // namespace parastack::obs
