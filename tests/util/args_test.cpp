#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace parastack::util {
namespace {

Args make(std::initializer_list<const char*> argv) {
  std::vector<const char*> full = {"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(full.size()), full.data());
}

TEST(Args, KeyValuePairs) {
  const auto args = make({"--bench", "LU", "--ranks", "256"});
  EXPECT_TRUE(args.has("bench"));
  EXPECT_EQ(args.get("bench"), "LU");
  EXPECT_EQ(args.get_whole<int>("ranks", 0), 256);
}

TEST(Args, EqualsSyntax) {
  const auto args = make({"--platform=Tardis", "--alpha=0.01"});
  EXPECT_EQ(args.get("platform"), "Tardis");
  EXPECT_DOUBLE_EQ(args.get_whole<double>("alpha", 0.0), 0.01);
}

TEST(Args, BareFlags) {
  const auto args = make({"--no-parastack", "--verbose", "--seed", "4"});
  EXPECT_TRUE(args.has("no-parastack"));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("no-parastack"), "");
  EXPECT_EQ(args.get_whole<int>("seed", 0), 4);
}

TEST(Args, FlagFollowedByFlagIsBare) {
  const auto args = make({"--a", "--b", "value"});
  EXPECT_EQ(args.get("a"), "");
  EXPECT_EQ(args.get("b"), "value");
}

TEST(Args, Fallbacks) {
  const auto args = make({});
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_whole<int>("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_whole<double>("missing", 2.5), 2.5);
}

TEST(Args, Positionals) {
  const auto args = make({"run", "--x", "1", "extra"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "run");
  EXPECT_EQ(args.positionals()[1], "extra");
}

TEST(Args, UnknownKeyDetection) {
  const auto args = make({"--bench", "LU", "--typo-flag", "x"});
  const auto unknown = args.unknown_keys({"bench", "ranks"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo-flag");
}

/// The message get_whole throws for `--name value`, or "" if it returns.
template <typename T>
std::string rejection(const char* value,
                      T lo = std::numeric_limits<T>::lowest(),
                      T hi = std::numeric_limits<T>::max()) {
  const auto args = make({"--name", value});
  try {
    (void)args.get_whole<T>("name", T{}, lo, hi);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Args, NumericValidation) {
  // Malformed text, trailing characters and values the type cannot hold
  // are errors that name the option, never a truncated or wrapped value.
  EXPECT_EQ(rejection<int>("abc", 0, 100),
            "bad --name value 'abc' (expected an integer from 0 to 100)");
  EXPECT_NE(rejection<int>("32x"), "");
  EXPECT_NE(rejection<int>(""), "");
  EXPECT_NE(rejection<int>(" 32"), "");
  EXPECT_NE(rejection<int>("4294967298"), "");
  EXPECT_NE(rejection<std::uint64_t>("-1"), "");
  EXPECT_NE(rejection<std::uint64_t>("99999999999999999999"), "");
  EXPECT_EQ(rejection<std::uint64_t>("18446744073709551615"), "");
  // Bounds are inclusive; NaN lies outside every range.
  EXPECT_EQ(rejection<int>("1", 1, 8), "");
  EXPECT_EQ(rejection<int>("8", 1, 8), "");
  EXPECT_NE(rejection<int>("0", 1, 8), "");
  EXPECT_NE(rejection<int>("9", 1, 8), "");
  EXPECT_EQ(rejection<double>("nan"),
            "bad --name value 'nan' (expected a number)");
  EXPECT_NE(rejection<double>("0.5x"), "");
  // A bare flag has no value to parse.
  EXPECT_NE(rejection<int>("--other"), "");
}

TEST(Args, ParseWholeTakesTheWholeText) {
  EXPECT_EQ(Args::parse_whole<int>("-12"), -12);
  EXPECT_DOUBLE_EQ(Args::parse_whole<double>("2.5e-3"), 2.5e-3);
  EXPECT_THROW((void)Args::parse_whole<int>("12 "), std::invalid_argument);
  EXPECT_THROW((void)Args::parse_whole<int>("+12"), std::invalid_argument);
  EXPECT_THROW((void)Args::parse_whole<std::size_t>("-3"),
               std::invalid_argument);
}

}  // namespace
}  // namespace parastack::util
