#include "stats/runs_test.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace parastack::stats {
namespace {

/// The oracle for the critical region's tails: exact P(R <= r).
double runs_cdf(std::size_t r, std::size_t n1, std::size_t n0) {
  double acc = 0.0;
  for (std::size_t i = 0; i <= r; ++i) acc += runs_pmf(i, n1, n0);
  return std::min(acc, 1.0);
}

TEST(RunsPmf, SumsToOneOverSupport) {
  for (const auto& [n1, n0] : {std::pair<std::size_t, std::size_t>{3, 5},
                               {7, 9},
                               {10, 10},
                               {1, 6},
                               {20, 20}}) {
    double total = 0.0;
    for (std::size_t r = 0; r <= n1 + n0; ++r) total += runs_pmf(r, n1, n0);
    EXPECT_NEAR(total, 1.0, 1e-9) << "n1=" << n1 << " n0=" << n0;
  }
}

TEST(RunsPmf, KnownSmallValues) {
  // n1 = n0 = 2: arrangements of ++--: C(4,2) = 6 equally likely.
  // R=2: ++-- and --++ -> 2/6; R=3: +--+, -++- -> 2/6; R=4: +-+-, -+-+ -> 2/6.
  EXPECT_NEAR(runs_pmf(2, 2, 2), 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(runs_pmf(3, 2, 2), 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(runs_pmf(4, 2, 2), 2.0 / 6.0, 1e-12);
}

TEST(RunsPmf, ZeroOutsideSupport) {
  EXPECT_EQ(runs_pmf(0, 5, 5), 0.0);
  EXPECT_EQ(runs_pmf(1, 5, 5), 0.0);
  EXPECT_EQ(runs_pmf(11, 5, 5), 0.0);
  // With n1 < n0 the maximum run count is 2*n1 + 1.
  EXPECT_EQ(runs_pmf(16, 7, 9), 0.0);
  EXPECT_GT(runs_pmf(15, 7, 9), 0.0);
}

TEST(RunsCdf, MonotonicAndBounded) {
  double prev = 0.0;
  for (std::size_t r = 0; r <= 16; ++r) {
    const double c = runs_cdf(r, 7, 9);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_LE(c, 1.0 + 1e-12);
    prev = c;
  }
  EXPECT_NEAR(runs_cdf(16, 7, 9), 1.0, 1e-9);
}

TEST(RunsCriticalRegion, PaperWorkedExample) {
  // Paper §3.1: N1 = 7, N0 = 9 -> non-rejection region (4, 14); the
  // observed R = 4 must be rejected.
  const auto [lo, hi] = runs_critical_region(7, 9);
  EXPECT_EQ(lo, 4u);
  EXPECT_EQ(hi, 14u);
}

TEST(RunsCriticalRegion, SwedEisenhartPins) {
  // Published two-tailed 5% critical values (Swed & Eisenhart 1943 /
  // standard statistics tables): reject iff R <= lo or R >= hi.
  struct Pin {
    std::size_t n1, n0, lo, hi;
  };
  // Table entries (n1, n0): lower and upper critical values.
  const Pin pins[] = {
      {10, 10, 6, 16}, {12, 12, 7, 19}, {5, 5, 2, 10},
      {8, 8, 4, 14},   {6, 10, 4, 13},  // asymmetric case
  };
  for (const auto& pin : pins) {
    const auto [lo, hi] = runs_critical_region(pin.n1, pin.n0);
    EXPECT_EQ(lo, pin.lo) << "n1=" << pin.n1 << " n0=" << pin.n0;
    EXPECT_EQ(hi, pin.hi) << "n1=" << pin.n1 << " n0=" << pin.n0;
  }
}

TEST(RunsCriticalRegion, TailsHoldAlphaHalf) {
  for (const auto& [n1, n0] :
       {std::pair<std::size_t, std::size_t>{8, 13}, {15, 18}, {20, 20}}) {
    const auto [lo, hi] = runs_critical_region(n1, n0);
    EXPECT_LE(runs_cdf(lo, n1, n0), 0.025 + 1e-9);
    EXPECT_GT(runs_cdf(lo + 1, n1, n0), 0.025);
    double upper_tail = 0.0;
    for (std::size_t r = hi; r <= n1 + n0; ++r)
      upper_tail += runs_pmf(r, n1, n0);
    EXPECT_LE(upper_tail, 0.025 + 1e-9);
  }
}

TEST(CountRuns, Basics) {
  const std::vector<std::uint8_t> seq1 = {1, 1, 0, 0, 1};
  EXPECT_EQ(count_runs(seq1), 3u);
  const std::vector<std::uint8_t> seq2 = {1, 1, 1};
  EXPECT_EQ(count_runs(seq2), 1u);
  const std::vector<std::uint8_t> alternating = {1, 0, 1, 0, 1, 0};
  EXPECT_EQ(count_runs(alternating), 6u);
  EXPECT_EQ(count_runs(std::span<const std::uint8_t>{}), 0u);
}

TEST(RunsTest, PaperSequenceRejected) {
  // The 16-sample sequence from §3.1; boundary 0.44375, R = 4 -> reject.
  const std::vector<double> samples = {0.2, 0.1, 0.1, 0.2, 0.1, 0.1, 0.0, 0.0,
                                       0.8, 0.9, 1.0, 0.8, 0.9, 0.1, 0.9, 0.9};
  const auto result = runs_test(samples);
  EXPECT_EQ(result.n_pos, 7u);
  EXPECT_EQ(result.n_neg, 9u);
  EXPECT_EQ(result.runs, 4u);
  EXPECT_FALSE(result.random);
  EXPECT_FALSE(result.degenerate);
}

TEST(RunsTest, DegenerateWhenOneSided) {
  // Paper: N1 <= 1 or N0 <= 1 -> treat as non-random.
  const std::vector<double> nearly_constant = {1.0, 1.0, 1.0, 1.0,
                                               1.0, 1.0, 1.0, 0.0};
  const auto result = runs_test(nearly_constant);
  EXPECT_TRUE(result.degenerate);
  EXPECT_FALSE(result.random);
}

TEST(RunsTest, AlternatingSequenceRejectedAsTooManyRuns) {
  std::vector<double> samples;
  for (int i = 0; i < 30; ++i) samples.push_back(i % 2 == 0 ? 0.1 : 0.9);
  EXPECT_FALSE(runs_test(samples).random);
}

TEST(RunsTest, BlockSequenceRejectedAsTooFewRuns) {
  std::vector<double> samples(15, 0.1);
  samples.insert(samples.end(), 15, 0.9);
  EXPECT_FALSE(runs_test(samples).random);
}

TEST(RunsTest, LargeSampleNormalApproximationBranch) {
  // > 20 on both sides forces the normal-approximation path.
  util::Rng rng(7);
  std::vector<double> random_samples;
  for (int i = 0; i < 200; ++i) random_samples.push_back(rng.uniform());
  EXPECT_TRUE(runs_test(random_samples).random);

  std::vector<double> blocks(100, 0.1);
  blocks.insert(blocks.end(), 100, 0.9);
  EXPECT_FALSE(runs_test(blocks).random);
}

/// Property: across many random shuffles, the exact-test rejection rate
/// stays near the nominal 5% level.
TEST(RunsTest, FalseRejectionRateNearAlpha) {
  util::Rng rng(123);
  const int trials = 2000;
  int rejections = 0;
  int degenerate = 0;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> samples;
    for (int i = 0; i < 16; ++i) samples.push_back(rng.uniform());
    const auto result = runs_test(samples);
    if (result.degenerate) {
      ++degenerate;
    } else if (!result.random) {
      ++rejections;
    }
  }
  EXPECT_LT(degenerate, trials / 10);
  const double rate = static_cast<double>(rejections) /
                      static_cast<double>(trials - degenerate);
  // Exact test is conservative (discrete); the rate must be below ~5% and
  // not absurdly small.
  EXPECT_LT(rate, 0.06);
  EXPECT_GT(rate, 0.005);
}

struct RegionCase {
  std::size_t n1;
  std::size_t n0;
};

class RunsRegionSweep : public ::testing::TestWithParam<RegionCase> {};

TEST_P(RunsRegionSweep, RegionBracketsAreConsistent) {
  const auto [n1, n0] = GetParam();
  const auto [lo, hi] = runs_critical_region(n1, n0);
  EXPECT_GE(lo, 1u);
  EXPECT_LE(hi, n1 + n0 + 1);
  EXPECT_LT(lo + 1, hi);  // a non-empty acceptance region must exist
  // Observed run counts strictly inside the region are accepted.
  std::vector<std::uint8_t> coded;
  for (std::size_t i = 0; i < n1; ++i) coded.push_back(1);
  for (std::size_t i = 0; i < n0; ++i) coded.push_back(0);
  // Perfectly blocked -> 2 runs; must reject whenever 2 <= lo.
  const auto blocked = runs_test_coded(coded);
  if (2 <= lo) {
    EXPECT_FALSE(blocked.random);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallTable, RunsRegionSweep,
    ::testing::Values(RegionCase{5, 5}, RegionCase{5, 10}, RegionCase{8, 8},
                      RegionCase{10, 15}, RegionCase{12, 9}, RegionCase{16, 16},
                      RegionCase{20, 20}, RegionCase{18, 6}));

}  // namespace
}  // namespace parastack::stats
