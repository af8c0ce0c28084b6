#include "stats/ecdf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace parastack::stats {
namespace {

TEST(EmpiricalCdf, EmptyBehaviour) {
  EmpiricalCdf ecdf;
  EXPECT_TRUE(ecdf.empty());
  EXPECT_TRUE(ecdf.support().empty());
}

TEST(EmpiricalCdf, QuantileIsGeneralizedInverse) {
  EmpiricalCdf ecdf;
  for (const double v : {0.1, 0.2, 0.2, 0.9}) ecdf.add(v);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.25), 0.1);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.26), 0.2);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.75), 0.2);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.76), 0.9);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 0.9);
}

TEST(EmpiricalCdf, SupportIsSortedDistinctCumulative) {
  EmpiricalCdf ecdf;
  for (const double v : {0.5, 0.0, 0.5, 1.0, 0.0, 0.0}) ecdf.add(v);
  const auto& support = ecdf.support();
  ASSERT_EQ(support.size(), 3u);
  EXPECT_DOUBLE_EQ(support[0].value, 0.0);
  EXPECT_DOUBLE_EQ(support[0].cum_prob, 0.5);
  EXPECT_DOUBLE_EQ(support[1].value, 0.5);
  EXPECT_DOUBLE_EQ(support[1].cum_prob, 5.0 / 6.0);
  EXPECT_DOUBLE_EQ(support[2].value, 1.0);
  EXPECT_DOUBLE_EQ(support[2].cum_prob, 1.0);
}

TEST(EmpiricalCdf, ThinHalfKeepsEveryOtherSampleInTimeOrder) {
  EmpiricalCdf ecdf;
  for (int i = 0; i < 10; ++i) ecdf.add(static_cast<double>(i));
  ecdf.thin_half();
  ASSERT_EQ(ecdf.size(), 5u);
  const auto& samples = ecdf.samples();
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(samples[static_cast<std::size_t>(i)],
                     static_cast<double>(2 * i));
  }
  // Odd count: keeps ceil(n/2).
  ecdf.thin_half();
  EXPECT_EQ(ecdf.size(), 3u);
}

TEST(EmpiricalCdf, QuantileZeroIsMinimumSample) {
  // The closed lower bound: p == 0 asks for the infimum of the support,
  // which for a finite sample set is the minimum sample.
  EmpiricalCdf ecdf;
  for (const double v : {0.7, 0.2, 0.9, 0.2}) ecdf.add(v);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.0), 0.2);
  // Still the generalized inverse everywhere else.
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 0.9);
}

/// The ECDF rebuilt from scratch: sort the samples, group equal values.
std::vector<EmpiricalCdf::Point> reference_support(
    const std::vector<double>& samples) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  std::vector<EmpiricalCdf::Point> support;
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    support.push_back({sorted[i], static_cast<double>(j) / n});
    i = j;
  }
  return support;
}

double reference_cdf(const std::vector<EmpiricalCdf::Point>& support,
                     double x) {
  double f = 0.0;
  for (const auto& point : support) {
    if (point.value <= x) f = point.cum_prob;
  }
  return f;
}

double reference_quantile(const std::vector<EmpiricalCdf::Point>& support,
                          double p) {
  for (const auto& point : support) {
    if (point.cum_prob >= p - 1e-12) return point.value;
  }
  return support.back().value;
}

TEST(EmpiricalCdf, QuantileCdfRoundTrip) {
  EmpiricalCdf ecdf;
  for (int i = 0; i < 50; ++i) ecdf.add(0.1 * (i % 10));
  const auto support = reference_support(ecdf.samples());
  for (const double p : {0.1, 0.3, 0.5, 0.77, 1.0}) {
    const double t = ecdf.quantile(p);
    EXPECT_GE(reference_cdf(support, t) + 1e-12, p);
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Check every query against the reference built from samples().
void expect_matches_reference(const EmpiricalCdf& ecdf, util::Rng& rng) {
  const auto want = reference_support(ecdf.samples());
  const auto& got = ecdf.support();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i].value), bits(want[i].value)) << "point " << i;
    ASSERT_EQ(bits(got[i].cum_prob), bits(want[i].cum_prob)) << "point " << i;
  }
  if (want.empty()) return;
  std::vector<double> ps = {0.0, 1.0, rng.uniform()};
  for (const auto& point : want) ps.push_back(point.cum_prob);
  for (const double p : ps) {
    ASSERT_EQ(bits(ecdf.quantile(p)), bits(reference_quantile(want, p)))
        << "p " << p;
  }
}

TEST(EmpiricalCdf, IncrementalRefreshMatchesFullRebuild) {
  // Randomized differential test: interleave add, thin_half and clear with
  // queries, and hold support() and quantile() bit for bit to an
  // ECDF rebuilt from samples(). Two kinds of input: the 11 values S_crout
  // takes over ten monitored ranks (k/10), and continuous values that are
  // almost all distinct.
  for (const bool few_values : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "few_values " << few_values << " seed " << seed);
      util::Rng rng(seed);
      EmpiricalCdf ecdf;
      std::vector<double> mirror;  // the samples, in time order
      for (int step = 0; step < 3000; ++step) {
        const double op = rng.uniform();
        if (op < 0.95) {
          const double x = few_values
                               ? static_cast<double>(rng.uniform_int(11)) / 10.0
                               : rng.uniform();
          ecdf.add(x);
          mirror.push_back(x);
        } else if (op < 0.996) {
          expect_matches_reference(ecdf, rng);
        } else if (op < 0.999) {
          ecdf.thin_half();
          std::vector<double> kept;
          for (std::size_t i = 0; i < mirror.size(); i += 2) {
            kept.push_back(mirror[i]);
          }
          mirror = std::move(kept);
        } else {
          ecdf.clear();
          mirror.clear();
        }
        ASSERT_EQ(ecdf.samples(), mirror);
        if (testing::Test::HasFatalFailure()) return;
      }
      expect_matches_reference(ecdf, rng);
    }
  }
}

TEST(EmpiricalCdfDeath, QuantileRequiresValidArgs) {
  EmpiricalCdf ecdf;
  EXPECT_DEATH((void)ecdf.quantile(0.5), "empty");
  ecdf.add(1.0);
  EXPECT_DEATH((void)ecdf.quantile(-0.1), "p must be");
  EXPECT_DEATH((void)ecdf.quantile(1.5), "p must be");
}

}  // namespace
}  // namespace parastack::stats
