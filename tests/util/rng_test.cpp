#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace parastack::util {
namespace {

TEST(Rng, DeterministicUnderSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(3.0, 5.0);
    ASSERT_GE(x, 3.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(11);
  bool saw_zero = false;
  bool saw_max = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    if (v == 0) saw_zero = true;
    if (v == 9) saw_max = true;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    ASSERT_GE(v, -5);
    ASSERT_LE(v, 5);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, LognormalMeanCv) {
  Rng rng(19);
  const double target_mean = 10.0;
  const double cv = 0.25;
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal_mean_cv(target_mean, cv);
    ASSERT_GT(x, 0.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, target_mean, 0.1);
  EXPECT_NEAR(std::sqrt(var) / mean, cv, 0.02);
}

TEST(Rng, LognormalZeroCvIsExact) {
  Rng rng(21);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(3.5, 0.0), 3.5);
}

TEST(Rng, SkipLognormalAdvancesLikeADraw) {
  // The replay prefix skips draws it would discard: the stream must be
  // left exactly where the draw leaves it, for every kind of cv the draw
  // tells apart (above 0 draws, 0 and below do not, NaN does).
  for (const double cv : {0.3, 0.0, -0.5, std::nan("")}) {
    SCOPED_TRACE(cv);
    Rng drawn(5);
    Rng skipped(5);
    (void)drawn.lognormal_mean_cv(1e6, cv);
    skipped.skip_lognormal(cv);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(drawn.next(), skipped.next());
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / 50000.0, 4.0, 0.1);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(31);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.next() == child2.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngDeath, UniformIntRejectsZero) {
  Rng rng(1);
  EXPECT_DEATH((void)rng.uniform_int(0), "n > 0");
}

}  // namespace
}  // namespace parastack::util
