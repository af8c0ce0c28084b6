#include "stats/geometric.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace parastack::stats {
namespace {

/// The oracle: P(Y >= k) = q^k for a geometric streak length Y.
double prob_at_least_k_consecutive(double q, std::size_t k) {
  return std::pow(q, static_cast<double>(k));
}

TEST(Geometric, TailProbability) {
  EXPECT_DOUBLE_EQ(prob_at_least_k_consecutive(0.5, 3), 0.125);
  EXPECT_DOUBLE_EQ(prob_at_least_k_consecutive(0.0, 5), 0.0);
  EXPECT_DOUBLE_EQ(prob_at_least_k_consecutive(0.9, 0), 1.0);
}

TEST(Geometric, PaperWorstCase) {
  // §3.3: with q <= 0.77, ceil(log_0.77 0.001) = 27 suspicions verify a
  // hang, hence the 30-observation set-switching period.
  EXPECT_EQ(consecutive_suspicions_required(0.77, 0.001), 27u);
}

TEST(Geometric, KnownValues) {
  EXPECT_EQ(consecutive_suspicions_required(0.1, 0.001), 3u);
  EXPECT_EQ(consecutive_suspicions_required(0.5, 0.001), 10u);
  // q = 0.316...: log_q(0.001) just over 6.
  EXPECT_EQ(consecutive_suspicions_required(0.3, 0.001), 6u);
}

TEST(Geometric, GuaranteeHolds) {
  // By construction q^k <= alpha for the returned k, and k is minimal.
  for (const double q : {0.05, 0.1, 0.3, 0.5, 0.77, 0.9}) {
    for (const double alpha : {0.05, 0.01, 0.001}) {
      const std::size_t k = consecutive_suspicions_required(q, alpha);
      EXPECT_LE(prob_at_least_k_consecutive(q, k), alpha + 1e-12);
      if (k > 1) {
        EXPECT_GT(prob_at_least_k_consecutive(q, k - 1), alpha - 1e-12);
      }
    }
  }
}

TEST(GeometricDeath, DomainChecks) {
  EXPECT_DEATH((void)consecutive_suspicions_required(1.0, 0.001), "q must be");
  EXPECT_DEATH((void)consecutive_suspicions_required(0.5, 0.0),
               "alpha must be");
}

}  // namespace
}  // namespace parastack::stats
