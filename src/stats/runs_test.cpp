#include "stats/runs_test.hpp"

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace parastack::stats {

namespace {

/// lgamma(x) for x > 0. std::lgamma also stores the sign in the global
/// signgam, a data race when campaign or fleet workers run runs tests at
/// once; lgamma_r computes the same value into a local instead.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// log C(n, k) via lgamma; -inf when k out of range.
double log_choose(std::size_t n, std::size_t k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double choose_ratio_exp(double log_num, double log_den) {
  if (!std::isfinite(log_num)) return 0.0;
  return std::exp(log_num - log_den);
}

constexpr std::size_t kExactLimit = 20;  // Swed–Eisenhart table coverage
constexpr double kZ975 = 1.959963984540054;

}  // namespace

double runs_pmf(std::size_t r, std::size_t n1, std::size_t n0) {
  if (n1 == 0 || n0 == 0) return (r == 1 && n1 + n0 >= 1) ? 1.0 : 0.0;
  if (r < 2 || r > n1 + n0) return 0.0;
  const double log_total = log_choose(n1 + n0, n1);
  if (r % 2 == 0) {
    const std::size_t k = r / 2;
    if (k < 1) return 0.0;
    const double t = log_choose(n1 - 1, k - 1) + log_choose(n0 - 1, k - 1);
    return 2.0 * choose_ratio_exp(t, log_total);
  }
  const std::size_t k = (r - 1) / 2;
  if (k < 1) return 0.0;
  const double a = log_choose(n1 - 1, k - 1) + log_choose(n0 - 1, k);
  const double b = log_choose(n1 - 1, k) + log_choose(n0 - 1, k - 1);
  return choose_ratio_exp(a, log_total) + choose_ratio_exp(b, log_total);
}

std::pair<std::size_t, std::size_t> runs_critical_region(std::size_t n1,
                                                         std::size_t n0,
                                                         double alpha) {
  PS_CHECK(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
  const std::size_t n = n1 + n0;
  const double tail = alpha / 2.0;
  // Largest lo with P(R <= lo) <= tail.
  std::size_t lo = 1;
  double acc = 0.0;
  for (std::size_t r = 2; r <= n; ++r) {
    acc += runs_pmf(r, n1, n0);
    if (acc <= tail + 1e-12) {
      lo = r;
    } else {
      break;
    }
  }
  // Smallest hi with P(R >= hi) <= tail.
  std::size_t hi = n + 1;
  acc = 0.0;
  for (std::size_t r = n; r >= 2; --r) {
    acc += runs_pmf(r, n1, n0);
    if (acc <= tail + 1e-12) {
      hi = r;
    } else {
      break;
    }
  }
  return {lo, hi};
}

std::size_t count_runs(std::span<const std::uint8_t> coded) {
  if (coded.empty()) return 0;
  std::size_t runs = 1;
  for (std::size_t i = 1; i < coded.size(); ++i) {
    if (coded[i] != coded[i - 1]) ++runs;
  }
  return runs;
}

RunsTestResult runs_test_coded(std::span<const std::uint8_t> coded,
                               double alpha) {
  RunsTestResult result;
  for (const std::uint8_t c : coded) (c != 0 ? result.n_pos : result.n_neg)++;
  result.runs = count_runs(coded);
  // Paper §3.1: when either side has <= 1 element the non-rejection region
  // is unavailable; assume non-random to avoid trusting a degenerate model.
  if (result.n_pos <= 1 || result.n_neg <= 1) {
    result.degenerate = true;
    result.random = false;
    return result;
  }
  if (result.n_pos <= kExactLimit && result.n_neg <= kExactLimit) {
    const auto [lo, hi] =
        runs_critical_region(result.n_pos, result.n_neg, alpha);
    result.random = result.runs > lo && result.runs < hi;
    return result;
  }
  const auto n1 = static_cast<double>(result.n_pos);
  const auto n0 = static_cast<double>(result.n_neg);
  const double n = n1 + n0;
  const double mu = 1.0 + 2.0 * n1 * n0 / n;
  const double var = 2.0 * n1 * n0 * (2.0 * n1 * n0 - n) / (n * n * (n - 1.0));
  const double z =
      (static_cast<double>(result.runs) - mu) / std::sqrt(std::max(var, 1e-12));
  // alpha is fixed at 5% for the approximate branch too; generalize via the
  // inverse normal if other levels are ever needed.
  (void)alpha;
  result.random = std::abs(z) <= kZ975;
  return result;
}

RunsTestResult runs_test(std::span<const double> samples, double alpha) {
  std::vector<std::uint8_t> coded;
  coded.reserve(samples.size());
  const double sum = std::accumulate(samples.begin(), samples.end(), 0.0);
  const double mean =
      samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
  for (const double s : samples) coded.push_back(s >= mean ? 1 : 0);
  return runs_test_coded(coded, alpha);
}

}  // namespace parastack::stats
