#include "util/summary.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace parastack::util {

void Summary::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Summary::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double Summary::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

double Summary::min() const noexcept { return n_ == 0 ? 0.0 : min_; }

double Summary::max() const noexcept { return n_ == 0 ? 0.0 : max_; }

double quantile(std::vector<double> values, double q) {
  PS_CHECK(!values.empty(), "quantile of empty sample");
  PS_CHECK(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double h = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace parastack::util
