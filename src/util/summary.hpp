#pragma once

#include <cstddef>
#include <vector>

namespace parastack::util {

/// Streaming descriptive statistics (Welford's online algorithm).
/// Numerically stable for long campaigns; O(1) memory.
class Summary {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept;
  /// Sample variance (n-1 denominator). 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact quantile over a retained sample vector. `q` in [0, 1]; linear
/// interpolation between order statistics (type-7, the R/NumPy default).
double quantile(std::vector<double> values, double q);

}  // namespace parastack::util
