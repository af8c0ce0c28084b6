#pragma once

#include <cstddef>
#include <vector>

namespace parastack::stats {

/// Empirical cumulative distribution function over a growing sample set.
///
/// Samples are retained in insertion (time) order so the detector can both
/// (a) run the runs test over the most recent window and (b) thin the
/// history when the sampling interval doubles (paper §3.1: "we cut the
/// sample size by half"). Distribution queries use the distinct values in
/// increasing order with a count for each, kept current by add() and
/// thin_half(). S_crout over C monitored ranks takes at most C + 1 values,
/// so a query costs O(C) however many samples have been taken.
class EmpiricalCdf {
 public:
  void add(double x);
  void clear();

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  /// Samples in insertion order.
  const std::vector<double>& samples() const noexcept { return samples_; }

  /// F(x) = fraction of samples <= x. 0 for an empty sample set.
  double cdf(double x) const;

  /// Smallest sample value v with F(v) >= p; requires a non-empty set and
  /// p in [0, 1]. (The paper's t = F_n^{-1}(p).) p == 0 returns the minimum
  /// sample — the infimum of the support, matching util::Histogram::quantile
  /// so every quantile surface in the tree accepts the same closed domain.
  double quantile(double p) const;

  /// Mean of the samples (0 when empty).
  double mean() const;

  /// Distinct sample values in increasing order with their cumulative
  /// probabilities — the support the robust model walks when discretizing
  /// the target suspicion probability p_m (paper §3.2).
  struct Point {
    double value;
    double cum_prob;  ///< F(value)
  };
  const std::vector<Point>& support() const;

  /// Keep every other sample (even indices), halving the history. Preserves
  /// time order and roughly the time span, emulating samples taken at the
  /// doubled interval.
  void thin_half();

 private:
  struct Count {
    double value;
    std::size_t n;
  };

  void count(double x);
  void refresh() const;

  std::vector<double> samples_;
  /// Distinct sample values in increasing order, each with its count.
  std::vector<Count> counts_;
  /// support() built from counts_; rebuilt on the first query after a
  /// change.
  mutable std::vector<Point> support_;
  mutable bool dirty_ = false;
};

}  // namespace parastack::stats
