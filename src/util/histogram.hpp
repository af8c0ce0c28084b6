#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace parastack::util {

/// Fixed-width bucket histogram over [lo, hi). Samples outside the range
/// are NOT folded into the edge buckets (that silently corrupts the tails);
/// they are tracked in explicit underflow/overflow counters and rendered as
/// their own rows by ascii(). Used for the response-delay distribution
/// plots (paper Figure 9) and S_out waveform summaries.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;

  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::size_t count(std::size_t bucket) const;
  /// Every sample ever added, including out-of-range ones.
  std::size_t total() const noexcept { return total_; }
  /// Samples below lo (x < lo).
  std::size_t underflow() const noexcept { return underflow_; }
  /// Samples at/above hi (x >= hi; the range is half-open).
  std::size_t overflow() const noexcept { return overflow_; }
  /// Samples that landed in a bucket.
  std::size_t in_range() const noexcept {
    return total_ - underflow_ - overflow_;
  }
  /// Inclusive lower edge of a bucket. add() indexes by exactly these
  /// edges: a sample equal to bucket_lo(b) lands in bucket b, and one just
  /// below it lands in b-1 — even when floating-point division of
  /// (x - lo) / width would round to the neighbouring bucket.
  double bucket_lo(std::size_t bucket) const;
  double bucket_hi(std::size_t bucket) const;

  /// Render as an ASCII bar chart, one line per bucket, for bench output.
  /// Non-empty underflow/overflow counters get their own "< lo" / ">= hi"
  /// rows so out-of-range mass stays visible.
  std::string ascii(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace parastack::util
