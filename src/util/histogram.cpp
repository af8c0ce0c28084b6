#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace parastack::util {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  PS_CHECK(hi > lo, "histogram range must be non-empty");
  PS_CHECK(buckets > 0, "histogram needs at least one bucket");
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  // In-range values can still compute an index == size() through rounding
  // (x just below hi with a coarse width); clamp that edge case only.
  auto idx = std::min(static_cast<std::size_t>((x - lo_) / width_),
                      counts_.size() - 1);
  // (x - lo) / width and the published edges lo + width * b round
  // differently, so a sample exactly on (or within one ulp of) an edge can
  // index the neighbouring bucket. Nudge until add() agrees with
  // bucket_lo/bucket_hi — at most one step either way.
  if (x < bucket_lo(idx) && idx > 0) {
    --idx;
  } else if (x >= bucket_hi(idx) && idx + 1 < counts_.size()) {
    ++idx;
  }
  ++counts_[idx];
}

std::size_t Histogram::count(std::size_t bucket) const {
  PS_CHECK(bucket < counts_.size(), "histogram bucket out of range");
  return counts_[bucket];
}

double Histogram::bucket_lo(std::size_t bucket) const {
  PS_CHECK(bucket < counts_.size(), "histogram bucket out of range");
  return lo_ + width_ * static_cast<double>(bucket);
}

double Histogram::bucket_hi(std::size_t bucket) const {
  // Exactly the next bucket's published lower edge (and exactly hi_ for the
  // last bucket): lo + width * b + width rounds differently from
  // lo + width * (b + 1), and two inconsistent edge sets would let add()
  // and the edges disagree about samples sitting on a boundary.
  return bucket + 1 == counts_.size() ? hi_ : bucket_lo(bucket + 1);
}

std::string Histogram::ascii(std::size_t max_width) const {
  std::size_t peak =
      counts_.empty() ? 0 : *std::max_element(counts_.begin(), counts_.end());
  peak = std::max({peak, underflow_, overflow_});
  std::string out;
  char line[128];
  const auto bar_for = [&](std::size_t count) {
    return peak == 0 ? std::size_t{0} : count * max_width / peak;
  };
  if (underflow_ > 0) {
    std::snprintf(line, sizeof line, "           < %8.2f  %6zu |", lo_,
                  underflow_);
    out += line;
    out.append(bar_for(underflow_), '#');
    out += '\n';
  }
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    std::snprintf(line, sizeof line, "[%8.2f, %8.2f) %6zu |", bucket_lo(b),
                  bucket_hi(b), counts_[b]);
    out += line;
    out.append(bar_for(counts_[b]), '#');
    out += '\n';
  }
  if (overflow_ > 0) {
    std::snprintf(line, sizeof line, "          >= %8.2f  %6zu |", hi_,
                  overflow_);
    out += line;
    out.append(bar_for(overflow_), '#');
    out += '\n';
  }
  return out;
}

}  // namespace parastack::util
