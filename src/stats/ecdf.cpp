#include "stats/ecdf.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace parastack::stats {

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  count(x);
}

void EmpiricalCdf::count(double x) {
  const auto it =
      std::lower_bound(counts_.begin(), counts_.end(), x,
                       [](const Count& c, double v) { return c.value < v; });
  if (it != counts_.end() && it->value == x) {
    ++it->n;
  } else {
    counts_.insert(it, {x, 1});
  }
  dirty_ = true;
}

void EmpiricalCdf::clear() {
  samples_.clear();
  counts_.clear();
  support_.clear();
  dirty_ = false;
}

void EmpiricalCdf::refresh() const {
  if (!dirty_) return;
  support_.clear();
  const auto n = static_cast<double>(samples_.size());
  std::size_t below = 0;
  for (const Count& c : counts_) {
    below += c.n;
    support_.push_back({c.value, static_cast<double>(below) / n});
  }
  dirty_ = false;
}

double EmpiricalCdf::quantile(double p) const {
  PS_CHECK(!samples_.empty(), "quantile of empty ECDF");
  PS_CHECK(p >= 0.0 && p <= 1.0, "quantile p must be in [0,1]");
  refresh();
  // p == 0 asks for the infimum of the support: the minimum sample. The
  // general search below already lands there (every cum_prob >= 0), so the
  // closed lower bound needs no special case.
  const auto it = std::partition_point(
      support_.begin(), support_.end(),
      [p](const Point& pt) { return pt.cum_prob < p - 1e-12; });
  if (it == support_.end()) return support_.back().value;
  return it->value;
}

const std::vector<EmpiricalCdf::Point>& EmpiricalCdf::support() const {
  refresh();
  return support_;
}

void EmpiricalCdf::thin_half() {
  std::vector<double> kept;
  kept.reserve((samples_.size() + 1) / 2);
  for (std::size_t i = 0; i < samples_.size(); i += 2) {
    kept.push_back(samples_[i]);
  }
  samples_ = std::move(kept);
  counts_.clear();
  for (const double x : samples_) count(x);
  dirty_ = true;
}

}  // namespace parastack::stats
