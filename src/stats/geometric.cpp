#include "stats/geometric.hpp"

#include <cmath>

#include "util/check.hpp"

namespace parastack::stats {

std::size_t consecutive_suspicions_required(double q, double alpha) {
  PS_CHECK(q > 0.0 && q < 1.0, "q must be in (0,1)");
  PS_CHECK(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
  const double k = std::log(alpha) / std::log(q);
  return static_cast<std::size_t>(std::ceil(k - 1e-12));
}

}  // namespace parastack::stats
