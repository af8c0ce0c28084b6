// Figure 5: the analytic relation among sample size, suspicion probability
// and tolerance error — n(p) = 3.8416/e^2 * p(1-p) against the 5/p rule —
// and the (p_m, n_m) minima for each tolerance level.

#include <cstdio>

#include "bench_common.hpp"
#include "stats/binomial.hpp"

using namespace parastack;

int bench::fig5_sample_size() {
  std::printf("minima (paper: (0.47,11), (0.27,19), (0.12,42), (0.06,86)):\n");
  std::printf("%6s %8s %8s\n", "e", "p_m", "n_m");
  for (const double e : stats::kToleranceLadder) {
    const auto point = stats::optimal_suspicion_point(e);
    std::printf("%6.2f %8.2f %8zu\n", e, point.p_m, point.n_m);
  }

  std::printf("\ncurves f_max(p) = max{5/p, 3.8416/e^2 p(1-p)} on (0, 0.5]:\n");
  std::printf("%6s", "p");
  for (const double e : stats::kToleranceLadder) std::printf(" %9.2f", e);
  std::printf(" %9s\n", "5/p");
  for (double p = 0.02; p <= 0.5001; p += 0.04) {
    std::printf("%6.2f", p);
    for (const double e : stats::kToleranceLadder) {
      std::printf(" %9.1f", stats::min_samples_for(p, e));
    }
    std::printf(" %9.1f\n", 5.0 / p);
  }

  std::printf(
      "\n95%% confidence brackets the model uses as n grows "
      "(paper §3.2):\n");
  const char* brackets[] = {
      "11 <= n < 19 : p in [0.17, 0.77] (e = 0.3)",
      "19 <= n < 42 : p in [0.07, 0.47] (e = 0.2)",
      "42 <= n < 86 : p in [0.02, 0.22] (e = 0.1)",
      "n >= 86      : p in [0.01, 0.11] (e = 0.05)",
  };
  for (const auto* line : brackets) std::printf("  %s\n", line);
  return 0;
}
