#pragma once

#include <cstddef>

namespace parastack::stats {

/// Significance test for a hang (paper §3.1): under H0 ("application is
/// healthy"), the count Y of consecutive suspicions before the first
/// non-suspicion is geometric with suspicion probability q, so
/// P(Y >= k) = q^k. A hang is reported at confidence 1 - alpha once
/// k >= ceil(log_q(alpha)) consecutive suspicions are seen.
///
/// ceil(log_q(alpha)) — the number of consecutive suspicions required to
/// reject H0 at significance alpha. Requires q in (0, 1) and alpha in (0, 1).
std::size_t consecutive_suspicions_required(double q, double alpha);

}  // namespace parastack::stats
