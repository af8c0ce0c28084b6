#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace parastack::stats {

/// Wald–Wolfowitz runs test for randomness of a two-valued sequence
/// (paper §3.1). Samples are coded positive when >= the sequence mean and
/// negative otherwise; a run is a maximal block of equal codes.
///
/// For small samples (both counts <= 20) the exact run-count distribution is
/// used — this reproduces the Swed–Eisenhart (1943) critical-value tables
/// the paper references. For larger samples the standard normal
/// approximation is used.
struct RunsTestResult {
  std::size_t n_pos = 0;    ///< samples >= mean (coded +)
  std::size_t n_neg = 0;    ///< samples <  mean (coded -)
  std::size_t runs = 0;     ///< observed number of runs R
  bool random = false;      ///< true iff H0 ("sequence is random") survives
  bool degenerate = false;  ///< n_pos <= 1 or n_neg <= 1 (paper: treat as
                            ///< non-random to stay conservative)
};

/// Exact probability P(R = r) for a random arrangement of n1 positives and
/// n0 negatives. Zero outside the feasible range [2, n1+n0].
double runs_pmf(std::size_t r, std::size_t n1, std::size_t n0);

/// Two-tailed critical values {lo, hi} at significance `alpha`: reject H0
/// iff R <= lo or R >= hi, with each tail holding at most alpha/2.
/// lo may be 1 (nothing rejectable on the low side) and hi may be
/// n1+n0+1 (nothing rejectable on the high side).
std::pair<std::size_t, std::size_t> runs_critical_region(std::size_t n1,
                                                         std::size_t n0,
                                                         double alpha = 0.05);

/// Count runs in a +/- coding (true = positive).
std::size_t count_runs(std::span<const std::uint8_t> coded);

/// Code samples against their mean (>= mean -> positive) and run the test.
RunsTestResult runs_test(std::span<const double> samples, double alpha = 0.05);

/// Run the test on an explicit coding.
RunsTestResult runs_test_coded(std::span<const std::uint8_t> coded,
                               double alpha = 0.05);

}  // namespace parastack::stats
