#pragma once

#include <cstdint>
#include <limits>

namespace parastack::util {

/// splitmix64: used to expand a user seed into xoshiro state.
/// Reference: Sebastiano Vigna, public-domain reference implementation.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** — fast, high-quality, reproducible PRNG.
///
/// We deliberately avoid std::mt19937 so that streams are identical across
/// standard-library implementations: the experiment campaigns are seeded and
/// their outputs (EXPERIMENTS.md) must be reproducible everywhere.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box–Muller (no cached spare: keeps the state
  /// trivially copyable and the stream position obvious).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;
  /// Lognormal such that the *mean* of the distribution is `mean` and the
  /// coefficient of variation is `cv`. Returns `mean` exactly when cv == 0.
  double lognormal_mean_cv(double mean, double cv) noexcept;
  /// Advance the stream exactly as lognormal_mean_cv(mean, cv) would, for
  /// any mean, without computing the variate.
  void skip_lognormal(double cv) noexcept {
    if (cv <= 0.0) return;
    next();  // the two uniforms of normal()
    next();
  }
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept;
  /// Exponential with the given mean. Requires mean > 0.
  double exponential(double mean) noexcept;

  /// Derive an independent child stream (for per-rank / per-run RNGs).
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace parastack::util
