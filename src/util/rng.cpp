#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/check.hpp"

namespace parastack::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  PS_CHECK(n > 0, "uniform_int requires n > 0");
  const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  PS_CHECK(lo <= hi, "uniform_int requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_int(span));
}

double Rng::normal() noexcept {
  // Box–Muller; discard the second variate for a stateless stream position.
  double u1 = uniform();
  const double u2 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal_mean_cv(double mean, double cv) noexcept {
  if (cv <= 0.0) return mean;
  // For lognormal(mu, sigma): E = exp(mu + sigma^2/2), CV^2 = exp(sigma^2)-1.
  //
  // The (mu, sigma) parameters are a pure function of (mean, cv), and the
  // simulation draws millions of variates from a handful of distributions
  // (each phase's compute profile). A tiny direct-mapped memo shaves three
  // libm calls (two logs and a sqrt) off the repeat draws; the cached
  // doubles are the exact values a fresh computation would produce, so the
  // variate stream is bit-identical.
  struct Params {
    double mean, cv, mu, sigma;
  };
  thread_local Params memo[4] = {};
  thread_local unsigned memo_next = 0;
  double mu = 0.0;
  double sigma = 0.0;
  bool hit = false;
  for (const Params& p : memo) {
    if (p.mean == mean && p.cv == cv && p.cv != 0.0) {
      mu = p.mu;
      sigma = p.sigma;
      hit = true;
      break;
    }
  }
  if (!hit) {
    const double sigma2 = std::log(1.0 + cv * cv);
    mu = std::log(mean) - 0.5 * sigma2;
    sigma = std::sqrt(sigma2);
    memo[memo_next] = {mean, cv, mu, sigma};
    memo_next = (memo_next + 1) % 4;
  }
  return std::exp(mu + sigma * normal());
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::exponential(double mean) noexcept {
  PS_CHECK(mean > 0.0, "exponential requires mean > 0");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

Rng Rng::fork() noexcept { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace parastack::util
