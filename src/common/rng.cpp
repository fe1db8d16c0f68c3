#include "common/rng.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace xfl {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

double Rng::uniform(double lo, double hi) {
  XFL_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  XFL_EXPECTS(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % span;
  std::uint64_t draw;
  do {
    draw = next_u64();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sigma) {
  XFL_EXPECTS(sigma >= 0.0);
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double lambda) {
  XFL_EXPECTS(lambda > 0.0);
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / lambda;
}

std::int64_t Rng::poisson(double mean) {
  XFL_EXPECTS(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction; adequate for the
    // large-mean draws used in workload sizing.
    const double draw = normal(mean, std::sqrt(mean));
    return draw < 0.0 ? 0 : static_cast<std::int64_t>(draw + 0.5);
  }
  const double limit = std::exp(-mean);
  std::int64_t count = 0;
  double product = uniform();
  while (product > limit) {
    ++count;
    product *= uniform();
  }
  return count;
}

double Rng::pareto(double xm, double alpha) {
  XFL_EXPECTS(xm > 0.0 && alpha > 0.0);
  return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
}

double Rng::weibull(double k, double lambda) {
  XFL_EXPECTS(k > 0.0 && lambda > 0.0);
  return lambda * std::pow(-std::log(1.0 - uniform()), 1.0 / k);
}

bool Rng::bernoulli(double p) {
  XFL_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace xfl
