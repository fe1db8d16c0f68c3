// Deterministic pseudo-random number generation for workload synthesis.
//
// Everything in this library that is stochastic (workload generation,
// background load, fault injection, train/test splits, model subsampling)
// draws from xfl::Rng so that every experiment is exactly reproducible from
// a single 64-bit seed. The engine is xoshiro256++ (Blackman & Vigna), which
// is fast, has 2^256-1 period, and passes BigCrush; we implement it directly
// rather than using std::mt19937 so that streams are stable across standard
// library versions.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace xfl {

/// Deterministic random number generator with the distributions needed by
/// the workload generator and the ML substrate.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via splitmix64, as recommended by
  /// the xoshiro authors; any seed (including 0) yields a valid state.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64-bit draw (xoshiro256++). Inline, like uniform(): per-row
  /// draws (GBT row subsampling) would otherwise pay two calls per draw.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Marsaglia polar method.
  double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Log-normal: exp(N(mu, sigma)). Used for file sizes and transfer sizes,
  /// which span many decades in the Globus logs (1 B .. ~1 PB).
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (lambda > 0). Used for Poisson arrivals.
  double exponential(double lambda);

  /// Poisson-distributed count with the given mean (mean >= 0). Knuth's
  /// method for small means, normal approximation above 64.
  std::int64_t poisson(double mean);

  /// Pareto (heavy tail) with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha);

  /// Weibull draw with shape k > 0 and scale lambda > 0.
  double weibull(double k, double lambda);

  /// Bernoulli draw with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of indices [0, n); returns the permutation.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derive an independent child generator (for per-component streams).
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  // Cached second variate from the polar method.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace xfl
