#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ml/mic.hpp"

namespace xfl::ml {
namespace {

std::vector<double> linspace(std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = lo + (hi - lo) * static_cast<double>(i) /
                    static_cast<double>(n - 1);
  return v;
}

TEST(Mic, HighForLinearRelationship) {
  const auto x = linspace(500, 0.0, 1.0);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 3.0 * x[i] + 1.0;
  EXPECT_GT(mic(x, y), 0.95);
}

TEST(Mic, HighForNoiselessParabola) {
  // Pearson ~0 for a symmetric parabola, but MIC should be high —
  // exactly the nonlinear-dependence evidence Table 5 relies on.
  const auto x = linspace(500, -1.0, 1.0);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] * x[i];
  EXPECT_LT(std::fabs(xfl::pearson(x, y)), 0.05);
  EXPECT_GT(mic(x, y), 0.8);
}

TEST(Mic, HighForSinusoid) {
  const auto x = linspace(600, 0.0, 4.0 * 3.14159265);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::sin(x[i]);
  EXPECT_GT(mic(x, y), 0.6);
}

TEST(Mic, LowForIndependentNoise) {
  Rng rng(5);
  std::vector<double> x(800), y(800);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  EXPECT_LT(mic(x, y), 0.35);
}

TEST(Mic, ZeroForConstantInput) {
  // The paper's Table 5 reports 0.00 MIC for the constant C and P columns.
  const std::vector<double> constant(100, 4.0);
  const auto y = linspace(100, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(mic(constant, y), 0.0);
  EXPECT_DOUBLE_EQ(mic(y, constant), 0.0);
}

TEST(Mic, TinySamplesReturnZero) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mic(x, x), 0.0);
}

TEST(Mic, SymmetricInArguments) {
  Rng rng(6);
  std::vector<double> x(300), y(300);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform();
    y[i] = x[i] * x[i] + rng.normal(0.0, 0.05);
  }
  EXPECT_NEAR(mic(x, y), mic(y, x), 1e-12);
}

TEST(Mic, BoundedByOne) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x(200), y(200);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.normal();
      y[i] = 0.5 * x[i] + rng.normal(0.0, 0.3);
    }
    const double value = mic(x, y);
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 1.0);
  }
}

TEST(Mic, NoisyRelationshipBetweenExtremes) {
  Rng rng(8);
  std::vector<double> x(600), y(600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(0.0, 1.0);
    y[i] = x[i] + rng.normal(0.0, 0.3);  // Strong but noisy.
  }
  const double noisy = mic(x, y);
  EXPECT_GT(noisy, 0.15);
  EXPECT_LT(noisy, 0.9);
}

TEST(Mic, DownsamplingKeepsSignal) {
  // 50k-point deterministic curve with a small sample budget.
  const auto x = linspace(50000, 0.0, 1.0);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::sqrt(x[i]);
  MicOptions options;
  options.max_samples = 500;
  EXPECT_GT(mic(x, y, options), 0.9);
}

// Exact bits on three seeded samples: the estimate moves if the grid
// budget, the clump search or the superclump factor changes.
TEST(Mic, SeededSamplesMatchPinnedBits) {
  Rng rng(31);
  std::vector<double> x(700), linear(700), parabola(700), noise(700);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(-1.0, 1.0);
    linear[i] = 2.0 * x[i] + rng.normal(0.0, 0.4);
    parabola[i] = x[i] * x[i] + rng.normal(0.0, 0.1);
    noise[i] = rng.uniform();
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::uint64_t got[] = {bits(mic(x, linear)), bits(mic(x, parabola)),
                               bits(mic(x, noise))};
  const std::uint64_t want[] = {0x3fea4adcae3e8cefULL, 0x3fe9e6a7d290be2dULL,
                                0x3fbbec5d1eb56948ULL};
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(got[k], want[k]) << "sample " << k << ": 0x" << std::hex << got[k];
}

TEST(Mic, ContractChecks) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> y = {1.0};
  EXPECT_THROW(mic(x, y), xfl::ContractViolation);
  MicOptions bad;
  bad.alpha = 1.5;
  const std::vector<double> z = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_THROW(mic(z, z, bad), xfl::ContractViolation);
}

}  // namespace
}  // namespace xfl::ml
