#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/contracts.hpp"

namespace xfl::ml {
namespace {

TEST(Metrics, ApeBasics) {
  const std::vector<double> y = {100.0, 200.0};
  const std::vector<double> yhat = {110.0, 150.0};
  const auto errors = absolute_percentage_errors(y, yhat);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_DOUBLE_EQ(errors[0], 10.0);
  EXPECT_DOUBLE_EQ(errors[1], 25.0);
}

TEST(Metrics, ApeSkipsZeroTargets) {
  const std::vector<double> y = {0.0, 100.0};
  const std::vector<double> yhat = {5.0, 100.0};
  EXPECT_EQ(absolute_percentage_errors(y, yhat).size(), 1u);
}

TEST(Metrics, MdapeIsMedian) {
  const std::vector<double> y = {100.0, 100.0, 100.0};
  const std::vector<double> yhat = {101.0, 110.0, 150.0};
  EXPECT_DOUBLE_EQ(mdape(y, yhat), 10.0);
}

TEST(Metrics, PercentileApe) {
  std::vector<double> y(100, 100.0);
  std::vector<double> yhat(100);
  for (std::size_t i = 0; i < 100; ++i)
    yhat[i] = 100.0 + static_cast<double>(i);  // errors 0..99%.
  EXPECT_NEAR(percentile_ape(y, yhat, 95.0), 94.05, 0.01);
}

TEST(Metrics, PerfectPredictionZeroError) {
  const std::vector<double> y = {5.0, 10.0, 20.0};
  EXPECT_DOUBLE_EQ(mdape(y, y), 0.0);
  EXPECT_DOUBLE_EQ(rmse(y, y), 0.0);
}

TEST(Metrics, RmseKnownValue) {
  const std::vector<double> y = {0.0, 0.0};
  const std::vector<double> yhat = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(rmse(y, yhat), std::sqrt(12.5));
}

TEST(Metrics, SummaryQuantilesOrdered) {
  std::vector<double> y(200, 100.0);
  std::vector<double> yhat(200);
  for (std::size_t i = 0; i < 200; ++i)
    yhat[i] = 100.0 + static_cast<double>(i % 50);
  const auto summary = ape_summary(y, yhat);
  EXPECT_LE(summary.p5, summary.p50);
  EXPECT_LE(summary.p50, summary.p95);
  EXPECT_EQ(summary.count, 200u);
}

TEST(Metrics, SizeMismatchRejected) {
  const std::vector<double> y = {1.0, 2.0};
  const std::vector<double> yhat = {1.0};
  EXPECT_THROW(absolute_percentage_errors(y, yhat), xfl::ContractViolation);
}

TEST(Metrics, AllZeroTargetsRejected) {
  const std::vector<double> y = {0.0};
  const std::vector<double> yhat = {1.0};
  EXPECT_THROW(mdape(y, yhat), xfl::ContractViolation);
}

// --- Edge cases: the documented skip/throw contract of metrics.hpp ------

TEST(Metrics, EmptyInputYieldsEmptyApeVector) {
  const std::vector<double> none;
  EXPECT_TRUE(absolute_percentage_errors(none, none).empty());
}

TEST(Metrics, EmptyInputRejectedByAggregates) {
  const std::vector<double> none;
  EXPECT_THROW(mdape(none, none), xfl::ContractViolation);
  EXPECT_THROW(percentile_ape(none, none, 95.0), xfl::ContractViolation);
  EXPECT_THROW(ape_summary(none, none), xfl::ContractViolation);
  EXPECT_THROW(rmse(none, none), xfl::ContractViolation);
}

TEST(Metrics, SingleElementIsItsOwnMedianAndPercentile) {
  const std::vector<double> y = {100.0};
  const std::vector<double> yhat = {120.0};
  EXPECT_DOUBLE_EQ(mdape(y, yhat), 20.0);
  EXPECT_DOUBLE_EQ(percentile_ape(y, yhat, 95.0), 20.0);
  EXPECT_DOUBLE_EQ(rmse(y, yhat), 20.0);
}

TEST(Metrics, NonFiniteSamplesSkipped) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN target, NaN prediction, and infinite prediction all drop out;
  // only the clean last sample (10% error) survives.
  const std::vector<double> y = {nan, 100.0, 100.0, 100.0};
  const std::vector<double> yhat = {100.0, nan, inf, 110.0};
  const auto errors = absolute_percentage_errors(y, yhat);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_DOUBLE_EQ(errors[0], 10.0);
  EXPECT_DOUBLE_EQ(mdape(y, yhat), 10.0);
  EXPECT_DOUBLE_EQ(percentile_ape(y, yhat, 95.0), 10.0);
}

TEST(Metrics, AllSamplesNonFiniteRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> y = {nan, nan};
  const std::vector<double> yhat = {1.0, 2.0};
  EXPECT_THROW(mdape(y, yhat), xfl::ContractViolation);
  EXPECT_THROW(ape_summary(y, yhat), xfl::ContractViolation);
}

TEST(Metrics, RmseDoesNotSkipNonFinite) {
  // rmse's contract is the opposite of the APE family: every sample
  // participates, so a NaN poisons the answer instead of being dropped.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> y = {nan, 100.0};
  const std::vector<double> yhat = {100.0, 100.0};
  EXPECT_TRUE(std::isnan(rmse(y, yhat)));
}

}  // namespace
}  // namespace xfl::ml
