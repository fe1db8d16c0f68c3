#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ml/linreg.hpp"
#include "ml/matrix.hpp"
#include "ml/scaler.hpp"

namespace xfl::ml {
namespace {

TEST(Matrix, ConstructAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.at(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(Matrix, BoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), xfl::ContractViolation);
  EXPECT_THROW(m.at(0, 2), xfl::ContractViolation);
}

TEST(Matrix, PushRowDefinesWidth) {
  Matrix m;
  const std::vector<double> row = {1.0, 2.0};
  m.push_row(row);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.rows(), 1u);
  const std::vector<double> bad = {1.0, 2.0, 3.0};
  EXPECT_THROW(m.push_row(bad), xfl::ContractViolation);
}

TEST(Matrix, RowSpanAndColumn) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  m.at(1, 0) = 3.0;
  m.at(1, 1) = 4.0;
  const auto row = m.row(1);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  const auto col = m.column(1);
  EXPECT_DOUBLE_EQ(col[0], 2.0);
  EXPECT_DOUBLE_EQ(col[1], 4.0);
}

TEST(Matrix, LargeStorageIsMappedAndKeepsValuesAcrossGrowth) {
  // Rows pushed one by one grow the storage from heap blocks into mapped
  // ones; every value survives each move and each copy.
  constexpr std::size_t kCols = 16;
  const std::size_t rows = 2 * kMappedBlockBytes / (kCols * sizeof(double));
  Matrix grown;
  std::vector<double> row(kCols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c)
      row[c] = static_cast<double>(r * kCols + c);
    grown.push_row(row);
  }
  const Matrix copy = grown;
  const Matrix* const both[] = {&grown, &copy};
  for (const Matrix* m : both) {
    ASSERT_EQ(m->rows(), rows);
    bool same = true;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < kCols; ++c)
        same = same && m->at(r, c) == static_cast<double>(r * kCols + c);
    EXPECT_TRUE(same);
  }

  // A sized matrix of 1 MiB or more is zero-filled mapped pages.
  const Matrix zeroed(rows, kCols);
  bool zero = true;
  for (std::size_t r = 0; r < rows; ++r)
    for (const double v : zeroed.row(r)) zero = zero && v == 0.0;
  EXPECT_TRUE(zero);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(zeroed.row(0).data()) % 4096, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.row(0).data()) % 4096, 0u);
}

TEST(Matrix, SelectColumnsAndRows) {
  Matrix m(2, 3);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      m.at(r, c) = static_cast<double>(10 * r + c);
  const auto cols = m.select_columns({true, false, true});
  EXPECT_EQ(cols.cols(), 2u);
  EXPECT_DOUBLE_EQ(cols.at(1, 1), 12.0);
  const auto rows = m.select_rows({1});
  EXPECT_EQ(rows.rows(), 1u);
  EXPECT_DOUBLE_EQ(rows.at(0, 0), 10.0);
}

TEST(LeastSquares, SolvesExactSystem) {
  // y = 2 x1 - 3 x2 + 1 with 4 exact points and an intercept column.
  Matrix a(4, 3);
  const double xs[4][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  std::vector<double> b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    a.at(i, 0) = 1.0;
    a.at(i, 1) = xs[i][0];
    a.at(i, 2) = xs[i][1];
    b[i] = 1.0 + 2.0 * xs[i][0] - 3.0 * xs[i][1];
  }
  const auto x = solve_least_squares(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
  EXPECT_NEAR(x[2], -3.0, 1e-10);
}

TEST(LeastSquares, OverdeterminedMinimisesResidual) {
  // Noisy line fit should land near the true slope.
  Rng rng(3);
  const std::size_t n = 500;
  Matrix a(n, 2);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    a.at(i, 0) = 1.0;
    a.at(i, 1) = x;
    b[i] = 4.0 - 2.5 * x + rng.normal(0.0, 0.1);
  }
  const auto solution = solve_least_squares(a, b);
  EXPECT_NEAR(solution[0], 4.0, 0.05);
  EXPECT_NEAR(solution[1], -2.5, 0.05);
}

TEST(LeastSquares, DegenerateColumnDoesNotExplode) {
  Matrix a(4, 2);
  std::vector<double> b = {1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < 4; ++i) {
    a.at(i, 0) = 1.0;
    a.at(i, 1) = 0.0;  // All-zero column.
  }
  const auto x = solve_least_squares(a, b);
  EXPECT_TRUE(std::isfinite(x[0]));
  EXPECT_TRUE(std::isfinite(x[1]));
  EXPECT_NEAR(x[0], 2.5, 1e-6);  // Mean of b.
}

TEST(LeastSquares, ContractChecks) {
  Matrix a(2, 3);  // Underdetermined.
  std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(solve_least_squares(a, b), xfl::ContractViolation);
}

TEST(LinearRegression, RecoversKnownCoefficients) {
  Rng rng(11);
  const std::size_t n = 1000;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x.at(i, c) = rng.normal();
    y[i] = 7.0 + 1.5 * x.at(i, 0) - 0.5 * x.at(i, 1) + 3.0 * x.at(i, 2);
  }
  LinearRegression model;
  model.fit(x, y);
  EXPECT_NEAR(model.intercept(), 7.0, 1e-8);
  EXPECT_NEAR(model.coefficients()[0], 1.5, 1e-8);
  EXPECT_NEAR(model.coefficients()[1], -0.5, 1e-8);
  EXPECT_NEAR(model.coefficients()[2], 3.0, 1e-8);
  EXPECT_NEAR(model.r_squared(x, y), 1.0, 1e-10);
}

TEST(LinearRegression, PredictSingleAndBatchAgree) {
  Matrix x(3, 1);
  x.at(0, 0) = 1.0;
  x.at(1, 0) = 2.0;
  x.at(2, 0) = 3.0;
  const std::vector<double> y = {2.0, 4.0, 6.0};
  LinearRegression model;
  model.fit(x, y);
  const auto batch = model.predict(x);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(batch[i], model.predict(x.row(i)));
}

TEST(LinearRegression, RequiresFitBeforePredict) {
  LinearRegression model;
  const std::vector<double> features = {1.0};
  EXPECT_THROW(model.predict(features), xfl::ContractViolation);
}

TEST(LinearRegression, RSquaredNegativeForBadModel) {
  // Fit on one regime, evaluate on an adversarial one.
  Matrix x_train(3, 1), x_test(3, 1);
  const std::vector<double> y_train = {1.0, 2.0, 3.0};
  const std::vector<double> y_test = {30.0, -10.0, 5.0};
  for (std::size_t i = 0; i < 3; ++i) {
    x_train.at(i, 0) = static_cast<double>(i);
    x_test.at(i, 0) = static_cast<double>(i);
  }
  LinearRegression model;
  model.fit(x_train, y_train);
  EXPECT_LT(model.r_squared(x_test, y_test), 0.5);
}

TEST(Scaler, ZeroMeanUnitVariance) {
  Rng rng(13);
  Matrix x(500, 2);
  for (std::size_t i = 0; i < 500; ++i) {
    x.at(i, 0) = rng.normal(100.0, 25.0);
    x.at(i, 1) = rng.uniform(0.0, 1e9);
  }
  StandardScaler scaler;
  const auto scaled = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto column = scaled.column(c);
    EXPECT_NEAR(xfl::mean(column), 0.0, 1e-9);
    EXPECT_NEAR(xfl::stddev(column), 1.0, 1e-9);
  }
}

TEST(Scaler, ConstantColumnCentredOnly) {
  Matrix x(3, 1);
  for (std::size_t i = 0; i < 3; ++i) x.at(i, 0) = 5.0;
  StandardScaler scaler;
  const auto scaled = scaler.fit_transform(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(scaled.at(i, 0), 0.0);
}

TEST(Scaler, TransformUsesTrainingStatistics) {
  Matrix train(2, 1), test(1, 1);
  train.at(0, 0) = 0.0;
  train.at(1, 0) = 2.0;  // mean 1, population sd 1.
  test.at(0, 0) = 3.0;
  StandardScaler scaler;
  scaler.fit(train);
  const auto scaled = scaler.transform(test);
  EXPECT_DOUBLE_EQ(scaled.at(0, 0), 2.0);
}

TEST(Scaler, TransformBeforeFitRejected) {
  StandardScaler scaler;
  Matrix x(1, 1);
  EXPECT_THROW(scaler.transform(x), xfl::ContractViolation);
}

}  // namespace
}  // namespace xfl::ml
