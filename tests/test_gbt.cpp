#include "ml/gbt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"

namespace xfl::ml {
namespace {

/// Deterministic synthetic regression datasets.
struct Synthetic {
  Matrix x;
  std::vector<double> y;
};

Synthetic make_step(std::size_t n, std::uint64_t seed) {
  // Ten distinct x values (fewer than the histogram bin budget, so the
  // 0.5 boundary is exactly representable as a split candidate).
  Rng rng(seed);
  Synthetic data;
  data.x = Matrix(n, 1);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(rng.uniform_int(0, 9)) / 10.0;
    data.x.at(i, 0) = v;
    data.y[i] = v < 0.5 ? 1.0 : 5.0;
  }
  return data;
}

Synthetic make_nonlinear(std::size_t n, std::uint64_t seed, double noise = 0.0) {
  Rng rng(seed);
  Synthetic data;
  data.x = Matrix(n, 3);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(-2.0, 2.0);
    const double c = rng.uniform(-2.0, 2.0);
    data.x.at(i, 0) = a;
    data.x.at(i, 1) = b;
    data.x.at(i, 2) = c;
    data.y[i] = a * a + 3.0 * std::sin(b) + 0.5 * c + rng.normal(0.0, noise);
  }
  return data;
}

TEST(Gbt, FitsStepFunctionExactly) {
  const auto data = make_step(400, 1);
  GbtConfig config;
  config.trees = 60;
  config.learning_rate = 0.3;
  config.subsample = 1.0;
  config.colsample = 1.0;
  GradientBoostedTrees model(config);
  model.fit(data.x, data.y);
  for (std::size_t i = 0; i < data.y.size(); ++i)
    EXPECT_NEAR(model.predict(data.x.row(i)), data.y[i], 0.2);
}

TEST(Gbt, TrainingErrorDecreasesWithMoreTrees) {
  const auto data = make_nonlinear(600, 2);
  double previous_rmse = 1e18;
  for (const int trees : {5, 40, 200}) {
    GbtConfig config;
    config.trees = trees;
    GradientBoostedTrees model(config);
    model.fit(data.x, data.y);
    const auto predictions = model.predict(data.x);
    const double error = rmse(data.y, predictions);
    EXPECT_LT(error, previous_rmse);
    previous_rmse = error;
  }
}

TEST(Gbt, BeatsLinearModelOnNonlinearTarget) {
  const auto train = make_nonlinear(1500, 3, 0.05);
  const auto test = make_nonlinear(400, 4, 0.05);

  GradientBoostedTrees boosted;
  boosted.fit(train.x, train.y);
  LinearRegression linear;
  linear.fit(train.x, train.y);

  const double boosted_rmse = rmse(test.y, boosted.predict(test.x));
  const double linear_rmse = rmse(test.y, linear.predict(test.x));
  EXPECT_LT(boosted_rmse, 0.6 * linear_rmse);
}

TEST(Gbt, GeneralisesOnHeldOut) {
  const auto train = make_nonlinear(2000, 5, 0.1);
  const auto test = make_nonlinear(500, 6, 0.1);
  GradientBoostedTrees model;
  model.fit(train.x, train.y);
  // Target spread is ~4; a useful model is far below that.
  EXPECT_LT(rmse(test.y, model.predict(test.x)), 0.8);
}

TEST(Gbt, ConstantTargetPredictsConstant) {
  Matrix x(50, 2);
  Rng rng(7);
  for (std::size_t i = 0; i < 50; ++i) {
    x.at(i, 0) = rng.uniform();
    x.at(i, 1) = rng.uniform();
  }
  const std::vector<double> y(50, 3.5);
  GradientBoostedTrees model;
  model.fit(x, y);
  EXPECT_NEAR(model.predict(x.row(0)), 3.5, 1e-9);
}

TEST(Gbt, ConstantFeaturesHandled) {
  Matrix x(100, 2);
  std::vector<double> y(100);
  Rng rng(8);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = 1.0;  // Constant column (like C/P per edge).
    x.at(i, 1) = rng.uniform();
    y[i] = 2.0 * x.at(i, 1);
  }
  GradientBoostedTrees model;
  model.fit(x, y);
  const auto importance = model.feature_importance();
  EXPECT_DOUBLE_EQ(importance[0], 0.0);  // Constant feature never splits.
  EXPECT_DOUBLE_EQ(importance[1], 1.0);
  EXPECT_NEAR(model.predict(x.row(3)), y[3], 0.3);
}

TEST(Gbt, ImportanceIdentifiesInformativeFeature) {
  Rng rng(9);
  Matrix x(800, 4);
  std::vector<double> y(800);
  for (std::size_t i = 0; i < 800; ++i) {
    for (std::size_t c = 0; c < 4; ++c) x.at(i, c) = rng.normal();
    y[i] = 10.0 * x.at(i, 2);  // Only feature 2 matters.
  }
  GradientBoostedTrees model;
  model.fit(x, y);
  const auto importance = model.feature_importance();
  EXPECT_DOUBLE_EQ(importance[2], 1.0);
  for (const std::size_t c : {0u, 1u, 3u})
    EXPECT_LT(importance[c], 0.05) << "feature " << c;
}

TEST(Gbt, DeterministicGivenSeed) {
  const auto data = make_nonlinear(300, 10);
  GbtConfig config;
  config.seed = 77;
  GradientBoostedTrees a(config), b(config);
  a.fit(data.x, data.y);
  b.fit(data.x, data.y);
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(a.predict(data.x.row(i)), b.predict(data.x.row(i)));
}

TEST(Gbt, PredictBeforeFitRejected) {
  GradientBoostedTrees model;
  const std::vector<double> features = {1.0};
  EXPECT_THROW(model.predict(features), xfl::ContractViolation);
}

TEST(Gbt, InvalidConfigRejected) {
  GbtConfig config;
  config.trees = 0;
  EXPECT_THROW(GradientBoostedTrees{config}, xfl::ContractViolation);
  config = {};
  config.learning_rate = -0.1;
  EXPECT_THROW(GradientBoostedTrees{config}, xfl::ContractViolation);
  // Bin codes are uint16: a larger budget would wrap codes past 65,535
  // into the wrong bins instead of failing.
  config = {};
  config.max_bins = 65537;
  EXPECT_THROW(GradientBoostedTrees{config}, xfl::ContractViolation);
  config.max_bins = 65536;
  EXPECT_NO_THROW(GradientBoostedTrees{config});
}

TEST(Gbt, WidthMismatchRejectedAtPredict) {
  const auto data = make_step(100, 11);
  GradientBoostedTrees model;
  model.fit(data.x, data.y);
  const std::vector<double> wrong = {1.0, 2.0};
  EXPECT_THROW(model.predict(wrong), xfl::ContractViolation);
}

TEST(Gbt, SaveLoadRoundTripPredictsIdentically) {
  const auto data = make_nonlinear(500, 20, 0.05);
  GradientBoostedTrees model;
  model.fit(data.x, data.y);
  std::stringstream buffer;
  model.save(buffer);
  const auto loaded = GradientBoostedTrees::load(buffer);
  ASSERT_TRUE(loaded.fitted());
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(loaded.predict(data.x.row(i)), model.predict(data.x.row(i)));
  // Importances survive too.
  EXPECT_EQ(loaded.feature_importance(), model.feature_importance());
}

TEST(Gbt, SaveRequiresFit) {
  GradientBoostedTrees model;
  std::stringstream buffer;
  EXPECT_THROW(model.save(buffer), xfl::ContractViolation);
}

TEST(Gbt, LoadRejectsGarbage) {
  std::stringstream bad("not-a-model 1 2 3");
  EXPECT_THROW(GradientBoostedTrees::load(bad), std::runtime_error);
  std::stringstream truncated("xfl-gbt-v1\n3 0.08 1.5\n3 0 0 0\n5\n");
  EXPECT_THROW(GradientBoostedTrees::load(truncated), std::runtime_error);
  // Model files hold finite numbers only, as a stream read of a double
  // accepts: nan/inf anywhere is malformed.
  for (const char* bad : {"nan", "inf", "-inf", "1e400"}) {
    std::stringstream non_finite("xfl-gbt-v1\n1 0.1 1.5\n0\n1\n1\n-1 0 " +
                                 std::string(bad) + " -1 -1\n");
    EXPECT_THROW(GradientBoostedTrees::load(non_finite), std::runtime_error)
        << bad;
  }
  std::stringstream finite("xfl-gbt-v1\n1 0.1 1.5\n0\n1\n1\n-1 0 2.5 -1 -1\n");
  EXPECT_TRUE(GradientBoostedTrees::load(finite).fitted());
}

// A syntactically well-formed model whose node links or counts are
// corrupted must throw rather than produce a predictor that reads out of
// bounds or loops forever.
TEST(Gbt, LoadRejectsMalformedStructure) {
  // Template: 2 features, no importance block, 1 tree, 3 nodes; node 0
  // splits on feature 0 with children 1 and 2.
  auto model_text = [](const std::string& nodes) {
    return "xfl-gbt-v1\n2 0.1 1.5\n0\n1\n3\n" + nodes;
  };
  // Split feature out of range.
  std::stringstream bad_feature(model_text(
      "7 0.5 0 1 2\n-1 0 1.0 -1 -1\n-1 0 2.0 -1 -1\n"));
  EXPECT_THROW(GradientBoostedTrees::load(bad_feature), std::runtime_error);
  // Child pointing backwards (cycle).
  std::stringstream cycle(model_text(
      "0 0.5 0 0 2\n-1 0 1.0 -1 -1\n-1 0 2.0 -1 -1\n"));
  EXPECT_THROW(GradientBoostedTrees::load(cycle), std::runtime_error);
  // Child index past the node list.
  std::stringstream oob(model_text(
      "0 0.5 0 1 9\n-1 0 1.0 -1 -1\n-1 0 2.0 -1 -1\n"));
  EXPECT_THROW(GradientBoostedTrees::load(oob), std::runtime_error);
  // A node naming the same child twice (left == right).
  std::stringstream twin(model_text(
      "0 0.5 0 1 1\n-1 0 1.0 -1 -1\n-1 0 2.0 -1 -1\n"));
  EXPECT_THROW(GradientBoostedTrees::load(twin), std::runtime_error);
  // Two parents sharing a child: a DAG, not a tree. Structurally walkable,
  // but flattening a DAG duplicates subtrees without bound — reject it.
  std::stringstream dag(
      "xfl-gbt-v1\n2 0.1 1.5\n0\n1\n5\n"
      "0 0.5 0 1 2\n1 0.5 0 3 4\n1 0.5 0 3 4\n"
      "-1 0 1.0 -1 -1\n-1 0 2.0 -1 -1\n");
  EXPECT_THROW(GradientBoostedTrees::load(dag), std::runtime_error);
  // Importance block sized unlike the feature count.
  std::stringstream bad_importance(
      "xfl-gbt-v1\n2 0.1 1.5\n3 1 1 1\n1\n1\n-1 0 1.0 -1 -1\n");
  EXPECT_THROW(GradientBoostedTrees::load(bad_importance), std::runtime_error);
  // Zero features.
  std::stringstream no_features(
      "xfl-gbt-v1\n0 0.1 1.5\n0\n1\n1\n-1 0 1.0 -1 -1\n");
  EXPECT_THROW(GradientBoostedTrees::load(no_features), std::runtime_error);
  // Non-positive learning rate.
  std::stringstream bad_rate(
      "xfl-gbt-v1\n2 0 1.5\n0\n1\n1\n-1 0 1.0 -1 -1\n");
  EXPECT_THROW(GradientBoostedTrees::load(bad_rate), std::runtime_error);
  // The template itself is sound: the valid variant loads and predicts.
  std::stringstream good(model_text(
      "0 0.5 0 1 2\n-1 0 1.0 -1 -1\n-1 0 2.0 -1 -1\n"));
  const auto model = GradientBoostedTrees::load(good);
  const std::vector<double> low{0.0, 0.0};
  EXPECT_DOUBLE_EQ(model.predict(low), 1.5 + 0.1 * 1.0);
}

// Models saved without an importance block (count 0) are valid; asking for
// importances must return empty instead of reducing an empty range.
TEST(Gbt, EmptyImportanceBlockYieldsEmptyImportances) {
  std::stringstream stripped(
      "xfl-gbt-v1\n2 0.1 1.5\n0\n1\n1\n-1 0 1.0 -1 -1\n");
  const auto model = GradientBoostedTrees::load(stripped);
  ASSERT_TRUE(model.fitted());
  EXPECT_TRUE(model.feature_importance().empty());
}

// ------------------------------------------------------ trainer digests
// FNV-1a digests of save() bytes, computed with the column-by-column
// histogram trainer that preceded the row-wise kernel. Any change to the
// histogram sums, the split choice or the subsample stream moves them.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Six columns: two continuous (3000 distinct values, so max_bins 300
/// emits codes above 255), one with 12 levels, one constant, one with
/// heavy ties, one pure noise.
Synthetic make_digest_data() {
  Rng rng(2024);
  Synthetic data;
  const std::size_t n = 3000;
  data.x = Matrix(n, 6);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-3.0, 3.0);
    const double b = rng.normal();
    const double level = static_cast<double>(rng.uniform_int(0, 11));
    const double tie = rng.bernoulli(0.8) ? 0.0 : rng.uniform();
    data.x.at(i, 0) = a;
    data.x.at(i, 1) = b;
    data.x.at(i, 2) = level;
    data.x.at(i, 3) = 4.0;
    data.x.at(i, 4) = tie;
    data.x.at(i, 5) = rng.uniform();
    data.y[i] = a * a + 2.0 * std::sin(b) + 0.3 * level + 5.0 * tie +
                rng.normal(0.0, 0.2);
  }
  return data;
}

TEST(Gbt, TrainingMatchesParentDigests) {
  const auto data = make_digest_data();
  std::vector<std::uint32_t> weights(data.y.size());
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = static_cast<std::uint32_t>(1 + (i * 7) % 5);

  struct Case {
    const char* name;
    GbtConfig config;
    bool weighted;
    std::uint64_t digest;
  };
  GbtConfig base;
  base.trees = 30;
  GbtConfig sampled = base;
  sampled.subsample = 0.7;
  sampled.colsample = 0.6;
  GbtConfig two_bins = base;
  two_bins.max_bins = 2;
  GbtConfig wide_bins = base;
  wide_bins.max_bins = 300;
  const std::vector<Case> cases = {
      {"weighted", base, true, 0x1db7f72d297cd3deULL},
      {"subsample 0.7, colsample 0.6", sampled, false,
       0x95b8c8d1e162f2f6ULL},
      {"constant column", base, false, 0x7c9323372c7f3e23ULL},
      {"max_bins 2", two_bins, false, 0x6d9f0bc0db289b45ULL},
      {"max_bins 300", wide_bins, false, 0x68a74c0061a56df1ULL},
  };
  for (const Case& c : cases) {
    GradientBoostedTrees model(c.config);
    if (c.weighted)
      model.fit(data.x, data.y, weights);
    else
      model.fit(data.x, data.y);
    std::string bytes;
    model.save(bytes);
    EXPECT_EQ(fnv1a(bytes), c.digest)
        << c.name << ": 0x" << std::hex << fnv1a(bytes);
  }
}

// ------------------------------------------------------- weighted fitting
// Integer multiplicity weights (the retrain worker's quantised recency
// decay). The invariant the weighted path must preserve: hessian sums
// stay exact integer counts, so the division-free split scan is intact.

TEST(Gbt, AllOnesWeightsMatchUnweightedBitForBit) {
  const auto data = make_nonlinear(500, 21);
  GbtConfig config;
  config.trees = 50;
  GradientBoostedTrees unweighted(config);
  unweighted.fit(data.x, data.y);
  GradientBoostedTrees weighted(config);
  const std::vector<std::uint32_t> ones(data.y.size(), 1);
  weighted.fit(data.x, data.y, ones);
  // All-ones weights walk the identical unweighted code values (same
  // histograms, same gradients, same leaves): EXPECT_EQ, not NEAR.
  const auto a = unweighted.predict(data.x);
  const auto b = weighted.predict(data.x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Gbt, WeightedFitApproximatesRowReplication) {
  // Weight w on a row must act like w copies of that row. The histogram
  // counts and split structure agree exactly; only the floating-point
  // accumulation order differs (w*g in one multiply vs w additions), so
  // the comparison is NEAR, not EQ.
  const auto base = make_nonlinear(240, 22);
  std::vector<std::uint32_t> weights(base.y.size());
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = static_cast<std::uint32_t>(1 + i % 4);

  std::size_t total = 0;
  for (const auto w : weights) total += w;
  Synthetic replicated;
  replicated.x = Matrix(total, base.x.cols());
  std::size_t row = 0;
  for (std::size_t i = 0; i < base.y.size(); ++i) {
    for (std::uint32_t copy = 0; copy < weights[i]; ++copy, ++row) {
      for (std::size_t c = 0; c < base.x.cols(); ++c)
        replicated.x.at(row, c) = base.x.at(i, c);
      replicated.y.push_back(base.y[i]);
    }
  }

  GbtConfig config;
  config.trees = 40;
  config.subsample = 1.0;  // Row sampling permutes differently across the
  config.colsample = 1.0;  // two row counts; disable it for the claim.
  GradientBoostedTrees weighted(config);
  weighted.fit(base.x, base.y, weights);
  GradientBoostedTrees cloned(config);
  cloned.fit(replicated.x, replicated.y);

  const auto wp = weighted.predict(base.x);
  for (std::size_t i = 0; i < base.y.size(); ++i)
    EXPECT_NEAR(wp[i], cloned.predict(base.x.row(i)),
                1e-6 * (1.0 + std::abs(wp[i])));
}

TEST(Gbt, WeightsPullTheFitTowardHeavyRows) {
  // Two clusters with conflicting targets at the same x: the fitted value
  // lands at the weighted mean, so up-weighting one side must move
  // predictions toward it.
  constexpr std::size_t kN = 200;
  Synthetic data;
  data.x = Matrix(kN, 1);
  data.y.resize(kN);
  std::vector<std::uint32_t> weights(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    data.x.at(i, 0) = 1.0;
    const bool heavy = i % 2 == 0;
    data.y[i] = heavy ? 10.0 : 2.0;
    weights[i] = heavy ? 9 : 1;
  }
  GbtConfig config;
  config.trees = 30;
  config.subsample = 1.0;
  GradientBoostedTrees model(config);
  model.fit(data.x, data.y, weights);
  const double prediction = model.predict(std::vector<double>{1.0});
  // Weighted mean is (9*10 + 1*2)/10 = 9.2; unweighted would sit at 6.
  EXPECT_NEAR(prediction, 9.2, 0.2);
  EXPECT_GT(prediction, 8.0);
}

TEST(Gbt, WeightedFitContractViolations) {
  const auto data = make_nonlinear(50, 23);
  GbtConfig config;
  config.trees = 5;
  {
    GradientBoostedTrees model(config);
    const std::vector<std::uint32_t> short_weights(data.y.size() - 1, 1);
    EXPECT_THROW(model.fit(data.x, data.y, short_weights), ContractViolation);
  }
  {
    GradientBoostedTrees model(config);
    std::vector<std::uint32_t> zero(data.y.size(), 1);
    zero[7] = 0;  // A zero weight silently dropping a row is a caller bug.
    EXPECT_THROW(model.fit(data.x, data.y, zero), ContractViolation);
  }
}

// Hyperparameter sweep: fits remain sane across depths and subsampling.
class GbtSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(GbtSweep, ReasonableFitAcrossHyperparameters) {
  const auto [depth, subsample] = GetParam();
  const auto train = make_nonlinear(800, 12, 0.05);
  const auto test = make_nonlinear(200, 13, 0.05);
  GbtConfig config;
  config.max_depth = depth;
  config.subsample = subsample;
  GradientBoostedTrees model(config);
  model.fit(train.x, train.y);
  EXPECT_LT(rmse(test.y, model.predict(test.x)), 1.2);
}

INSTANTIATE_TEST_SUITE_P(Grid, GbtSweep,
                         ::testing::Combine(::testing::Values(2, 4, 6),
                                            ::testing::Values(0.6, 1.0)));

}  // namespace
}  // namespace xfl::ml
