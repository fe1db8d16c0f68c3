// Equivalence suite for the Saabas explanation kernel: on randomized
// fitted ensembles across depths, the flattened explain path must agree
// bit-for-bit with the reference per-row node walk — predictions,
// per-feature contributions, and bias — and the explain predictions must
// be bit-identical to predict_batch under every kernel the host can run.
// On top of path equivalence sits the reconstruction contract of
// ml::finalize_attribution: contributions summed in ascending feature
// order plus the bias added last equal the prediction EXACTLY (EXPECT_EQ
// on doubles, never near), including NaN feature routing and the
// catastrophic-cancellation fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "ml/gbt.hpp"
#include "ml/gbt_flat.hpp"

namespace xfl::ml {
namespace {

struct Synthetic {
  Matrix x;
  std::vector<double> y;
};

Synthetic make_data(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Synthetic data;
  data.x = Matrix(rows, cols);
  data.y.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    double target = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = rng.uniform(-3.0, 3.0);
      data.x.at(r, c) = v;
      target += (c % 2 == 0 ? 1.0 : -0.5) * v;
    }
    target += std::sin(data.x.at(r, 0)) * 2.0 + rng.normal(0.0, 0.1);
    data.y[r] = target;
  }
  return data;
}

/// The canonical reconstruction: ascending feature order, bias LAST.
/// Must mirror finalize_attribution's validation loop exactly.
double reconstruct(const double* contributions, std::size_t cols,
                   double bias) {
  double sum = 0.0;
  for (std::size_t c = 0; c < cols; ++c) sum += contributions[c];
  return sum + bias;
}

/// Flat explain vs. node-walk reference vs. predict, on one model + x.
void expect_explanations_identical(const GradientBoostedTrees& model,
                                   const Matrix& x) {
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();

  // Node-walk reference, row at a time.
  std::vector<double> ref_pred(rows);
  std::vector<double> ref_bias(rows);
  std::vector<double> ref_contrib(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    ref_pred[r] = model.explain_nodewalk(
        x.row(r), std::span(ref_contrib.data() + r * cols, cols),
        ref_bias[r]);

  // Explain predictions must be the predictions — same bits as the
  // serving path under every kernel (predict_batch is itself proven
  // kernel-invariant by test_inference_equivalence).
  std::vector<double> predicted(rows);
  model.predict_batch(x, predicted);
  EXPECT_EQ(ref_pred, predicted);

  // Flat explain.
  std::vector<double> pred(rows), bias(rows), contrib(rows * cols);
  model.explain_batch(x, pred, bias, contrib);
  EXPECT_EQ(pred, ref_pred);
  EXPECT_EQ(bias, ref_bias);
  EXPECT_EQ(contrib, ref_contrib);

  // The reconstruction contract, exact on every row.
  for (std::size_t r = 0; r < rows; ++r)
    EXPECT_EQ(reconstruct(contrib.data() + r * cols, cols, bias[r]), pred[r])
        << "row " << r;

  // Every forced kernel's predictions must match the explain predictions
  // (explanations never depend on which predict kernel serves).
  const FlatEnsemble& flat = model.flat();
  for (const Kernel kernel : {Kernel::kScalar, Kernel::kQuantized}) {
    if (flat.effective_kernel(kernel) != kernel) continue;
    std::vector<double> forced(rows);
    flat.predict_batch(x, forced, nullptr, kernel);
    EXPECT_EQ(forced, pred) << "kernel " << kernel_name(kernel);
  }
}

/// Randomized sweep over depth 1..6, same recipe as the inference
/// equivalence suite: fixed seeds, arbitrary models, row counts around
/// the kernel's block boundaries.
class ExplainEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ExplainEquivalence, FlatMatchesNodeWalkBitwise) {
  const int depth = GetParam();
  Rng rng(2000 + static_cast<std::uint64_t>(depth));
  const std::size_t cols = 1 + static_cast<std::size_t>(rng.uniform_int(1, 12));
  const std::size_t train_rows =
      200 + static_cast<std::size_t>(rng.uniform_int(0, 400));

  GbtConfig config;
  config.max_depth = depth;
  config.trees = 10 + static_cast<int>(rng.uniform_int(0, 120));
  config.seed = 6000 + static_cast<std::uint64_t>(depth);
  GradientBoostedTrees model(config);
  const auto train = make_data(train_rows, cols, 199 + depth);
  model.fit(train.x, train.y);

  for (const std::size_t rows : {std::size_t{1}, std::size_t{15},
                                 std::size_t{16}, std::size_t{17},
                                 std::size_t{777}}) {
    const auto query = make_data(rows, cols, 8888 + rows);
    expect_explanations_identical(model, query.x);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, ExplainEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// NaN features route right in every path; attributions must agree on
// rows whose walks take the NaN branch.
TEST(ExplainEquivalence, NanFeaturesAttributeIdentically) {
  const auto train = make_data(300, 4, 131);
  GbtConfig config;
  config.trees = 40;
  GradientBoostedTrees model(config);
  model.fit(train.x, train.y);

  auto query = make_data(64, 4, 132);
  Rng rng(133);
  for (std::size_t r = 0; r < query.x.rows(); ++r)
    query.x.at(r, rng.uniform_int(0, 3)) =
        std::numeric_limits<double>::quiet_NaN();
  expect_explanations_identical(model, query.x);
}

// A depth-1 single-tree ensemble is small enough to check the attribution
// semantics by hand: the split feature gets the full scaled expectation
// shift, every other feature gets zero.
TEST(ExplainEquivalence, SingleStumpAttributesOnlyTheSplitFeature) {
  FlatEnsemble::Builder builder(0.5, 1.0);
  builder.begin_tree();
  builder.add_node(1, 0.0, 1, 2);   // Split on feature 1 at 0.
  builder.add_node(-1, -4.0, 0, 0); // Left leaf.
  builder.add_node(-1, 8.0, 0, 0);  // Right leaf.
  const FlatEnsemble flat = std::move(builder).build();

  Matrix x(2, 3);
  x.at(0, 0) = 9.0; x.at(0, 1) = -1.0; x.at(0, 2) = 9.0;  // Goes left.
  x.at(1, 0) = 9.0; x.at(1, 1) = 1.0;  x.at(1, 2) = 9.0;  // Goes right.
  std::vector<double> pred(2), bias(2), contrib(6);
  flat.explain_batch(x, pred, bias, contrib);

  // E[root] = (-4 + 8) / 2 = 2; attr(left) = 1 * (-4 - 2) = -6,
  // attr(right) = 1 * (8 - 2) = 6. Prediction = 0.5 + 1 * leaf.
  EXPECT_EQ(pred[0], 0.5 + -4.0);
  EXPECT_EQ(pred[1], 0.5 + 8.0);
  EXPECT_EQ(contrib[0 * 3 + 0], 0.0);
  EXPECT_EQ(contrib[0 * 3 + 1], -6.0);
  EXPECT_EQ(contrib[0 * 3 + 2], 0.0);
  EXPECT_EQ(contrib[1 * 3 + 1], 6.0);
  // Bias absorbs base + E[root]: 0.5 + 2 = 2.5 on both rows.
  EXPECT_EQ(bias[0], 2.5);
  EXPECT_EQ(bias[1], 2.5);
}

// finalize_attribution's two regimes: the ulp-stepping fix-up lands the
// reconstruction exactly on ordinary inputs, and the catastrophic-
// cancellation fallback (prediction unreachable on the reconstruction
// grid) zeroes the contributions and folds everything into the bias —
// the contract holds either way.
TEST(ExplainEquivalence, FinalizeAttributionAlwaysReconstructs) {
  Rng rng(777);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 19));
    std::vector<double> contributions(n);
    for (auto& c : contributions) c = rng.uniform(-50.0, 50.0);
    const double prediction = rng.uniform(-100.0, 100.0);
    std::vector<double> fixed = contributions;
    const double bias = finalize_attribution(prediction, fixed.data(), n);
    EXPECT_EQ(reconstruct(fixed.data(), n, bias), prediction)
        << "trial " << trial;
  }

  // Cancellation: with a 1e16 contribution the reconstruction grid
  // fl(1e16 + bias) has spacing 2, so prediction 1.0 is unreachable by
  // stepping the bias — the fallback must zero the contribution and
  // make the bias the prediction itself, reconstructing exactly.
  std::vector<double> extreme = {1.0e16};
  const double target = 1.0;
  const double bias =
      finalize_attribution(target, extreme.data(), extreme.size());
  EXPECT_EQ(extreme[0], 0.0);
  EXPECT_EQ(bias, target);
  EXPECT_EQ(reconstruct(extreme.data(), extreme.size(), bias), target);
}

}  // namespace
}  // namespace xfl::ml
