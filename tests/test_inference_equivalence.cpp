// Equivalence suite for the flattened batch-inference engine: on randomized
// fitted ensembles across depths, tree counts, feature counts, and row
// counts, every serving path must agree bit-for-bit with the reference
// per-row node walk — serial, with a 2-thread pool, with a hardware-sized
// pool, and under every forced kernel the host can run (scalar /
// quantized). This is the determinism contract of ml/gbt_flat.hpp: block
// boundaries, thread counts, and kernel choice never change a single bit.
// The quantized kernel's documented error bound is zero (rank codes
// reproduce x <= t exactly), so even it is held to EXPECT_EQ.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/number.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/gbt.hpp"
#include "ml/gbt_flat.hpp"
#include "obs/metrics.hpp"

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

/// All serving paths against the node walk on one fitted model + matrix.
void expect_all_paths_identical(const GradientBoostedTrees& model,
                                const Matrix& x) {
  std::vector<double> reference(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    reference[r] = model.predict_nodewalk(x.row(r));

  // Per-row flat path.
  for (std::size_t r = 0; r < x.rows(); ++r)
    EXPECT_EQ(model.predict(x.row(r)), reference[r]) << "row " << r;

  // Batch, serial.
  std::vector<double> serial(x.rows());
  model.predict_batch(x, serial);
  EXPECT_EQ(serial, reference);

  // Batch, 2-thread pool (exercises block splitting on any host).
  ThreadPool two(2);
  std::vector<double> batch_two(x.rows());
  model.predict_batch(x, batch_two, &two);
  EXPECT_EQ(batch_two, reference);

  // Batch, hardware pool.
  ThreadPool hardware;
  std::vector<double> batch_hw(x.rows());
  model.predict_batch(x, batch_hw, &hardware);
  EXPECT_EQ(batch_hw, reference);

  // The convenience Matrix overload (spawns its own pool for large inputs).
  EXPECT_EQ(model.predict(x), reference);

  // Every forced kernel the host can actually run, serial and pooled.
  // effective_kernel() tells us whether the request would degrade (an
  // unquantizable ensemble); degraded kernels are exercised through the
  // kernel they degrade to, so skipping them here loses nothing.
  const FlatEnsemble& flat = model.flat();
  for (const Kernel kernel : {Kernel::kScalar, Kernel::kQuantized}) {
    if (flat.effective_kernel(kernel) != kernel) continue;
    std::vector<double> forced(x.rows());
    flat.predict_batch(x, forced, nullptr, kernel);
    EXPECT_EQ(forced, reference) << "kernel " << kernel_name(kernel);
    std::vector<double> forced_pooled(x.rows());
    flat.predict_batch(x, forced_pooled, &two, kernel);
    EXPECT_EQ(forced_pooled, reference)
        << "kernel " << kernel_name(kernel) << " (pooled)";
  }
}

/// Randomized sweep: depth 1..6, varying tree/feature/row counts. Seeds are
/// fixed so failures reproduce, but the models themselves are arbitrary.
class InferenceEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(InferenceEquivalence, AllPathsBitIdenticalToNodeWalk) {
  const int depth = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(depth));
  const std::size_t cols = 1 + static_cast<std::size_t>(rng.uniform_int(1, 12));
  const std::size_t train_rows =
      200 + static_cast<std::size_t>(rng.uniform_int(0, 400));

  GbtConfig config;
  config.max_depth = depth;
  config.trees = 10 + static_cast<int>(rng.uniform_int(0, 120));
  config.seed = 5000 + static_cast<std::uint64_t>(depth);
  GradientBoostedTrees model(config);
  const auto train = make_data(train_rows, cols, 99 + depth);
  model.fit(train.x, train.y);

  // Query rows from a different distribution than training, including
  // counts around the pool and row-block thresholds (1, 15, 16, 17, 777).
  for (const std::size_t rows : {std::size_t{1}, std::size_t{15},
                                 std::size_t{16}, std::size_t{17},
                                 std::size_t{777}}) {
    const auto query = make_data(rows, cols, 7777 + rows);
    expect_all_paths_identical(model, query.x);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, InferenceEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// NaN features must take the same route (right) in every path.
TEST(InferenceEquivalence, NanFeaturesRouteIdentically) {
  const auto train = make_data(300, 4, 31);
  GbtConfig config;
  config.trees = 40;
  GradientBoostedTrees model(config);
  model.fit(train.x, train.y);

  auto query = make_data(64, 4, 32);
  Rng rng(33);
  for (std::size_t r = 0; r < query.x.rows(); ++r)
    query.x.at(r, rng.uniform_int(0, 3)) =
        std::numeric_limits<double>::quiet_NaN();
  expect_all_paths_identical(model, query.x);
}

// Refitting must invalidate the compiled cache: serve the *new* model.
TEST(InferenceEquivalence, RefitRecompilesFlatEngine) {
  auto data_a = make_data(250, 3, 41);
  auto data_b = make_data(250, 3, 42);
  for (auto& target : data_b.y) target += 100.0;  // Clearly different model.

  GradientBoostedTrees model;
  model.fit(data_a.x, data_a.y);
  const double before = model.predict(data_a.x.row(0));
  model.fit(data_b.x, data_b.y);
  const double after = model.predict(data_a.x.row(0));
  EXPECT_NE(before, after);
  EXPECT_EQ(after, model.predict_nodewalk(data_a.x.row(0)));
}

// The scalar kernel is the dispatch anchor: forcing it can never degrade,
// on any host or build, and it must reproduce the node walk bit-for-bit.
TEST(InferenceEquivalence, ForcedScalarAlwaysAvailableAndExact) {
  const auto train = make_data(400, 6, 61);
  GbtConfig config;
  config.trees = 60;
  GradientBoostedTrees model(config);
  model.fit(train.x, train.y);
  const FlatEnsemble& flat = model.flat();
  EXPECT_EQ(flat.effective_kernel(Kernel::kScalar), Kernel::kScalar);

  const auto query = make_data(333, 6, 62);
  std::vector<double> forced(query.x.rows());
  flat.predict_batch(query.x, forced, nullptr, Kernel::kScalar);
  for (std::size_t r = 0; r < query.x.rows(); ++r)
    EXPECT_EQ(forced[r], model.predict_nodewalk(query.x.row(r)))
        << "row " << r;
}

/// Raw nodes {feature, threshold_or_value, left, right} of one tree.
using RawTree = std::vector<std::array<double, 4>>;

/// Build an ensemble straight through the Builder (bypassing fit()) so we
/// can hand it pathological shapes a training run would never produce.
FlatEnsemble build_raw(const std::vector<RawTree>& trees) {
  FlatEnsemble::Builder builder(0.5, 1.0);
  for (const auto& tree : trees) {
    builder.begin_tree();
    for (const auto& node : tree)
      builder.add_node(static_cast<std::int32_t>(node[0]), node[1],
                       static_cast<std::int32_t>(node[2]),
                       static_cast<std::int32_t>(node[3]));
  }
  return std::move(builder).build();
}

// Unquantizable ensembles must be refused at compile time — with a reason
// and a counter bump — and the quantized *request* must degrade to the
// scalar kernel, on every host, and still answer bit-identically. Never
// silently wrong.
TEST(InferenceEquivalence, QuantizeRejectedEnsemblesFallBackExactly) {
  struct Case {
    const char* reason;
    /// Columns the query matrix needs (the walk reads features[id], so a
    /// huge-feature-id ensemble needs a correspondingly wide matrix).
    std::size_t cols;
    std::vector<RawTree> trees;
  };
  std::vector<Case> cases;
  // A NaN split threshold cannot be rank-coded (NaN compares false).
  cases.push_back(
      {"nan split threshold", 1,
       {{{0.0, std::numeric_limits<double>::quiet_NaN(), 1, 2},
         {-1.0, 1.0, 0, 0},
         {-1.0, 2.0, 0, 0}}}});
  // A feature id beyond the int16 code range cannot be mask-indexed.
  cases.push_back({"feature id exceeds int16 code range", 40001,
                   {{{40000.0, 0.5, 1, 2},
                     {-1.0, 1.0, 0, 0},
                     {-1.0, 2.0, 0, 0}}}});
  // A left-spine chain deeper than the padding cap (19 split levels):
  // internal nodes 0..levels-1, the deepest left leaf at `levels`, and
  // node d's right leaf at levels+1+d.
  {
    Case deep;
    deep.reason = "tree too deep to pad";
    deep.cols = 1;
    RawTree chain;
    const int levels = 21;
    for (int d = 0; d < levels; ++d)
      chain.push_back({0.0, static_cast<double>(d) - 10.0,
                       static_cast<double>(d + 1),
                       static_cast<double>(levels + 1 + d)});
    chain.push_back({-1.0, 99.0, 0, 0});  // Deepest left leaf.
    for (int d = 0; d < levels; ++d)
      chain.push_back({-1.0, static_cast<double>(d), 0, 0});  // Right leaves.
    deep.trees.push_back(std::move(chain));
    cases.push_back(std::move(deep));
  }

  for (const auto& test_case : cases) {
    const std::uint64_t fallbacks_before =
        obs::counter("gbt.flat.quantize_fallback").value();
    const FlatEnsemble flat = build_raw(test_case.trees);
    EXPECT_FALSE(flat.quantized_supported()) << test_case.reason;
    EXPECT_EQ(flat.quantize_reject_reason(), test_case.reason);
    EXPECT_EQ(obs::counter("gbt.flat.quantize_fallback").value(),
              fallbacks_before + 1)
        << test_case.reason;
    EXPECT_EQ(flat.effective_kernel(Kernel::kQuantized), Kernel::kScalar)
        << test_case.reason;
    EXPECT_EQ(flat.effective_kernel(), Kernel::kScalar) << test_case.reason;

    // The degraded request still serves, bit-identical to forced scalar.
    Rng rng(4242);
    Matrix x(37, test_case.cols);
    for (std::size_t r = 0; r < x.rows(); ++r)
      for (std::size_t c = 0; c < x.cols(); ++c)
        x.at(r, c) = rng.uniform(-20.0, 20.0);
    std::vector<double> exact(x.rows());
    flat.predict_batch(x, exact, nullptr, Kernel::kScalar);
    std::vector<double> degraded(x.rows());
    flat.predict_batch(x, degraded, nullptr, Kernel::kQuantized);
    EXPECT_EQ(degraded, exact) << test_case.reason;
  }
}

// A quantizable Builder ensemble takes the quantized path and matches the
// scalar kernel bit-for-bit — including rows that are NaN, exactly on a
// threshold, and beyond every threshold.
TEST(InferenceEquivalence, QuantizedBuilderEnsembleExactOnEdgeValues) {
  const FlatEnsemble flat = build_raw({{{0.0, 0.5, 1, 2},
                                        {-1.0, 1.0, 0, 0},
                                        {0.0, 1.5, 3, 4},
                                        {-1.0, 2.0, 0, 0},
                                        {-1.0, 3.0, 0, 0}},
                                       {{0.0, -2.0, 1, 2},
                                        {-1.0, 10.0, 0, 0},
                                        {-1.0, 20.0, 0, 0}}});
  ASSERT_TRUE(flat.quantized_supported())
      << flat.quantize_reject_reason();

  Matrix x(7, 1);
  x.at(0, 0) = 0.5;    // Exactly on a threshold: must route left (<=).
  x.at(1, 0) = 1.5;    // Exactly on the second threshold.
  x.at(2, 0) = -2.0;   // Exactly on tree 2's threshold.
  x.at(3, 0) = -100.0; // Below every threshold.
  x.at(4, 0) = 100.0;  // Above every threshold.
  x.at(5, 0) = std::numeric_limits<double>::quiet_NaN();  // Routes right.
  x.at(6, 0) = 0.75;   // Between thresholds.
  std::vector<double> scalar(x.rows());
  flat.predict_batch(x, scalar, nullptr, Kernel::kScalar);
  std::vector<double> quantized(x.rows());
  flat.predict_batch(x, quantized, nullptr, Kernel::kQuantized);
  if (flat.effective_kernel(Kernel::kQuantized) == Kernel::kQuantized) {
    EXPECT_EQ(quantized, scalar);
  }
  // A one-row predict_batch answers each row alone with the same bits.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    Matrix one(1, 1);
    one.at(0, 0) = x.at(r, 0);
    double single = 0.0;
    flat.predict_batch(one, {&single, 1});
    EXPECT_EQ(single, scalar[r]) << "row " << r;
  }
}

/// Load a GradientBoostedTrees from hand-built trees through the model
/// file format, so the real node walk (predict_nodewalk) is the reference
/// for shapes a training run would never produce.
GradientBoostedTrees load_raw(std::size_t cols, double learning_rate,
                              double base, const std::vector<RawTree>& trees) {
  std::string text = "xfl-gbt-v1\n";
  append_line(text, cols, learning_rate, base);
  text += "0\n";  // No importance block.
  append_line(text, trees.size());
  for (const auto& tree : trees) {
    append_line(text, tree.size());
    for (const auto& node : tree) {
      const auto feature = static_cast<std::int32_t>(node[0]);
      append_line(text, feature, feature >= 0 ? node[1] : 0.0,
                  feature >= 0 ? 0.0 : node[1],
                  static_cast<std::int32_t>(node[2]),
                  static_cast<std::int32_t>(node[3]));
    }
  }
  std::istringstream in(text);
  return GradientBoostedTrees::load(in);
}

/// Append a random subtree of at most `depth` split levels to `tree`;
/// splits draw features from [0, split_features) and thresholds from
/// `thresholds`. Returns the subtree root's index.
std::int32_t grow_random(RawTree& tree, Rng& rng, int depth,
                         std::int32_t split_features,
                         const std::vector<double>& thresholds) {
  const auto index = static_cast<std::int32_t>(tree.size());
  if (depth == 0 || rng.uniform() < 0.2) {
    tree.push_back({-1.0, rng.normal(), 0.0, 0.0});
    return index;
  }
  const auto feature = rng.uniform_int(0, split_features - 1);
  const double threshold = thresholds[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(thresholds.size()) - 1))];
  tree.push_back({static_cast<double>(feature), threshold, 0.0, 0.0});
  const std::int32_t left =
      grow_random(tree, rng, depth - 1, split_features, thresholds);
  const std::int32_t right =
      grow_random(tree, rng, depth - 1, split_features, thresholds);
  tree[static_cast<std::size_t>(index)][2] = left;
  tree[static_cast<std::size_t>(index)][3] = right;
  return index;
}

/// Every row count from 1 to 17 — below and above the word-walk and
/// few-row crossovers and past one 16-row block — through the forced quantized kernel, the
/// scalar kernel and the one-row path, each against the node walk. Rows
/// are drawn from `pool` in a rotation, so every value meets every count.
void expect_every_row_count_exact(
    const GradientBoostedTrees& model,
    const std::vector<std::vector<double>>& pool) {
  const FlatEnsemble& flat = model.flat();
  ASSERT_TRUE(flat.quantized_supported()) << flat.quantize_reject_reason();
  const std::size_t cols = pool.front().size();
  std::size_t next = 0;
  for (std::size_t rows = 1; rows <= 17; ++rows) {
    for (int rep = 0; rep < 6; ++rep) {
      Matrix x(rows, cols);
      for (std::size_t r = 0; r < rows; ++r, ++next)
        for (std::size_t c = 0; c < cols; ++c)
          x.at(r, c) = pool[next % pool.size()][c];
      std::vector<double> quantized(rows), scalar(rows);
      flat.predict_batch(x, quantized, nullptr, Kernel::kQuantized);
      flat.predict_batch(x, scalar, nullptr, Kernel::kScalar);
      for (std::size_t r = 0; r < rows; ++r) {
        const double reference = model.predict_nodewalk(x.row(r));
        EXPECT_EQ(quantized[r], reference) << "rows " << rows << " row " << r;
        EXPECT_EQ(scalar[r], reference) << "rows " << rows << " row " << r;
        EXPECT_EQ(model.predict(x.row(r)), reference)
            << "rows " << rows << " row " << r;
      }
    }
  }
}

/// Query values for a feature split on `thresholds`: each threshold, one
/// ulp either side of it, NaN, the infinities, huge magnitudes and a few
/// values between.
std::vector<double> edge_values(const std::vector<double>& thresholds,
                                Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {std::numeric_limits<double>::quiet_NaN(),
                                kInf, -kInf, 1e300, -1e300, 0.0};
  for (const double t : thresholds) {
    values.push_back(t);
    values.push_back(std::nextafter(t, kInf));
    values.push_back(std::nextafter(t, -kInf));
  }
  for (int i = 0; i < 8; ++i) values.push_back(rng.uniform(-3.0, 3.0));
  return values;
}

// The few-row walk on hand-built shapes: lone-leaf trees, shallow leaves
// padded out to their tree's depth, trees deeper than the vector walk's
// 4 levels, and a feature no tree splits on.
TEST(InferenceEquivalence, FewRowWalkExactOnEveryShapeAndRowCount) {
  Rng rng(2024);
  const std::vector<double> thresholds = {-2.0, -1.25, -0.5, 0.0,
                                          0.3,  0.75,  1.5,  2.5};
  std::vector<RawTree> trees;
  trees.push_back({{-1.0, 0.625, 0, 0}});  // Lone leaf.
  // Root split with one leaf child and one depth-2 subtree: the leaf is
  // padded down two levels.
  trees.push_back({{0.0, 0.3, 1, 2},
                   {-1.0, -1.0, 0, 0},
                   {1.0, -0.5, 3, 4},
                   {-1.0, 2.0, 0, 0},
                   {2.0, 0.75, 5, 6},
                   {-1.0, 3.0, 0, 0},
                   {-1.0, 4.0, 0, 0}});
  for (int t = 0; t < 60; ++t) {
    RawTree tree;
    // Depth up to 7, features 0..2 only: feature 3 is never split.
    grow_random(tree, rng, 1 + t % 7, 3, thresholds);
    trees.push_back(std::move(tree));
    if (t % 15 == 0) trees.push_back({{-1.0, rng.normal(), 0, 0}});
  }
  const GradientBoostedTrees model = load_raw(4, 0.1, 0.5, trees);
  EXPECT_GT(model.flat().max_depth(), 4);

  const auto values = edge_values(thresholds, rng);
  std::vector<std::vector<double>> pool;
  for (std::size_t i = 0; i < 3 * values.size(); ++i)
    pool.push_back({values[i % values.size()],
                    values[(i * 7 + 3) % values.size()],
                    values[(i * 11 + 5) % values.size()],
                    values[(i * 13 + 1) % values.size()]});
  expect_every_row_count_exact(model, pool);
}

// More distinct thresholds than the kernel's stack mask buffer holds
// (4096 entries), so both the block and the few-row walk run on the heap
// buffer.
TEST(InferenceEquivalence, FewRowWalkExactOnHeapMaskBuffer) {
  Rng rng(77);
  std::vector<double> thresholds;
  for (int i = 0; i < 5000; ++i)
    thresholds.push_back(-2.5 + 0.001 * static_cast<double>(i));
  std::vector<RawTree> trees;
  for (const double t : thresholds)
    trees.push_back({{0.0, t, 1, 2},
                     {-1.0, rng.normal(), 0, 0},
                     {-1.0, rng.normal(), 0, 0}});
  const GradientBoostedTrees model = load_raw(2, 0.05, -1.0, trees);

  std::vector<double> probes;
  for (int i = 0; i < 40; ++i)
    probes.push_back(thresholds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(thresholds.size()) - 1))]);
  const auto values = edge_values(probes, rng);
  std::vector<std::vector<double>> pool;
  for (std::size_t i = 0; i < values.size(); ++i)
    pool.push_back({values[i], values[(i * 5 + 2) % values.size()]});
  expect_every_row_count_exact(model, pool);
}

// The predicate-word walk on ensembles either side of each of its limits
// (at most 255 thresholds on a feature, 32 split features, depth 4): the
// ones inside take the word walk below its crossover, the ones outside
// the few-row walk, and both must match the node walk bit for bit. Odd
// tree counts, fewer than eight trees and lone leaves reach the walk's
// pair and tail handling.
TEST(InferenceEquivalence, WordWalkExactAtItsLimits) {
  Rng rng(3434);
  const std::vector<double> coarse = {-2.0, -1.25, -0.5, 0.0,
                                      0.3,  0.75,  1.5,  2.5};
  // Rows of `cols` values drawn from `values` in a rotation that differs
  // per column.
  const auto rows_from = [](const std::vector<double>& values,
                            std::size_t cols, std::size_t count) {
    std::vector<std::vector<double>> pool(count);
    for (std::size_t i = 0; i < count; ++i)
      for (std::size_t c = 0; c < cols; ++c)
        pool[i].push_back(values[(i * (2 * c + 1) + 3 * c) % values.size()]);
    return pool;
  };

  // 255 and 256 distinct thresholds on feature 0: one stump per threshold
  // (an odd count for 255) plus depth-4 trees over both features.
  for (const int count : {255, 256}) {
    std::vector<double> thresholds;
    for (int i = 0; i < count; ++i)
      thresholds.push_back(-2.5 + 0.02 * static_cast<double>(i));
    std::vector<RawTree> trees;
    for (const double t : thresholds)
      trees.push_back({{0.0, t, 1, 2},
                       {-1.0, rng.normal(), 0, 0},
                       {-1.0, rng.normal(), 0, 0}});
    for (int t = 0; t < 10; ++t) {
      RawTree tree;
      grow_random(tree, rng, 4, 2, thresholds);
      trees.push_back(std::move(tree));
    }
    const GradientBoostedTrees model = load_raw(2, 0.05, 0.25, trees);
    SCOPED_TRACE(count);
    const auto values = edge_values(thresholds, rng);
    expect_every_row_count_exact(model, rows_from(values, 2, values.size()));
  }

  // 32 and 33 split features, each split at least once; ids 16 and up
  // read the high half of the word walk's code table.
  for (const std::int32_t features : {32, 33}) {
    std::vector<RawTree> trees;
    for (std::int32_t f = 0; f < features; ++f)
      trees.push_back({{static_cast<double>(f),
                        coarse[static_cast<std::size_t>(f) % coarse.size()],
                        1, 2},
                       {-1.0, rng.normal(), 0, 0},
                       {-1.0, rng.normal(), 0, 0}});
    for (int t = 0; t < 40; ++t) {
      RawTree tree;
      grow_random(tree, rng, 4, features, coarse);
      trees.push_back(std::move(tree));
    }
    const GradientBoostedTrees model = load_raw(
        static_cast<std::size_t>(features), 0.1, -0.5, trees);
    SCOPED_TRACE(features);
    expect_every_row_count_exact(
        model, rows_from(edge_values(coarse, rng),
                         static_cast<std::size_t>(features), 120));
  }

  // Depths 0-4 mixed (and 0-5, past the limit), lone-leaf trees, odd tree
  // counts, and fewer trees than one eight-tree step.
  for (const int deepest : {4, 5}) {
    for (const int tree_count : {3, 7, 37}) {
      std::vector<RawTree> trees;
      for (int t = 0; t < tree_count; ++t) {
        RawTree tree;
        if (t % 4 == 1)
          tree.push_back({-1.0, rng.normal(), 0, 0});  // Lone leaf.
        else
          grow_random(tree, rng, t % (deepest + 1), 3, coarse);
        trees.push_back(std::move(tree));
      }
      if (tree_count == 37) {  // Reach the deepest level at least once.
        // A left-leaf spine: split d is node 2d, its left leaf 2d + 1 and
        // its right child 2d + 2 (the next split, or the last leaf).
        RawTree ordered;
        for (int d = 0; d < deepest; ++d) {
          ordered.push_back({static_cast<double>(d % 3), coarse[d + 1],
                             static_cast<double>(ordered.size() + 1),
                             static_cast<double>(ordered.size() + 2)});
          ordered.push_back({-1.0, rng.normal(), 0, 0});
        }
        ordered.push_back({-1.0, rng.normal(), 0, 0});
        trees.push_back(std::move(ordered));
      }
      const GradientBoostedTrees model = load_raw(3, 0.1, 0.5, trees);
      SCOPED_TRACE(testing::Message() << "deepest " << deepest << " trees "
                                      << tree_count);
      EXPECT_LE(model.flat().max_depth(), deepest);
      expect_every_row_count_exact(
          model, rows_from(edge_values(coarse, rng), 3, 90));
    }
  }
}

// A matrix narrower than the highest split feature is refused by every
// kernel and by explain, instead of each row's walk reading past its end.
TEST(InferenceEquivalence, NarrowMatrixIsAContractViolation) {
  const FlatEnsemble flat = build_raw({{{2.0, 0.5, 1, 2},
                                        {-1.0, 1.0, 0, 0},
                                        {-1.0, 2.0, 0, 0}}});
  Matrix narrow(3, 2);
  std::vector<double> out(narrow.rows());
  for (const Kernel kernel :
       {Kernel::kAuto, Kernel::kScalar, Kernel::kQuantized})
    EXPECT_THROW(flat.predict_batch(narrow, out, nullptr, kernel),
                 ContractViolation)
        << kernel_name(kernel);
  std::vector<double> bias(narrow.rows());
  std::vector<double> contributions(narrow.rows() * narrow.cols());
  EXPECT_THROW(flat.explain_batch(narrow, out, bias, contributions),
               ContractViolation);

  Matrix wide(3, 3);
  wide.at(1, 2) = 1.0;
  EXPECT_NO_THROW(flat.predict_batch(wide, out));
  EXPECT_EQ(out, (std::vector<double>{1.5, 2.5, 1.5}));
}

// The compiled engine reports a shape consistent with its source config.
TEST(InferenceEquivalence, FlatShapeMatchesModel) {
  const auto data = make_data(300, 5, 51);
  GbtConfig config;
  config.trees = 30;
  config.max_depth = 4;
  GradientBoostedTrees model(config);
  model.fit(data.x, data.y);
  const FlatEnsemble& flat = model.flat();
  EXPECT_EQ(flat.tree_count(), 30u);
  EXPECT_LE(flat.max_depth(), 4);
  EXPECT_GE(flat.node_count(), flat.tree_count());
  EXPECT_DOUBLE_EQ(flat.scale(), config.learning_rate);
}

}  // namespace
}  // namespace xfl::ml
