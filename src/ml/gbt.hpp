// Gradient-boosted regression trees in the style of XGBoost (Chen &
// Guestrin), the nonlinear model of §5.2 of the paper.
//
// Implementation notes:
//   * Second-order (gradient/hessian) boosting of the squared-error
//     objective with XGBoost's default regularisation (L2 leaf penalty
//     lambda = 1, no split penalty) and `min_child_weight` — the exact
//     XGBoost split gain 0.5 * [GL^2/(HL+1) + GR^2/(HR+1) - G^2/(H+1)].
//   * Histogram (quantile-binned) split finding — the "approximate tree
//     learning algorithm" the paper credits for XGBoost's efficiency.
//   * Row-wise histogram builds over one row-major matrix of bin codes:
//     each node's histogram is one pass over its rows that reads a row's
//     gradient once and adds it to the bin of every active column, the
//     histogram-subtraction trick (build the smaller child directly and
//     derive the sibling as parent - child), and leaf-scatter prediction
//     updates (O(n) per tree instead of per-row tree traversal).
//   * One thread per fit. Parallelism lives in the callers, at the grain
//     the paper fits at: TransferPredictor::fit trains its independent
//     models concurrently on one pool, study_edges fans out over edges,
//     and the global model calibrates through predict_batch on the fit's
//     pool. A fit's output depends only on its config, data and weights.
//   * Shrinkage (learning_rate), row subsampling, and per-tree column
//     subsampling.
//   * Gain-based feature importance, the quantity Fig. 12 visualises:
//     "the more an independent variable is used to make the main splits
//     within the tree, the higher its relative importance."
//   * A flattened batch-inference engine (ml/gbt_flat.hpp): every fit()
//     and load() compiles the pointer-linked trees into a contiguous SoA
//     FlatEnsemble that serves predict()/predict_batch() bit-identically
//     to the node walk, at any pool width.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace xfl {
class ThreadPool;
class TokenReader;
}

namespace xfl::ml {

class FlatEnsemble;

namespace detail {
/// One training histogram bin: {gradient sum, hessian sum}. The two lanes
/// are added as one two-double vector; each lane is an ordinary IEEE double
/// add, so the sums are those of two scalar adds.
using HistCell = double __attribute__((vector_size(16)));
}  // namespace detail

/// Training hyperparameters.
struct GbtConfig {
  int trees = 200;
  double learning_rate = 0.08;
  int max_depth = 4;
  double min_child_weight = 5.0;  ///< Minimum hessian sum per leaf.
  double subsample = 0.8;         ///< Row fraction per tree.
  double colsample = 0.9;         ///< Column fraction per tree.
  int max_bins = 64;              ///< Histogram bins per feature.
  std::uint64_t seed = 7;

  /// Bin codes are uint16, so a feature can have at most 65,536 bins.
  static constexpr int kMaxBins = 65536;

  bool valid() const {
    return trees >= 1 && learning_rate > 0.0 && max_depth >= 1 &&
           min_child_weight >= 0.0 && subsample > 0.0 && subsample <= 1.0 &&
           colsample > 0.0 && colsample <= 1.0 && max_bins >= 2 &&
           max_bins <= kMaxBins;
  }
};

/// Gradient-boosted regression tree ensemble.
class GradientBoostedTrees {
 public:
  explicit GradientBoostedTrees(GbtConfig config = {});

  /// Fit on (x, y). Requires x.rows() == y.size() >= 2 and x.cols() >= 1.
  void fit(const Matrix& x, std::span<const double> y);

  /// Weighted fit: `weights[i]` is an integer multiplicity — row i counts
  /// exactly as if it appeared weights[i] times (with subsample == 1 and
  /// colsample == 1 the result is bit-identical to fitting the replicated
  /// dataset). Integer weights keep the squared-loss hessian sums exact
  /// integer counts, so the division-free reciprocal-table split scan is
  /// preserved; `min_child_weight` then bounds the weighted mass per
  /// child. An empty span means all-ones and is bit-identical to the
  /// unweighted overload. Requires weights.size() == x.rows() and every
  /// weight >= 1. The recency-weighted serve-path refit (src/retrain)
  /// quantises its decay into these multiplicities.
  void fit(const Matrix& x, std::span<const double> y,
           std::span<const std::uint32_t> weights);

  /// Predict one sample (width must match the fitted data). Served by the
  /// compiled FlatEnsemble; bit-identical to predict_nodewalk().
  double predict(std::span<const double> features) const;

  /// Reference prediction path: per-row walk of the pointer-linked AoS
  /// trees. Kept (and exercised by the tier-2 equivalence suite and the
  /// BM_GbtPredict baseline) as the ground truth the flattened engine must
  /// match bit-for-bit.
  double predict_nodewalk(std::span<const double> features) const;

  /// Predict many samples: a serial predict_batch into a new vector.
  std::vector<double> predict(const Matrix& x) const;

  /// Reference explanation path: per-row Saabas attribution over the
  /// pointer-linked AoS trees (contributions.size() == feature count;
  /// `bias` receives the finalized remainder). Returns the prediction.
  /// The ground truth FlatEnsemble::explain_batch must match bit-for-bit:
  /// the subtree-expectation arithmetic, path accumulation order, and
  /// ml::finalize_attribution call are identical by construction.
  double explain_nodewalk(std::span<const double> features,
                          std::span<double> contributions,
                          double& bias) const;

  /// Explain every row of x through the flattened engine (see
  /// FlatEnsemble::explain_batch for the layout and exactness contract).
  void explain_batch(const Matrix& x, std::span<double> predictions,
                     std::span<double> bias,
                     std::span<double> contributions) const;

  /// Predict every row of x into out (out.size() == x.rows()), blocking
  /// rows across `pool` when provided. Results are bit-identical to
  /// per-row predict() at any pool width — each row owns its output
  /// slot and its own walk, so block boundaries never change values.
  void predict_batch(const Matrix& x, std::span<double> out,
                     ThreadPool* pool = nullptr) const;

  /// The compiled inference engine. Requires fit() (or load()).
  const FlatEnsemble& flat() const;

  /// Total split gain attributed to each feature, normalised so the
  /// maximum is 1 (all zeros if no splits were made). Requires fit().
  std::vector<double> feature_importance() const;

  bool fitted() const { return fitted_; }
  /// Columns every input row must have. Requires fit() (or load()).
  std::size_t feature_count() const { return feature_count_; }
  const GbtConfig& config() const { return config_; }

  /// Serialise the fitted ensemble to a line-oriented text format
  /// (version header, base score, learning rate, per-tree node lists).
  /// Requires fit(). load() restores a model that predicts identically;
  /// training-only state (bin edges, gain importances) round-trips too.
  /// The string and reader overloads let an enclosing file (the
  /// predictor's) share one buffer; load(std::istream&) reads `in` to its
  /// end. load throws std::runtime_error on malformed input.
  void save(std::ostream& out) const;
  void save(std::string& out) const;
  static GradientBoostedTrees load(std::istream& in);
  static GradientBoostedTrees load(TokenReader& in);

  /// load() in steps, for a caller that loads many models: parse() reads
  /// and checks one model exactly as load() does (same errors, same
  /// token); the result is not fitted() until install_flat() gets the
  /// engine compile_flat() builds from its trees. fit() and load() end
  /// with install_flat(compile_flat()): the engine is derived state, so
  /// (re)fitting or loading always rebuilds it.
  static GradientBoostedTrees parse(TokenReader& in);
  FlatEnsemble compile_flat() const;
  void install_flat(FlatEnsemble flat);

 private:
  struct Node {
    // Internal nodes: feature + threshold (go left when value <= threshold).
    // Leaves: feature == -1 and `value` is the leaf weight.
    std::int32_t feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
    double predict(std::span<const double> features) const;
  };

  /// Derive per-feature bin edges and emit every value's bin code from one
  /// stable radix sort per column (no per-value binary search). `codes` is
  /// row-major, `codes[r * x.cols() + c]` is the code of x(r, c): code b
  /// means value in (edges[b-1], edges[b]]. A row's codes are adjacent, so
  /// the row-wise histogram build reads one short run per row for all of
  /// its columns.
  void build_bins(const Matrix& x, std::vector<std::uint16_t>& codes);
  /// Grow one tree over the sampled rows. `sampled` and `unsampled` together
  /// partition [0, n); both are reordered in place as nodes split so each
  /// node owns a contiguous range. On return `leaf_of[r]` names the leaf
  /// node every row r landed in, so the caller can update predictions with
  /// an O(n) scatter instead of re-traversing the tree per row.
  /// Reusable buffers shared by every grow_tree call of one fit, so the
  /// per-tree hot path performs no allocations in steady state. A node's
  /// histogram is built row-wise over the row-major codes: one pass over
  /// its rows adds each row's gradient to the bin of every active column.
  struct FitScratch {
    /// Retired histogram buffers, recycled across nodes and trees.
    std::vector<std::vector<detail::HistCell>> hist_pool;
    /// Right-child row staging for the stable in-place partition.
    std::vector<std::uint32_t> rows;
    /// The tree's active columns: its candidate columns that are not
    /// constant, in candidate order.
    std::vector<std::uint32_t> active_col;
    /// Histogram slice offsets: active column k owns cells
    /// [offset[k], offset[k + 1]).
    std::vector<std::size_t> offset;
  };
  /// `inv_hess[h]` must hold 1 / (h + lambda) for every integer hessian sum
  /// h in [0, total weight]. `weights` is empty (all rows weigh 1) or one
  /// integer multiplicity per row; histogram counts accumulate it.
  Tree grow_tree(const std::vector<std::uint16_t>& codes,
                 const std::vector<double>& grad,
                 std::span<const std::uint32_t> weights,
                 std::vector<std::uint32_t>& sampled,
                 std::vector<std::uint32_t>& unsampled,
                 const std::vector<std::size_t>& cols,
                 const std::vector<double>& inv_hess, FitScratch& scratch,
                 std::vector<std::int32_t>& leaf_of);
  GbtConfig config_;
  bool fitted_ = false;
  double base_score_ = 0.0;
  std::size_t feature_count_ = 0;
  std::vector<Tree> trees_;
  /// Per-feature ascending bin upper edges (thresholds for raw values).
  std::vector<std::vector<double>> bin_edges_;
  std::vector<double> importance_gain_;
  /// Compiled SoA inference engine (immutable once built, so copies of a
  /// fitted model share it and concurrent predict calls are safe).
  std::shared_ptr<const FlatEnsemble> flat_;
};

}  // namespace xfl::ml
