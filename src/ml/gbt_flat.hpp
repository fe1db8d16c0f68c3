// Flattened batch-inference engine for fitted tree ensembles — the serving
// path the paper motivates ("our predictions can be used for distributed
// workflow scheduling and optimization", §5): a workflow scheduler queries
// the predictor per candidate transfer at high frequency, so inference is a
// hot path alongside training.
//
// A fitted GradientBoostedTrees stores each tree as pointer-linked AoS
// nodes (32 bytes each, children anywhere in the vector). Compilation
// re-lays the whole ensemble into contiguous structure-of-arrays storage:
//
//   * feature[i]  — split feature, or -1 for a leaf          (int32)
//   * value[i]    — split threshold (internal) or leaf value (double)
//   * left[i]     — absolute index of the left child; the right child is
//                   always left[i] + 1 (siblings are laid out adjacently
//                   by a per-tree breadth-first renumbering)     (int32)
//
// which cuts a node to 16 bytes across three cache-streamable arrays and
// removes one level of indirection per step (no per-tree vector, no
// `right` load). Batch prediction walks all trees for a small block of
// rows at a time: the per-row chase of a single tree is a serial chain of
// dependent loads, but the walks of different rows are independent, so
// stepping a block of rows in lockstep converts the traversal from
// latency-bound to throughput-bound.
//
// Equivalence contract: predictions are bit-identical to the per-row
// node-walk path (`GradientBoostedTrees::predict_nodewalk`) at any thread
// count. Each step compares with the same `!(x <= threshold)` predicate
// (NaN features route right, exactly like the node walk's `x <= t ?
// left : right`), and each row accumulates `base + scale * leaf` in tree
// order, so the floating-point operation sequence per row is unchanged.
//
// Explanation kernel (PR 10): build() additionally precomputes a Saabas
// path-attribution table — for every child slot, the scaled shift in the
// leaf-count-weighted subtree expectation that taking that branch causes:
// attr[child] = scale * (E[child] - E[parent]). explain_batch() walks the
// same SoA arrays with the same predicate, credits attr[child] to the
// split feature at every step, and recomputes the prediction with the
// scalar kernel's exact operation sequence — so explain predictions are
// bit-identical to predict under every kernel. finalize_attribution()
// then reconciles the bias so the canonical reconstruction (sum the
// per-feature contributions in ascending feature order, then add the
// bias last) equals the prediction bit-exactly, always: a bounded
// ulp-stepping fix-up absorbs the summation residual, and the rare
// catastrophic-cancellation case where the prediction is unreachable on
// the reconstruction grid folds everything into the bias (contributions
// zeroed). `GradientBoostedTrees::explain_nodewalk` is the kept per-row
// reference, sharing the same expectation arithmetic and finalize.
//
// Kernel family: the lockstep walk above is the `scalar` kernel and stays
// the oracle. One more member sits beside it, and the code picks between
// the two from what it observes: kAuto runs `quantized` when the ensemble
// compiled to the quantized form and the CPU executes AVX2 (CPUID probed
// once; compiled out on non-x86 and under XFL_DISABLE_SIMD), and `scalar`
// otherwise.
//
//   * `quantized` — built at FlatEnsemble compile time: each feature's
//     distinct split thresholds are sorted into a rank table and every
//     split node stores one int32 index into a *global predicate-mask
//     table* keyed by (feature, threshold rank). Per 16-row block those
//     masks are computed once for the whole ensemble: each row's feature
//     value is ranked against the threshold table (a uniform grid maps
//     the value to a starting rank in one multiply, then a short linear
//     scan finishes — typically 0–2 steps for histogram-trained models),
//     scattered into a per-rank row bucket, and a suffix-OR turns the
//     buckets into masks[k] = 16-bit set of rows with code > k. A NaN ranks above every threshold, so it routes
//     right exactly like the `!(x <= t)` predicate. Because ensembles
//     share thresholds heavily (histogram training draws them from at
//     most max_bins-1 bin edges per feature), thousands of tree nodes
//     collapse onto a few hundred masks — every split predicate of every
//     tree is evaluated once per block instead of once per node visit.
//     Each tree is padded to a complete binary tree of its depth (child =
//     2*i+1+predicate, branch-free, no left links) and walked over all 16
//     rows as int16 lanes; the per-level mask lookup is an in-register
//     byte shuffle of the tree's (at most 16-entry) mask table, so the
//     hot loop performs *zero* hardware gathers — which are microcode-
//     crippled on many production x86 hosts. Reached leaf doubles are
//     accumulated scalar in tree order; trees deeper than 4 walk a
//     portable scalar form of the same layout.
//
//     A block costs its mask build and shuffle-table fill whatever its
//     row count, and per-edge serving calls the kernel with 1-3 rows. So
//     blocks of fewer than kFewRows (5) rows take the *few-row walk*
//     over the same arrays instead: each row ranks each feature once
//     (the same rank routine as the block masks), fills one byte per
//     predicate (feature, rank), and walks every padded tree branch-free
//     with slot = 2*slot + 1 + pred[qmask_idx[slot]] for depth(t) levels,
//     two rows interleaved per tree. Lone leaves (depth 0) and trees
//     deeper than 4 need no special case. The crossover was measured
//     with both paths forced over BM_GbtPredictRows' 32 rotating
//     ensembles (DESIGN.md §7.1).
//
// Quantization error bound: rank codes preserve the `x <= t` predicate
// exactly whenever every threshold is representable in the table — which
// build() guarantees by construction — so the quantized kernel routes
// every row to the very same leaf and its predictions are bit-identical
// (error bound zero). When an ensemble cannot be quantized losslessly
// (more than 32766 distinct thresholds on one feature, a feature id
// beyond the int16 code space, or a padded form over the size cap),
// build() *refuses* the quantized form — structured warn log plus the
// `gbt.flat.quantize_fallback` counter — and dispatch falls back to the
// exact scalar kernel instead of silently degrading accuracy.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace xfl {
class ThreadPool;
}

namespace xfl::ml {

/// Batch-inference kernel selector. kAuto lets the ensemble choose (see
/// FlatEnsemble::effective_kernel); tests and the microbench force
/// kScalar (the oracle) or kQuantized (reaching its portable walk on
/// non-AVX2 hosts).
enum class Kernel : std::uint8_t { kAuto = 0, kScalar, kQuantized };

/// "auto" / "scalar" / "quantized".
const char* kernel_name(Kernel kernel);

/// True when this build carries the AVX2 kernels and the CPU executes
/// them (CPUID probed once, cached). Always false under XFL_DISABLE_SIMD
/// and on non-x86 hosts.
bool cpu_supports_avx2() noexcept;

/// Reconcile a row's raw path attributions with its prediction so the
/// canonical reconstruction — sum contributions[0..n) in ascending index
/// order, then add the returned bias LAST — equals `prediction`
/// bit-exactly. Usually the returned bias is prediction - sum (plus at
/// most a couple of ulp steps absorbing the summation residual); under
/// catastrophic cancellation the prediction can be unreachable on the
/// {fl(sum + b)} grid, in which case every contribution is zeroed and the
/// bias becomes the prediction itself — the contract holds in every case.
/// Shared by the flat explain kernel and the node-walk reference so both
/// agree bitwise.
double finalize_attribution(double prediction, double* contributions,
                            std::size_t n);

/// Immutable compiled form of a fitted ensemble. Thread-safe to query
/// concurrently; rebuild (via Builder) whenever the source model refits.
class FlatEnsemble {
 public:
  /// Assembles a FlatEnsemble from per-tree AoS node lists. Nodes are
  /// added in their original in-tree indexing; build() performs the
  /// breadth-first renumbering that makes siblings adjacent.
  class Builder {
   public:
    /// `scale` multiplies every leaf value (the ensemble's learning rate).
    Builder(double base_score, double scale);

    /// Start a new tree; node 0 of the following add_node calls is its root.
    void begin_tree();

    /// Skip (or re-enable, the default) the Saabas attribution precompute.
    /// An ensemble built without it predicts normally but must never be
    /// explained (explain_batch asserts). This is the A/B lever the
    /// obs_overhead_guard uses to prove the predict path pays nothing for
    /// explain support.
    void set_attribution(bool enabled) { attribution_ = enabled; }

    /// Append one node of the current tree. Internal nodes: feature >= 0,
    /// `threshold_or_value` is the split threshold, and left/right are
    /// in-tree indices of the children. Leaves: feature < 0 and
    /// `threshold_or_value` is the leaf value (links ignored).
    void add_node(std::int32_t feature, double threshold_or_value,
                  std::int32_t left, std::int32_t right);

    /// Flatten everything added so far. The builder is consumed.
    FlatEnsemble build() &&;

   private:
    struct RawNode {
      std::int32_t feature;
      double threshold_or_value;
      std::int32_t left;
      std::int32_t right;
    };
    double base_score_;
    double scale_;
    bool attribution_ = true;
    /// Every tree's nodes back to back; tree t starts at starts_[t].
    std::vector<RawNode> nodes_;
    std::vector<std::size_t> starts_;
  };

  double base_score() const { return base_score_; }
  double scale() const { return scale_; }
  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return feature_.size(); }
  /// Deepest split path over all trees (0 = every tree is a lone leaf).
  int max_depth() const { return max_depth_; }

  /// True when build() produced the lossless quantized form (rank-coded
  /// thresholds, padded complete trees). False means the quantized kernel
  /// silently degrades — to dispatch, never in accuracy: requests for it
  /// fall back to the exact scalar kernel.
  bool quantized_supported() const { return quantized_ok_; }
  /// Why quantization was refused ("" when quantized_supported()).
  const std::string& quantize_reject_reason() const { return quant_reject_; }

  /// The kernel a predict call with this request would actually run:
  /// kAuto picks kQuantized when this ensemble quantized and the CPU runs
  /// AVX2, kScalar otherwise; an unquantizable ensemble degrades a
  /// kQuantized request to kScalar.
  Kernel effective_kernel(Kernel requested = Kernel::kAuto) const;

  /// Predict every row of x into out (out.size() == x.rows()), blocking
  /// rows across `pool` when provided. Block boundaries never change
  /// results: each row owns its output slot and its own walk. `kernel`
  /// forces a family member (kAuto = the ensemble's choice); every kernel
  /// returns bit-identical results, so forcing is a perf lever, never a
  /// correctness one.
  void predict_batch(const Matrix& x, std::span<double> out,
                     ThreadPool* pool = nullptr,
                     Kernel kernel = Kernel::kAuto) const;

  /// Explain every row of x (predictions/bias sized x.rows(),
  /// contributions row-major x.rows() * x.cols()), serially. Saabas path
  /// attributions: per row, zero the row's contribution slots, credit
  /// attr[child] to the split feature along every tree's decision path,
  /// recompute the prediction with the scalar kernel's exact operation
  /// sequence, and finalize the bias (see finalize_attribution). Contract:
  /// for every row, contributions summed in ascending feature order plus
  /// bias (added last) == predictions[row] bit-exactly, and predictions
  /// are bit-identical to predict_batch under every kernel.
  void explain_batch(const Matrix& x, std::span<double> predictions,
                     std::span<double> bias,
                     std::span<double> contributions) const;

 private:
  FlatEnsemble() = default;

  /// Attempt the lossless quantized compile (see file header); sets
  /// quantized_ok_ or records the refusal.
  void build_quantized();

  // Kernel bodies behind predict_batch's dispatch: rows [begin, end) of
  // x into out[begin, end), indexed by absolute row so concurrent callers
  // over disjoint ranges never touch the same slot.
  void predict_rows_scalar(const Matrix& x, std::size_t begin,
                           std::size_t end, double* out) const;
  void predict_rows_quantized(const Matrix& x, std::size_t begin,
                              std::size_t end, double* out) const;

  /// One feature's rank coder (sorted threshold table plus acceleration
  /// grid). The block masks and the few-row predicates both rank values
  /// through it, so there is one rank routine.
  struct RankScan;
  RankScan rank_scan(std::int32_t f) const;

  /// Build the per-block predicate-mask table: for every feature f and
  /// threshold rank k, masks[qmask_off_[f] + k] has bit r set iff row r of
  /// the block routes right at any split on (f, k) — i.e. #thresholds of
  /// f strictly below x(r, f) exceeds k (NaN above all ranks). The final
  /// pad entry masks[mask_count()] is zeroed (virtual padding splits
  /// point there).
  void build_block_masks(const Matrix& x, std::size_t block,
                         std::size_t count, std::uint16_t* masks) const;

  /// Few-row form of the mask table: for each of the `count` rows
  /// starting at `first`, a run of mask_count() + 1 bytes at
  /// pred[r * (mask_count() + 1)], one byte per predicate (feature, rank)
  /// that is 1 iff row r routes right there. Ranks each feature once per
  /// row and skips the block's suffix-OR; each run's pad byte is zeroed.
  void build_row_preds(const Matrix& x, std::size_t first, std::size_t count,
                       std::uint8_t* pred) const;

  /// Total predicate-mask entries per block (sum of per-feature distinct
  /// threshold counts); buffers hold one extra pad entry.
  std::size_t mask_count() const {
    return qmask_off_.empty() ? 0 : static_cast<std::size_t>(qmask_off_.back());
  }

  double base_score_ = 0.0;
  double scale_ = 1.0;
  /// SoA node storage; all trees share the arrays, `roots_[t]` is the
  /// absolute index of tree t's root.
  std::vector<std::int32_t> feature_;
  std::vector<double> value_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> roots_;
  /// Saabas attribution per node: attr_[j] = scale * (E[j] - E[parent(j)])
  /// for child slots (E = leaf-count-weighted subtree mean, built once by
  /// Builder::build()); root slots hold 0 (the explain walk never credits
  /// a root — finalize_attribution absorbs base + root expectations into
  /// the bias).
  std::vector<double> attr_;
  /// Per-tree depth: the lockstep kernel steps exactly this many times.
  std::vector<std::int32_t> depth_;
  int max_depth_ = 0;

  // Quantized form (present iff quantized_ok_). Trees are padded to
  // complete binary trees: tree t's internal slots are qmask_idx_
  // [qsplit_off_[t] .. +2^d-1) in level order (each a global predicate-
  // mask index), its leaves are qleaf_[qleaf_off_[t] .. +2^d); in-tree
  // child of slot s is 2s+1 / 2s+2. Virtual padding splits point at the
  // zeroed pad mask (index mask_count()).
  bool quantized_ok_ = false;
  std::string quant_reject_;
  std::int32_t quant_features_ = 0;  ///< 1 + max feature id seen in splits.
  std::vector<std::int32_t> qmask_idx_;
  std::vector<double> qleaf_;
  std::vector<std::int32_t> qsplit_off_;
  std::vector<std::int32_t> qleaf_off_;
  /// Per-feature ascending distinct thresholds, padded with at least one
  /// +inf terminator (to a power-of-two size) so the rank scan needs no
  /// bounds check: qtable_[qtable_off_[f] .. qtable_off_[f + 1]).
  std::vector<double> qtable_;
  std::vector<std::int32_t> qtable_off_;
  /// Per-feature predicate-mask regions: feature f owns mask ranks
  /// [qmask_off_[f], qmask_off_[f + 1]) — one per *distinct* threshold
  /// (the unpadded table size).
  std::vector<std::int32_t> qmask_off_;
  /// Per-feature uniform acceleration grid for the rank search: a value v
  /// of feature f maps to cell c = clamp((v - qgrid_lo_[f]) *
  /// qgrid_scale_[f]), and qgridrank_[qgrid_off_[f] + c] is a rank at or
  /// below rank(v) where the linear scan starts. Cells are assigned by
  /// running the *same* cell mapping over the thresholds at build time, so
  /// the start rank is a valid lower bound under any rounding.
  std::vector<std::int32_t> qgrid_off_;
  std::vector<double> qgrid_lo_;
  std::vector<double> qgrid_scale_;
  std::vector<std::int16_t> qgridrank_;
};

}  // namespace xfl::ml
