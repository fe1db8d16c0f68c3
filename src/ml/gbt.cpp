#include "ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/contracts.hpp"
#include "common/number.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "ml/gbt_flat.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xfl::ml {

namespace {
/// Training observability. Per-tree timings go to a histogram (and a span
/// per tree when tracing), so a slow fit decomposes into binning vs tree
/// growth without a profiler.
struct FitMetrics {
  obs::Counter& fits = obs::counter("gbt.fit.count");
  obs::Counter& rows = obs::counter("gbt.fit.rows");
  obs::Counter& trees = obs::counter("gbt.fit.trees");
  obs::Gauge& bins = obs::gauge("gbt.fit.bins");
  obs::Histogram& bin_us = obs::histogram("gbt.fit.bin_us");
  obs::Histogram& tree_us = obs::histogram("gbt.fit.tree_us");
};

FitMetrics& fit_metrics() {
  static FitMetrics metrics;
  return metrics;
}
}  // namespace

GradientBoostedTrees::GradientBoostedTrees(GbtConfig config)
    : config_(config) {
  XFL_EXPECTS(config_.valid());
}

double GradientBoostedTrees::Tree::predict(
    std::span<const double> features) const {
  std::int32_t index = 0;
  while (nodes[static_cast<std::size_t>(index)].feature >= 0) {
    const Node& node = nodes[static_cast<std::size_t>(index)];
    // <= matches the binning convention: bin b holds values in
    // (edges[b-1], edges[b]], so "bin <= split_bin" == "value <= threshold".
    index = features[static_cast<std::size_t>(node.feature)] <= node.threshold
                ? node.left
                : node.right;
  }
  return nodes[static_cast<std::size_t>(index)].value;
}

std::size_t GradientBoostedTrees::resolved_threads() const {
  if (config_.threads > 0) return static_cast<std::size_t>(config_.threads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void GradientBoostedTrees::build_bins(
    const Matrix& x, std::vector<std::vector<std::uint16_t>>& binned,
    ThreadPool* pool) {
  const std::size_t n = x.rows();
  bin_edges_.assign(x.cols(), {});
  binned.assign(x.cols(), {});
  const auto max_bins = static_cast<std::size_t>(config_.max_bins);
  auto bin_column = [&](std::size_t c) {
    // One sort of (value, row) pairs serves both jobs: the distinct values
    // define the edges, and a single merge walk assigns every row's code —
    // no per-value binary search. Codes are stored column-major for
    // cache-friendly histogram accumulation.
    std::vector<std::pair<double, std::size_t>> order(n);
    for (std::size_t r = 0; r < n; ++r) order[r] = {x.at(r, c), r};
    std::sort(order.begin(), order.end());
    std::vector<double> distinct;
    distinct.reserve(n);
    for (const auto& [value, row] : order)
      if (distinct.empty() || distinct.back() != value)
        distinct.push_back(value);

    auto& codes = binned[c];
    codes.assign(n, 0);
    auto& edges = bin_edges_[c];
    if (distinct.size() <= 1) return;  // Constant feature: no split points.
    if (distinct.size() <= max_bins) {
      // One split candidate between each pair of adjacent distinct values.
      edges.reserve(distinct.size() - 1);
      for (std::size_t i = 0; i + 1 < distinct.size(); ++i)
        edges.push_back(0.5 * (distinct[i] + distinct[i + 1]));
    } else {
      // Quantile sketch: evenly spaced quantiles of the distinct values.
      edges.reserve(max_bins - 1);
      for (std::size_t b = 1; b < max_bins; ++b) {
        const double q = static_cast<double>(b) /
                         static_cast<double>(max_bins) *
                         static_cast<double>(distinct.size() - 1);
        edges.push_back(distinct[static_cast<std::size_t>(q)]);
      }
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    }
    // Code b counts the edges < value, i.e. value lands in
    // (edges[b-1], edges[b]]; values are visited ascending, so the edge
    // cursor only moves forward.
    std::size_t e = 0;
    for (const auto& [value, row] : order) {
      while (e < edges.size() && value > edges[e]) ++e;
      codes[row] = static_cast<std::uint16_t>(e);
    }
  };
  if (pool != nullptr && x.cols() > 1) {
    pool->parallel_for(x.cols(), bin_column);
  } else {
    for (std::size_t c = 0; c < x.cols(); ++c) bin_column(c);
  }
}

namespace {
/// Leaf weight under the XGBoost squared-loss objective: -G / (H + lambda).
double leaf_value(double grad_sum, double hess_sum, double lambda) {
  return -grad_sum / (hess_sum + lambda);
}

/// Best split of one candidate column, from its histogram scan. Splits are
/// compared on the score sum GL^2/(HL+l) + GR^2/(HR+l); the gain
/// 0.5 * (score_sum - parent_score) - gamma is a monotone function of it,
/// so the ordering matches and the subtraction happens once, for the
/// winner, instead of per bin.
struct SplitScan {
  bool valid = false;
  double score_sum = 0.0;
  std::size_t bin = 0;
  double left_grad = 0.0;
  std::size_t left_count = 0;
};

/// Minimum (node rows x candidate columns) before a per-node histogram
/// build is worth fanning out to the pool.
constexpr std::size_t kMinParallelHistWork = 8192;
}  // namespace

GradientBoostedTrees::Tree GradientBoostedTrees::grow_tree(
    const std::vector<std::vector<std::uint16_t>>& binned,
    const std::vector<double>& grad, std::span<const std::uint32_t> weights,
    std::vector<std::size_t>& sampled, std::vector<std::size_t>& unsampled,
    const std::vector<std::size_t>& cols, const std::vector<double>& inv_hess,
    FitScratch& fit_scratch, ThreadPool* pool,
    std::vector<std::int32_t>& leaf_of) {
  Tree tree;
  // A depth-d tree has at most 2^(d+1) - 1 nodes.
  tree.nodes.reserve((std::size_t{2} << config_.max_depth) - 1);
  const std::size_t width = cols.size();
  std::vector<std::vector<double>>& hist_pool = fit_scratch.hist_pool;
  std::vector<std::vector<std::uint32_t>>& count_pool = fit_scratch.count_pool;

  // Flat histogram layout: candidate column j owns the half-open slice
  // [offset[j], offset[j+1]) of two parallel arrays — gradient sums in a
  // double buffer and row counts (== hessian sums, squared loss) in a
  // uint32 buffer, so count accumulation, subtraction, and the scan's
  // running hessian are integer ops. Constant features get an empty slice.
  std::vector<std::size_t>& offset = fit_scratch.offset;
  offset.assign(width + 1, 0);
  for (std::size_t j = 0; j < width; ++j) {
    const auto& edges = bin_edges_[cols[j]];
    offset[j + 1] = offset[j] + (edges.empty() ? 0 : edges.size() + 1);
  }
  const std::size_t total_bins = offset[width];

  // Work queue of nodes to try to split. Each node owns a contiguous range
  // of `sampled` ([sampled_begin, sampled_end)) and of `unsampled`, plus its
  // gradient statistics and (except the root, built lazily) its histogram —
  // cached so a sibling can be derived by subtraction.
  struct Pending {
    std::int32_t node;
    int depth;
    std::size_t sampled_begin, sampled_end;
    std::size_t unsampled_begin, unsampled_end;
    double grad_sum;
    std::size_t count_sum;         // Hessian sum as an exact row count.
    std::vector<double> hist;      // Gradient sums; empty until built.
    std::vector<std::uint32_t> counts;  // Row counts; empty until built.
  };
  std::vector<Pending> pending;
  // A depth-d tree pops at most 2^(d+1) - 1 nodes and the queue holds one
  // level plus a sibling at a time; one reservation keeps push_back from
  // ever reallocating (moving a Pending drags its histogram along).
  pending.reserve(2 * static_cast<std::size_t>(config_.max_depth) + 4);

  // Histogram buffers cycle through `hist_pool` instead of being allocated
  // per node: an acquire reuses a retired node's capacity.
  auto acquire_hist = [&](std::vector<double>& hist,
                          std::vector<std::uint32_t>& counts) {
    if (!hist_pool.empty()) {
      hist = std::move(hist_pool.back());
      hist_pool.pop_back();
    }
    if (!count_pool.empty()) {
      counts = std::move(count_pool.back());
      count_pool.pop_back();
    }
    hist.assign(total_bins, 0.0);
    counts.assign(total_bins, 0);
  };
  auto release_hist = [&](std::vector<double>& hist,
                          std::vector<std::uint32_t>& counts) {
    if (hist.capacity() != 0) hist_pool.push_back(std::move(hist));
    if (counts.capacity() != 0) count_pool.push_back(std::move(counts));
  };

  // Builds the histogram of every candidate column over one node's sampled
  // rows. Each column owns its output slice, and rows are visited in the
  // partition order (ascending original row order), so the result does not
  // depend on how columns are distributed over workers.
  auto build_hist = [&](const Pending& task, std::vector<double>& hist,
                        std::vector<std::uint32_t>& counts) {
    acquire_hist(hist, counts);
    auto column_job = [&](std::size_t j) {
      if (offset[j + 1] == offset[j]) return;  // Constant feature.
      const std::uint16_t* column_bins = binned[cols[j]].data();
      const std::size_t* rows = sampled.data();
      const double* grads = grad.data();
      double* grad_slice = hist.data() + offset[j];
      std::uint32_t* count_slice = counts.data() + offset[j];
      if (weights.empty()) {
        for (std::size_t p = task.sampled_begin; p < task.sampled_end; ++p) {
          const std::size_t r = rows[p];
          const std::size_t bin = column_bins[r];
          grad_slice[bin] += grads[r];
          count_slice[bin] += 1;
        }
      } else {
        // Weighted rows carry their multiplicity into the count (hessian)
        // histogram; the gradient already folds the weight in.
        const std::uint32_t* row_weights = weights.data();
        for (std::size_t p = task.sampled_begin; p < task.sampled_end; ++p) {
          const std::size_t r = rows[p];
          const std::size_t bin = column_bins[r];
          grad_slice[bin] += grads[r];
          count_slice[bin] += row_weights[r];
        }
      }
    };
    const std::size_t rows_in_node = task.sampled_end - task.sampled_begin;
    if (pool != nullptr && width > 1 &&
        rows_in_node * width >= kMinParallelHistWork) {
      pool->parallel_for(width, column_job);
    } else {
      for (std::size_t j = 0; j < width; ++j) column_job(j);
    }
  };

  // Stable in-place partition of idx[begin, end) on the winning split;
  // returns the boundary. Stability keeps every node's rows in ascending
  // original order, which pins the histogram accumulation order.
  fit_scratch.rows.resize(std::max(sampled.size(), unsampled.size()));
  auto partition_range = [&](std::vector<std::size_t>& idx, std::size_t begin,
                             std::size_t end,
                             const std::vector<std::uint16_t>& column_bins,
                             std::size_t split_bin) {
    std::size_t* right_rows = fit_scratch.rows.data();
    std::size_t right_count = 0;
    std::size_t mid = begin;
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t r = idx[p];
      if (column_bins[r] <= split_bin)
        idx[mid++] = r;
      else
        right_rows[right_count++] = r;
    }
    std::copy_n(right_rows, right_count, idx.data() + mid);
    return mid;
  };

  auto finalize_leaf = [&](Pending& task) {
    for (std::size_t p = task.sampled_begin; p < task.sampled_end; ++p)
      leaf_of[sampled[p]] = task.node;
    for (std::size_t p = task.unsampled_begin; p < task.unsampled_end; ++p)
      leaf_of[unsampled[p]] = task.node;
    release_hist(task.hist, task.counts);
  };

  double root_grad = 0.0;
  for (std::size_t p = 0; p < sampled.size(); ++p) root_grad += grad[sampled[p]];
  std::size_t root_count = sampled.size();
  if (!weights.empty()) {
    root_count = 0;
    for (std::size_t p = 0; p < sampled.size(); ++p)
      root_count += weights[sampled[p]];
  }

  tree.nodes.push_back({});
  tree.nodes[0].value =
      leaf_value(root_grad, static_cast<double>(root_count), config_.lambda);
  pending.push_back({0, 0, 0, sampled.size(), 0, unsampled.size(), root_grad,
                     root_count, {}, {}});

  std::vector<SplitScan> scans(width);
  while (!pending.empty()) {
    Pending task = std::move(pending.back());
    pending.pop_back();
    const std::size_t sampled_count = task.sampled_end - task.sampled_begin;
    if (task.depth >= config_.max_depth || sampled_count < 2 ||
        static_cast<double>(task.count_sum) <
            2.0 * config_.min_child_weight) {
      finalize_leaf(task);
      continue;
    }

    const double parent_grad = task.grad_sum;
    const std::size_t parent_count = task.count_sum;
    // Hessian sums are exact integer row counts (squared loss, h_i == 1),
    // so every score term G^2 / (H + lambda) resolves its divisor through
    // the precomputed reciprocal table — no division in the scan.
    const double parent_score =
        parent_grad * parent_grad * inv_hess[parent_count];

    if (task.hist.empty())  // Root (children arrive with histograms).
      build_hist(task, task.hist, task.counts);

    // Scan every candidate column's histogram for its best split, then
    // reduce in candidate order (first strictly-better wins) so ties break
    // identically to a serial left-to-right scan over (column, bin).
    //
    // Counts are exact integers even in derived (subtracted) histograms, so
    // "child non-empty and heavy enough" folds into one integer comparison
    // against ceil(max(1, min_child_weight)); and because the right-hand
    // count only ever shrinks, the first starved right side ends the
    // column. A split qualifies when gain > gamma, i.e. score_sum >
    // 2 * gamma + parent_score.
    const std::size_t min_child = static_cast<std::size_t>(
        std::ceil(std::max(1.0, config_.min_child_weight)));
    const double min_score_sum = 2.0 * config_.gamma + parent_score;
    for (std::size_t j = 0; j < width; ++j) {
      SplitScan scan;
      scan.score_sum = min_score_sum;
      const std::size_t bins = offset[j + 1] - offset[j];
      if (bins != 0) {
        const double* grad_cursor = task.hist.data() + offset[j];
        const std::uint32_t* count_cursor = task.counts.data() + offset[j];
        double left_grad = 0.0;
        std::size_t left_count = 0;
        for (std::size_t b = 0; b + 1 < bins; ++b) {
          left_grad += grad_cursor[b];
          left_count += count_cursor[b];
          const std::size_t right_count = parent_count - left_count;
          if (right_count < min_child) break;
          if (left_count < min_child) continue;
          const double right_grad = parent_grad - left_grad;
          const double score_sum =
              left_grad * left_grad * inv_hess[left_count] +
              right_grad * right_grad * inv_hess[right_count];
          if (score_sum > scan.score_sum) {
            scan.valid = true;
            scan.score_sum = score_sum;
            scan.bin = b;
            scan.left_grad = left_grad;
            scan.left_count = left_count;
          }
        }
      }
      scans[j] = scan;
    }
    double best_score_sum = min_score_sum;
    std::size_t best_j = 0;
    bool found = false;
    for (std::size_t j = 0; j < width; ++j) {
      if (scans[j].valid && scans[j].score_sum > best_score_sum) {
        best_score_sum = scans[j].score_sum;
        best_j = j;
        found = true;
      }
    }
    if (!found) {  // No profitable split.
      finalize_leaf(task);
      continue;
    }

    // Materialise the split.
    const double best_gain = 0.5 * (best_score_sum - parent_score);
    const std::size_t best_col = cols[best_j];
    const std::size_t best_bin = scans[best_j].bin;
    const double left_grad = scans[best_j].left_grad;
    const std::size_t left_count = scans[best_j].left_count;
    const double right_grad = parent_grad - left_grad;
    const std::size_t right_count = parent_count - left_count;
    const auto& column_bins = binned[best_col];
    const std::size_t sampled_mid = partition_range(
        sampled, task.sampled_begin, task.sampled_end, column_bins, best_bin);
    const std::size_t unsampled_mid =
        partition_range(unsampled, task.unsampled_begin, task.unsampled_end,
                        column_bins, best_bin);
    XFL_ENSURES(sampled_mid > task.sampled_begin &&
                sampled_mid < task.sampled_end);

    const auto left_index = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.push_back({});
    const auto right_index = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.push_back({});
    tree.nodes[static_cast<std::size_t>(left_index)].value = leaf_value(
        left_grad, static_cast<double>(left_count), config_.lambda);
    tree.nodes[static_cast<std::size_t>(right_index)].value = leaf_value(
        right_grad, static_cast<double>(right_count), config_.lambda);
    Node& parent = tree.nodes[static_cast<std::size_t>(task.node)];
    parent.feature = static_cast<std::int32_t>(best_col);
    parent.threshold = bin_edges_[best_col][best_bin];
    parent.left = left_index;
    parent.right = right_index;
    importance_gain_[best_col] += best_gain;

    Pending left{left_index,
                 task.depth + 1,
                 task.sampled_begin,
                 sampled_mid,
                 task.unsampled_begin,
                 unsampled_mid,
                 left_grad,
                 left_count,
                 {},
                 {}};
    Pending right{right_index,
                  task.depth + 1,
                  sampled_mid,
                  task.sampled_end,
                  unsampled_mid,
                  task.unsampled_end,
                  right_grad,
                  right_count,
                  {},
                  {}};

    // Histogram subtraction: build the smaller child's histogram directly
    // and derive the sibling as parent - child, reusing the parent's
    // buffer. Which child is "smaller" depends only on the split, never on
    // threading, so results stay bit-identical across thread counts.
    // Children that the pop-time leaf check is guaranteed to finalise
    // (at max depth, too few rows, or too little hessian mass) will never
    // be scanned, so their histograms are never materialised — this halves
    // the histogram work of the deepest level.
    auto can_split = [&](const Pending& child) {
      return child.depth < config_.max_depth &&
             child.sampled_end - child.sampled_begin >= 2 &&
             static_cast<double>(child.count_sum) >=
                 2.0 * config_.min_child_weight;
    };
    Pending& small = (sampled_mid - task.sampled_begin <=
                      task.sampled_end - sampled_mid)
                         ? left
                         : right;
    Pending& large = (&small == &left) ? right : left;
    const bool small_needs = can_split(small);
    const bool large_needs = can_split(large);
    if (small_needs || large_needs) build_hist(small, small.hist, small.counts);
    if (large_needs) {
      for (std::size_t b = 0; b < total_bins; ++b) task.hist[b] -= small.hist[b];
      for (std::size_t b = 0; b < total_bins; ++b)
        task.counts[b] -= small.counts[b];
      large.hist = std::move(task.hist);
      large.counts = std::move(task.counts);
    } else {
      release_hist(task.hist, task.counts);
    }

    pending.push_back(std::move(left));
    pending.push_back(std::move(right));
  }
  return tree;
}

void GradientBoostedTrees::fit(const Matrix& x, std::span<const double> y) {
  fit(x, y, {});
}

void GradientBoostedTrees::fit(const Matrix& x, std::span<const double> y,
                               std::span<const std::uint32_t> weights) {
  XFL_EXPECTS(x.rows() == y.size());
  XFL_EXPECTS(x.rows() >= 2 && x.cols() >= 1);
  const bool weighted = !weights.empty();
  XFL_EXPECTS(!weighted || weights.size() == x.rows());
  XFL_SPAN("gbt.fit");
  auto& metrics = fit_metrics();
  const std::uint64_t fit_start_us = obs::monotonic_us();
  const std::size_t n = x.rows();
  feature_count_ = x.cols();
  trees_.clear();
  importance_gain_.assign(feature_count_, 0.0);

  const std::size_t workers = resolved_threads();
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  if (workers > 1) {
    owned_pool = std::make_unique<ThreadPool>(workers);
    pool = owned_pool.get();
  }

  // Columns are independent, so edge derivation + code assignment fans out
  // per column.
  std::vector<std::vector<std::uint16_t>> binned;
  {
    XFL_SPAN("gbt.fit.bin");
    const std::uint64_t bin_start_us = obs::monotonic_us();
    build_bins(x, binned, pool);
    metrics.bin_us.record(
        static_cast<double>(obs::monotonic_us() - bin_start_us));
  }
  std::size_t total_bins = 0;
  for (const auto& edges : bin_edges_)
    if (!edges.empty()) total_bins += edges.size() + 1;
  metrics.bins.set(static_cast<double>(total_bins));

  // Total hessian mass: n for the unweighted path, the weight sum when
  // multiplicities are supplied. Bounded to keep the uint32 count
  // histograms exact.
  std::size_t total_weight = n;
  if (weighted) {
    total_weight = 0;
    for (const std::uint32_t w : weights) {
      XFL_EXPECTS(w >= 1);
      total_weight += w;
    }
    XFL_EXPECTS(total_weight <=
                std::numeric_limits<std::uint32_t>::max());
  }

  if (weighted) {
    double weighted_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      weighted_sum += static_cast<double>(weights[i]) * y[i];
    base_score_ = weighted_sum / static_cast<double>(total_weight);
  } else {
    base_score_ = mean(y);
  }
  std::vector<double> predictions(n, base_score_);
  // Squared loss: g_i = prediction - y_i, h_i = 1 (folded into counts);
  // a row of multiplicity w contributes w * g_i gradient and w hessian.
  // The gradient is kept current by the post-tree scatter, so it is
  // computed directly only once, here.
  std::vector<double> grad(n);
  for (std::size_t i = 0; i < n; ++i) grad[i] = base_score_ - y[i];
  if (weighted)
    for (std::size_t i = 0; i < n; ++i)
      grad[i] *= static_cast<double>(weights[i]);

  Rng rng(config_.seed);
  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<std::size_t> all_cols(feature_count_);
  std::iota(all_cols.begin(), all_cols.end(), 0);

  // Squared loss makes every hessian sum an exact integer count in
  // [0, total_weight], so 1 / (H + lambda) can be tabulated once and
  // split scans run division-free — integer multiplicities preserve this.
  std::vector<double> inv_hess(total_weight + 1);
  for (std::size_t h = 0; h <= total_weight; ++h)
    inv_hess[h] = 1.0 / (static_cast<double>(h) + config_.lambda);

  std::vector<std::size_t> sampled, unsampled, cols;
  FitScratch scratch;
  std::vector<std::int32_t> leaf_of(n, 0);
  for (int t = 0; t < config_.trees; ++t) {
    XFL_SPAN("gbt.fit.tree");
    const std::uint64_t tree_start_us = obs::monotonic_us();
    sampled.clear();
    unsampled.clear();
    if (config_.subsample < 1.0) {
      sampled.reserve(static_cast<std::size_t>(
          static_cast<double>(n) * config_.subsample) + 1);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(config_.subsample))
          sampled.push_back(i);
        else
          unsampled.push_back(i);
      }
      if (sampled.size() < 2) {
        sampled = all_rows;
        unsampled.clear();
      }
    } else {
      sampled = all_rows;
    }

    cols.clear();
    if (config_.colsample < 1.0 && feature_count_ > 1) {
      for (std::size_t c = 0; c < feature_count_; ++c)
        if (rng.bernoulli(config_.colsample)) cols.push_back(c);
      if (cols.empty()) cols = all_cols;
    } else {
      cols = all_cols;
    }

    Tree tree = grow_tree(binned, grad, weights, sampled, unsampled, cols,
                          inv_hess, scratch, pool, leaf_of);
    // Update predictions over *all* rows with shrinkage: every row was
    // routed to a leaf during growth, so this is an O(n) scatter rather
    // than n tree traversals. The gradient refresh for the next tree rides
    // in the same pass (re-folding the multiplicity when weighted).
    if (weighted) {
      for (std::size_t i = 0; i < n; ++i) {
        predictions[i] +=
            config_.learning_rate *
            tree.nodes[static_cast<std::size_t>(leaf_of[i])].value;
        grad[i] =
            (predictions[i] - y[i]) * static_cast<double>(weights[i]);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        predictions[i] +=
            config_.learning_rate *
            tree.nodes[static_cast<std::size_t>(leaf_of[i])].value;
        grad[i] = predictions[i] - y[i];
      }
    }
    trees_.push_back(std::move(tree));
    metrics.tree_us.record(
        static_cast<double>(obs::monotonic_us() - tree_start_us));
  }
  compile_flat();
  fitted_ = true;
  metrics.fits.add(1);
  metrics.rows.add(n);
  metrics.trees.add(static_cast<std::uint64_t>(config_.trees));
  XFL_LOG(debug) << "gbt fit complete"
                 << obs::kv("rows", n) << obs::kv("cols", feature_count_)
                 << obs::kv("trees", config_.trees)
                 << obs::kv("bins", total_bins)
                 << obs::kv("threads", workers)
                 << obs::kv("elapsed_us", obs::monotonic_us() - fit_start_us);
}

void GradientBoostedTrees::compile_flat() {
  FlatEnsemble::Builder builder(base_score_, config_.learning_rate);
  for (const auto& tree : trees_) {
    builder.begin_tree();
    for (const auto& node : tree.nodes)
      builder.add_node(node.feature,
                       node.feature >= 0 ? node.threshold : node.value,
                       node.left, node.right);
  }
  flat_ = std::make_shared<const FlatEnsemble>(std::move(builder).build());
}

const FlatEnsemble& GradientBoostedTrees::flat() const {
  XFL_EXPECTS(fitted_ && flat_ != nullptr);
  return *flat_;
}

double GradientBoostedTrees::predict(std::span<const double> features) const {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(features.size() == feature_count_);
  return flat_->predict_one(features);
}

double GradientBoostedTrees::predict_nodewalk(
    std::span<const double> features) const {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(features.size() == feature_count_);
  double value = base_score_;
  for (const auto& tree : trees_)
    value += config_.learning_rate * tree.predict(features);
  return value;
}

double GradientBoostedTrees::explain_nodewalk(
    std::span<const double> features, std::span<double> contributions,
    double& bias) const {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(features.size() == feature_count_);
  XFL_EXPECTS(contributions.size() == feature_count_);
  std::fill(contributions.begin(), contributions.end(), 0.0);
  double value = base_score_;
  std::vector<double> expect;
  std::vector<double> weight;
  for (const auto& tree : trees_) {
    // Leaf-count-weighted subtree means, bottom-up. The expressions match
    // FlatEnsemble::Builder::build()'s attribution pass exactly — same
    // operand order — so both paths produce bitwise-identical tables.
    expect.assign(tree.nodes.size(), 0.0);
    weight.assign(tree.nodes.size(), 0.0);
    const auto fill = [&](auto&& self, std::int32_t n) -> void {
      const Node& node = tree.nodes[static_cast<std::size_t>(n)];
      if (node.feature < 0) {
        expect[static_cast<std::size_t>(n)] = node.value;
        weight[static_cast<std::size_t>(n)] = 1.0;
        return;
      }
      self(self, node.left);
      self(self, node.right);
      const double wl = weight[static_cast<std::size_t>(node.left)];
      const double wr = weight[static_cast<std::size_t>(node.right)];
      weight[static_cast<std::size_t>(n)] = wl + wr;
      expect[static_cast<std::size_t>(n)] =
          (wl * expect[static_cast<std::size_t>(node.left)] +
           wr * expect[static_cast<std::size_t>(node.right)]) /
          weight[static_cast<std::size_t>(n)];
    };
    fill(fill, 0);
    std::int32_t index = 0;
    while (tree.nodes[static_cast<std::size_t>(index)].feature >= 0) {
      const Node& node = tree.nodes[static_cast<std::size_t>(index)];
      // Same routing as Tree::predict: x <= t left, NaN right.
      const std::int32_t child =
          features[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
      contributions[static_cast<std::size_t>(node.feature)] +=
          config_.learning_rate * (expect[static_cast<std::size_t>(child)] -
                                   expect[static_cast<std::size_t>(index)]);
      index = child;
    }
    value += config_.learning_rate *
             tree.nodes[static_cast<std::size_t>(index)].value;
  }
  bias = finalize_attribution(value, contributions.data(),
                              contributions.size());
  return value;
}

void GradientBoostedTrees::explain_batch(const Matrix& x,
                                         std::span<double> predictions,
                                         std::span<double> bias,
                                         std::span<double> contributions,
                                         ThreadPool* pool) const {
  XFL_EXPECTS(fitted_);
  if (x.rows() == 0) return;
  XFL_EXPECTS(x.cols() == feature_count_);
  flat_->explain_batch(x, predictions, bias, contributions, pool);
}

void GradientBoostedTrees::predict_batch(const Matrix& x,
                                         std::span<double> out,
                                         ThreadPool* pool) const {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(out.size() == x.rows());
  if (x.rows() == 0) return;
  XFL_EXPECTS(x.cols() == feature_count_);
  flat_->predict_batch(x, out, pool);
}

std::vector<double> GradientBoostedTrees::predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  if (x.rows() == 0) return out;
  const std::size_t workers = resolved_threads();
  // Small batches stay serial to skip pool setup; results are identical
  // either way.
  if (workers > 1 && x.rows() >= 512) {
    ThreadPool pool(workers);
    predict_batch(x, out, &pool);
  } else {
    predict_batch(x, out);
  }
  return out;
}

namespace {
constexpr const char* kModelMagic = "xfl-gbt-v1";
}  // namespace

void GradientBoostedTrees::save(std::ostream& out) const {
  std::string text;
  save(text);
  out << text;
}

void GradientBoostedTrees::save(std::string& out) const {
  XFL_EXPECTS(fitted_);
  out += kModelMagic;
  out += '\n';
  append_line(out, feature_count_, config_.learning_rate, base_score_);
  append_number(out, importance_gain_.size());
  for (const double gain : importance_gain_) {
    out += ' ';
    append_number(out, gain);
  }
  out += '\n';
  append_line(out, trees_.size());
  for (const auto& tree : trees_) {
    append_line(out, tree.nodes.size());
    for (const auto& node : tree.nodes)
      append_line(out, node.feature, node.threshold, node.value, node.left,
                  node.right);
  }
}

GradientBoostedTrees GradientBoostedTrees::load(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  TokenReader reader(text.view());
  return load(reader);
}

GradientBoostedTrees GradientBoostedTrees::load(TokenReader& in) {
  auto fail = [](const std::string& what) -> void {
    throw std::runtime_error("GradientBoostedTrees::load: " + what);
  };
  const std::string_view magic = in.token();
  if (magic != kModelMagic) fail("bad magic '" + std::string(magic) + "'");

  // Sanity caps: a corrupted header must throw, not drive a multi-gigabyte
  // resize or leave counts that later index out of bounds. Below the caps,
  // a count must also fit in the bytes left, so nothing is sized by a
  // count the input cannot back.
  constexpr std::size_t kMaxFeatures = 1u << 20;
  constexpr std::size_t kMaxTrees = 1u << 20;
  constexpr std::size_t kMaxNodes = 1u << 22;
  constexpr std::size_t kNodeTokens = 5;

  GradientBoostedTrees model;
  std::size_t importance_count = 0, tree_count = 0;
  if (!in.read(model.feature_count_, model.config_.learning_rate,
               model.base_score_, importance_count))
    fail("truncated header");
  if (model.feature_count_ == 0 || model.feature_count_ > kMaxFeatures)
    fail("implausible feature count");
  if (!(model.config_.learning_rate > 0.0)) fail("non-positive learning rate");
  // An importance block is either absent (count 0, e.g. stripped models)
  // or exactly one gain per feature.
  if (importance_count != 0 && importance_count != model.feature_count_)
    fail("importance count does not match feature count");
  if (!in.fits(importance_count, 1)) fail("truncated importance block");
  model.importance_gain_.resize(importance_count);
  for (auto& gain : model.importance_gain_)
    if (!in.read(gain)) fail("truncated importance block");
  if (!in.read(tree_count)) fail("truncated importance block");
  // Each tree is its node count plus at least one node.
  if (tree_count > kMaxTrees || !in.fits(tree_count, 1 + kNodeTokens))
    fail("implausible tree count");
  model.trees_.resize(tree_count);
  for (auto& tree : model.trees_) {
    std::size_t node_count = 0;
    if (!in.read(node_count) || node_count == 0 || node_count > kMaxNodes ||
        !in.fits(node_count, kNodeTokens))
      fail("implausible node count");
    tree.nodes.resize(node_count);
    std::vector<bool> child_seen(node_count, false);
    for (std::size_t i = 0; i < node_count; ++i) {
      Node& node = tree.nodes[i];
      if (!in.read(node.feature, node.threshold, node.value, node.left,
                   node.right))
        fail("truncated or malformed model");
      if (node.feature < 0) continue;  // Leaf: links are unused.
      // Internal node: the feature must exist and both children must point
      // forward (grow_tree appends children after their parent), which also
      // guarantees Tree::predict terminates.
      if (static_cast<std::size_t>(node.feature) >= model.feature_count_)
        fail("split feature out of range");
      const auto index = static_cast<std::int32_t>(i);
      if (node.left <= index || node.right <= index ||
          static_cast<std::size_t>(node.left) >= node_count ||
          static_cast<std::size_t>(node.right) >= node_count)
        fail("child index out of range");
      // Each node may be a child of at most one parent: a crafted DAG
      // would predict fine but blow up the flattened compilation (every
      // path to a shared node gets its own flat copy).
      if (node.left == node.right ||
          child_seen[static_cast<std::size_t>(node.left)] ||
          child_seen[static_cast<std::size_t>(node.right)])
        fail("node referenced by multiple parents");
      child_seen[static_cast<std::size_t>(node.left)] = true;
      child_seen[static_cast<std::size_t>(node.right)] = true;
    }
  }
  model.compile_flat();
  model.fitted_ = true;
  return model;
}

std::vector<double> GradientBoostedTrees::feature_importance() const {
  XFL_EXPECTS(fitted_);
  // Models loaded from files that carry no importance block are valid but
  // have nothing to report; max_element on the empty range would be UB.
  if (importance_gain_.empty()) return {};
  std::vector<double> importance = importance_gain_;
  const double max_gain =
      *std::max_element(importance.begin(), importance.end());
  if (max_gain > 0.0)
    for (double& value : importance) value /= max_gain;
  return importance;
}

}  // namespace xfl::ml
