#include "ml/gbt.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <istream>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/number.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
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

namespace {
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Order-preserving unsigned key of a double: a < b exactly when
/// sort_key(a) < sort_key(b). -0.0 and 0.0 share a key, since they compare
/// equal.
std::uint64_t sort_key(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value == 0.0 ? 0.0 : value);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

/// The value of a sort_key (0.0 for the shared zero key).
double key_value(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit : ~key);
}

/// Stable LSD radix sort of keys, one byte per pass, carrying `order`
/// along. A pass whose byte is the same in every key is skipped. Being
/// stable, it leaves equal keys in their incoming order.
void radix_sort(std::vector<std::uint64_t>& keys,
                std::vector<std::uint32_t>& order) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (const std::uint64_t key : keys)
    for (std::size_t d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 255];
  std::vector<std::uint64_t> keys_out(n);
  std::vector<std::uint32_t> order_out(n);
  for (std::size_t d = 0; d < 8; ++d) {
    const unsigned shift = static_cast<unsigned>(8 * d);
    auto& next = counts[d];
    if (next[(keys[0] >> shift) & 255] == n) continue;
    std::uint32_t start = 0;
    for (std::uint32_t& slot : next) start += std::exchange(slot, start);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t pos = next[(keys[i] >> shift) & 255]++;
      keys_out[pos] = keys[i];
      order_out[pos] = order[i];
    }
    keys.swap(keys_out);
    order.swap(order_out);
  }
}
}  // namespace

void GradientBoostedTrees::build_bins(const Matrix& x,
                                      MappedVector<std::uint16_t>& codes) {
  const std::size_t n = x.rows();
  const std::size_t width = x.cols();
  bin_edges_.assign(width, {});
  codes.assign(n * width, 0);
  const auto max_bins = static_cast<std::size_t>(config_.max_bins);
  for (std::size_t c = 0; c < width; ++c) {
    // One sort of the rows by value serves both jobs: the distinct values
    // define the edges, and a single merge walk assigns every row's code —
    // no per-value binary search. Equal values keep ascending row order, so
    // each distinct value is taken from its first row.
    std::vector<std::uint64_t> keys(n);
    std::vector<std::uint32_t> order(n);
    for (std::size_t r = 0; r < n; ++r) keys[r] = sort_key(x.at(r, c));
    std::iota(order.begin(), order.end(), 0u);
    radix_sort(keys, order);
    std::vector<double> distinct;
    distinct.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      if (i == 0 || keys[i] != keys[i - 1])
        distinct.push_back(x.at(order[i], c));

    auto& edges = bin_edges_[c];
    if (distinct.size() <= 1) continue;  // Constant feature: no split points.
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
    // cursor only moves forward. At most max_bins - 1 edges, so every code
    // fits a uint16 (GbtConfig::kMaxBins).
    std::size_t e = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double value = key_value(keys[i]);
      while (e < edges.size() && value > edges[e]) ++e;
      codes[order[i] * width + c] = static_cast<std::uint16_t>(e);
    }
  }
}

using detail::HistCell;

namespace {
/// L2 regularisation on leaf values (XGBoost's default lambda).
constexpr double kLambda = 1.0;

/// Leaf weight under the XGBoost squared-loss objective: -G / (H + lambda).
double leaf_value(double grad_sum, double hess_sum) {
  return -grad_sum / (hess_sum + kLambda);
}

/// Best split of one candidate column, from its histogram scan. Splits are
/// compared on the score sum GL^2/(HL+l) + GR^2/(HR+l); the gain
/// 0.5 * (score_sum - parent_score) is a monotone function of it,
/// so the ordering matches and the subtraction happens once, for the
/// winner, instead of per bin.
struct SplitScan {
  bool valid = false;
  double score_sum = 0.0;
  std::size_t bin = 0;
  double left_grad = 0.0;
  std::size_t left_count = 0;
};

/// Row-wise histogram build: one pass over rows[begin, end) that reads each
/// row's gradient (and weight) once and adds it to the bin of every one of
/// the `active` columns. Rows go four to a pass, so each column's feature
/// index and slice are loaded once for four cell updates, and the four
/// rows are added to that column in partition order. A (column, bin)
/// cell therefore still sums its rows in partition order; only the
/// interleaving across columns differs from a column-by-column build, so
/// the sums are bit-identical to it. A weighted row adds its multiplicity
/// to the cell's count where an unweighted row adds 1; the gradient already
/// folds the weight in.
template <bool Weighted>
void accumulate_rows(const std::uint16_t* codes, std::size_t stride,
                     const std::uint32_t* rows, std::size_t begin,
                     std::size_t end, const double* grads,
                     const std::uint32_t* weights,
                     const std::uint32_t* active_col,
                     const std::size_t* offset, std::size_t active,
                     HistCell* hist) {
  auto row_cell = [&](std::size_t r) {
    return HistCell{grads[r], Weighted ? static_cast<double>(weights[r]) : 1.0};
  };
  std::size_t p = begin;
  for (; p + 4 <= end; p += 4) {
    const std::size_t r0 = rows[p], r1 = rows[p + 1], r2 = rows[p + 2],
                      r3 = rows[p + 3];
    const HistCell g0 = row_cell(r0), g1 = row_cell(r1), g2 = row_cell(r2),
                   g3 = row_cell(r3);
    const std::uint16_t* c0 = codes + r0 * stride;
    const std::uint16_t* c1 = codes + r1 * stride;
    const std::uint16_t* c2 = codes + r2 * stride;
    const std::uint16_t* c3 = codes + r3 * stride;
    for (std::size_t k = 0; k < active; ++k) {
      const std::size_t col = active_col[k];
      HistCell* slice = hist + offset[k];
      slice[c0[col]] += g0;
      slice[c1[col]] += g1;
      slice[c2[col]] += g2;
      slice[c3[col]] += g3;
    }
  }
  for (; p < end; ++p) {
    const std::size_t r = rows[p];
    const HistCell g = row_cell(r);
    const std::uint16_t* c = codes + r * stride;
    for (std::size_t k = 0; k < active; ++k)
      hist[offset[k] + c[active_col[k]]] += g;
  }
}
}  // namespace

GradientBoostedTrees::Tree GradientBoostedTrees::grow_tree(
    const MappedVector<std::uint16_t>& codes, const std::vector<double>& grad,
    std::span<const std::uint32_t> weights, std::vector<std::uint32_t>& sampled,
    std::vector<std::uint32_t>& unsampled, const std::vector<std::size_t>& cols,
    const std::vector<double>& inv_hess, FitScratch& fit_scratch,
    std::vector<std::int32_t>& leaf_of) {
  Tree tree;
  // A depth-d tree has at most 2^(d+1) - 1 nodes.
  tree.nodes.reserve((std::size_t{2} << config_.max_depth) - 1);
  const std::size_t stride = feature_count_;
  std::vector<std::vector<HistCell>>& hist_pool = fit_scratch.hist_pool;

  // Flat histogram layout: the active columns are the candidate columns
  // that are not constant (a constant one can never split), in candidate
  // order, and active column k owns the cells [offset[k], offset[k+1]),
  // one per bin. A cell holds the bin's gradient sum and its row count
  // (== hessian sum, squared loss); the counts are exact integers held in
  // doubles (at most 2^32 < 2^53), so accumulation and subtraction stay
  // exact and the scan reads them back as integers.
  std::vector<std::uint32_t>& active_col = fit_scratch.active_col;
  std::vector<std::size_t>& offset = fit_scratch.offset;
  active_col.clear();
  offset.assign(1, 0);
  for (const std::size_t c : cols) {
    const auto& edges = bin_edges_[c];
    if (edges.empty()) continue;
    active_col.push_back(static_cast<std::uint32_t>(c));
    offset.push_back(offset.back() + edges.size() + 1);
  }
  const std::size_t active = active_col.size();
  const std::size_t total_bins = offset[active];

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
    std::size_t count_sum;     // Hessian sum as an exact row count.
    std::vector<HistCell> hist;  // Empty until built.
  };
  std::vector<Pending> pending;
  // A depth-d tree pops at most 2^(d+1) - 1 nodes and the queue holds one
  // level plus a sibling at a time; one reservation keeps push_back from
  // ever reallocating (moving a Pending drags its histogram along).
  pending.reserve(2 * static_cast<std::size_t>(config_.max_depth) + 4);

  // Histogram buffers cycle through `hist_pool` instead of being allocated
  // per node: an acquire reuses a retired node's capacity.
  auto acquire_hist = [&](std::vector<HistCell>& hist) {
    if (!hist_pool.empty()) {
      hist = std::move(hist_pool.back());
      hist_pool.pop_back();
    }
    hist.assign(total_bins, HistCell{0.0, 0.0});
  };
  auto release_hist = [&](std::vector<HistCell>& hist) {
    if (hist.capacity() != 0) hist_pool.push_back(std::move(hist));
  };

  // Builds the histogram of every active column over one node's sampled
  // rows, row-wise, in partition order.
  auto build_hist = [&](const Pending& task, std::vector<HistCell>& hist) {
    acquire_hist(hist);
    if (weights.empty()) {
      accumulate_rows<false>(codes.data(), stride, sampled.data(),
                             task.sampled_begin, task.sampled_end, grad.data(),
                             nullptr, active_col.data(), offset.data(), active,
                             hist.data());
    } else {
      accumulate_rows<true>(codes.data(), stride, sampled.data(),
                            task.sampled_begin, task.sampled_end, grad.data(),
                            weights.data(), active_col.data(), offset.data(),
                            active, hist.data());
    }
  };

  // Stable in-place partition of idx[begin, end) on the winning split;
  // returns the boundary. Stability keeps every node's rows in ascending
  // original order, which pins the histogram accumulation order. Every row
  // is written to both the left cursor and the right staging buffer and
  // only the matching cursor advances, so the loop has no data-dependent
  // branch (the left write never passes the read position).
  fit_scratch.rows.resize(std::max(sampled.size(), unsampled.size()));
  auto partition_range = [&](std::vector<std::uint32_t>& idx,
                             std::size_t begin, std::size_t end,
                             std::size_t split_col, std::size_t split_bin) {
    std::uint32_t* rows = idx.data();
    std::uint32_t* right_rows = fit_scratch.rows.data();
    const std::uint16_t* column_codes = codes.data() + split_col;
    std::size_t right_count = 0;
    std::size_t mid = begin;
    for (std::size_t p = begin; p < end; ++p) {
      const std::uint32_t r = rows[p];
      const bool right = column_codes[r * stride] > split_bin;
      rows[mid] = r;
      right_rows[right_count] = r;
      mid += !right;
      right_count += right;
    }
    std::copy_n(right_rows, right_count, rows + mid);
    return mid;
  };

  auto finalize_leaf = [&](Pending& task) {
    for (std::size_t p = task.sampled_begin; p < task.sampled_end; ++p)
      leaf_of[sampled[p]] = task.node;
    for (std::size_t p = task.unsampled_begin; p < task.unsampled_end; ++p)
      leaf_of[unsampled[p]] = task.node;
    release_hist(task.hist);
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
  tree.nodes[0].value = leaf_value(root_grad, static_cast<double>(root_count));
  pending.push_back({0, 0, 0, sampled.size(), 0, unsampled.size(), root_grad,
                     root_count, {}});

  std::vector<SplitScan> scans(active);
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
      build_hist(task, task.hist);

    // Scan every active column's histogram for its best split, then reduce
    // in candidate order (first strictly-better wins) so ties break
    // identically to a serial left-to-right scan over (column, bin).
    // Constant candidates never qualify, so skipping them changes nothing.
    //
    // Counts are exact integers even in derived (subtracted) histograms, so
    // "child non-empty and heavy enough" folds into one integer comparison
    // against ceil(max(1, min_child_weight)); and because the right-hand
    // count only ever shrinks, the first starved right side ends the
    // column. A split qualifies when its gain is positive, i.e. score_sum >
    // parent_score (XGBoost's default gamma of 0).
    const std::size_t min_child = static_cast<std::size_t>(
        std::ceil(std::max(1.0, config_.min_child_weight)));
    for (std::size_t k = 0; k < active; ++k) {
      SplitScan scan;
      scan.score_sum = parent_score;
      const std::size_t bins = offset[k + 1] - offset[k];
      const HistCell* cell = task.hist.data() + offset[k];
      double left_grad = 0.0;
      std::size_t left_count = 0;
      for (std::size_t b = 0; b + 1 < bins; ++b) {
        left_grad += cell[b][0];
        left_count += static_cast<std::size_t>(cell[b][1]);
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
      scans[k] = scan;
    }
    double best_score_sum = parent_score;
    std::size_t best_k = 0;
    bool found = false;
    for (std::size_t k = 0; k < active; ++k) {
      if (scans[k].valid && scans[k].score_sum > best_score_sum) {
        best_score_sum = scans[k].score_sum;
        best_k = k;
        found = true;
      }
    }
    if (!found) {  // No profitable split.
      finalize_leaf(task);
      continue;
    }

    // Materialise the split.
    const double best_gain = 0.5 * (best_score_sum - parent_score);
    const std::size_t best_col = active_col[best_k];
    const std::size_t best_bin = scans[best_k].bin;
    const double left_grad = scans[best_k].left_grad;
    const std::size_t left_count = scans[best_k].left_count;
    const double right_grad = parent_grad - left_grad;
    const std::size_t right_count = parent_count - left_count;
    const std::size_t sampled_mid = partition_range(
        sampled, task.sampled_begin, task.sampled_end, best_col, best_bin);
    const std::size_t unsampled_mid =
        partition_range(unsampled, task.unsampled_begin, task.unsampled_end,
                        best_col, best_bin);
    XFL_ENSURES(sampled_mid > task.sampled_begin &&
                sampled_mid < task.sampled_end);

    const auto left_index = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.push_back({});
    const auto right_index = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.push_back({});
    tree.nodes[static_cast<std::size_t>(left_index)].value =
        leaf_value(left_grad, static_cast<double>(left_count));
    tree.nodes[static_cast<std::size_t>(right_index)].value =
        leaf_value(right_grad, static_cast<double>(right_count));
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
                 {}};
    Pending right{right_index,
                  task.depth + 1,
                  sampled_mid,
                  task.sampled_end,
                  unsampled_mid,
                  task.unsampled_end,
                  right_grad,
                  right_count,
                  {}};

    // Histogram subtraction: build the smaller child's histogram directly
    // and derive the sibling as parent - child, reusing the parent's
    // buffer. Children that the pop-time leaf check is guaranteed to finalise
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
    if (small_needs || large_needs) build_hist(small, small.hist);
    if (large_needs) {
      for (std::size_t b = 0; b < total_bins; ++b)
        task.hist[b] -= small.hist[b];
      large.hist = std::move(task.hist);
    } else {
      release_hist(task.hist);
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

  MappedVector<std::uint16_t> codes;
  {
    XFL_SPAN("gbt.fit.bin");
    const std::uint64_t bin_start_us = obs::monotonic_us();
    build_bins(x, codes);
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
  // Row indices are uint32 to halve the index traffic of the row loops.
  XFL_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint32_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0u);
  std::vector<std::size_t> all_cols(feature_count_);
  std::iota(all_cols.begin(), all_cols.end(), 0);

  // Squared loss makes every hessian sum an exact integer count in
  // [0, total_weight], so 1 / (H + lambda) can be tabulated once and
  // split scans run division-free — integer multiplicities preserve this.
  std::vector<double> inv_hess(total_weight + 1);
  for (std::size_t h = 0; h <= total_weight; ++h)
    inv_hess[h] = 1.0 / (static_cast<double>(h) + kLambda);

  std::vector<std::uint32_t> sampled, unsampled;
  std::vector<std::size_t> cols;
  FitScratch scratch;
  std::vector<std::int32_t> leaf_of(n, 0);
  for (int t = 0; t < config_.trees; ++t) {
    XFL_SPAN("gbt.fit.tree");
    const std::uint64_t tree_start_us = obs::monotonic_us();
    if (config_.subsample < 1.0) {
      // One bernoulli(subsample) draw per row, in row order. Each row is
      // written to both lists and only the matching cursor advances, so
      // the split has no data-dependent branch.
      sampled.resize(n);
      unsampled.resize(n);
      std::size_t kept = 0;
      std::size_t dropped = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool keep = rng.uniform() < config_.subsample;
        sampled[kept] = static_cast<std::uint32_t>(i);
        unsampled[dropped] = static_cast<std::uint32_t>(i);
        kept += keep;
        dropped += !keep;
      }
      sampled.resize(kept);
      unsampled.resize(dropped);
      if (sampled.size() < 2) {
        sampled = all_rows;
        unsampled.clear();
      }
    } else {
      sampled = all_rows;
      unsampled.clear();
    }

    cols.clear();
    if (config_.colsample < 1.0 && feature_count_ > 1) {
      for (std::size_t c = 0; c < feature_count_; ++c)
        if (rng.bernoulli(config_.colsample)) cols.push_back(c);
      if (cols.empty()) cols = all_cols;
    } else {
      cols = all_cols;
    }

    Tree tree = grow_tree(codes, grad, weights, sampled, unsampled, cols,
                          inv_hess, scratch, leaf_of);
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
  install_flat(compile_flat());
  metrics.fits.add(1);
  metrics.rows.add(n);
  metrics.trees.add(static_cast<std::uint64_t>(config_.trees));
  XFL_LOG(debug) << "gbt fit complete"
                 << obs::kv("rows", n) << obs::kv("cols", feature_count_)
                 << obs::kv("trees", config_.trees)
                 << obs::kv("bins", total_bins)
                 << obs::kv("elapsed_us", obs::monotonic_us() - fit_start_us);
}

FlatEnsemble GradientBoostedTrees::compile_flat() const {
  FlatEnsemble::Builder builder(base_score_, config_.learning_rate);
  for (const auto& tree : trees_) {
    builder.begin_tree();
    for (const auto& node : tree.nodes)
      builder.add_node(node.feature,
                       node.feature >= 0 ? node.threshold : node.value,
                       node.left, node.right);
  }
  return std::move(builder).build();
}

void GradientBoostedTrees::install_flat(FlatEnsemble flat) {
  flat_ = std::make_shared<const FlatEnsemble>(std::move(flat));
  fitted_ = true;
}

const FlatEnsemble& GradientBoostedTrees::flat() const {
  XFL_EXPECTS(fitted_ && flat_ != nullptr);
  return *flat_;
}

double GradientBoostedTrees::predict(std::span<const double> features) const {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(features.size() == feature_count_);
  // One-row batch: every row, alone or batched, takes the same path.
  Matrix row(1, features.size());
  std::copy(features.begin(), features.end(), row.row(0).begin());
  double out = 0.0;
  flat_->predict_batch(row, {&out, 1});
  return out;
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

void GradientBoostedTrees::explain_batch(
    const Matrix& x, std::span<double> predictions, std::span<double> bias,
    std::span<double> contributions) const {
  XFL_EXPECTS(fitted_);
  if (x.rows() == 0) return;
  XFL_EXPECTS(x.cols() == feature_count_);
  flat_->explain_batch(x, predictions, bias, contributions);
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
  predict_batch(x, out);
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
  GradientBoostedTrees model = parse(in);
  model.install_flat(model.compile_flat());
  return model;
}

GradientBoostedTrees GradientBoostedTrees::parse(TokenReader& in) {
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
  // Whether each node of the current tree is already some node's child;
  // one buffer for every tree of the model.
  std::vector<std::uint8_t> child_seen;
  for (auto& tree : model.trees_) {
    std::size_t node_count = 0;
    if (!in.read(node_count) || node_count == 0 || node_count > kMaxNodes ||
        !in.fits(node_count, kNodeTokens))
      fail("implausible node count");
    tree.nodes.resize(node_count);
    child_seen.assign(node_count, 0);
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
      child_seen[static_cast<std::size_t>(node.left)] = 1;
      child_seen[static_cast<std::size_t>(node.right)] = 1;
    }
  }
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
