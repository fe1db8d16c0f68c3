#include "ml/gbt_flat.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// The vectorized quantized walk is x86-only and gated: gcc/clang
// `target("avx2")` function attributes let one TU carry AVX2 bodies
// without -mavx2 on the whole build, and runtime dispatch (CPUID, probed
// once) keeps them off the execution path on older CPUs.
// -DXFL_DISABLE_SIMD compiles them out entirely (forced-scalar builds; the
// quantized kernel keeps its portable scalar form).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(XFL_DISABLE_SIMD)
#define XFL_X86_KERNELS 1
#include <immintrin.h>
#else
#define XFL_X86_KERNELS 0
#endif

namespace xfl::ml {

const char* kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kQuantized:
      return "quantized";
    case Kernel::kAuto:
      break;
  }
  return "auto";
}

bool cpu_supports_avx2() noexcept {
#if XFL_X86_KERNELS
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

namespace {
/// Serving observability. Instrumentation sits on the batch entry point
/// only — never inside a kernel — so a call pays one clock pair and a
/// handful of relaxed adds, which a one-row call on the few-row walk must
/// still absorb within the overhead guard's 2% budget. The mean rows per
/// call is rows / batches.
struct ServeMetrics {
  obs::Counter& rows = obs::counter("gbt.predict.rows");
  obs::Counter& batches = obs::counter("gbt.predict.batches");
  obs::Histogram& batch_us = obs::histogram("gbt.predict.batch_us");
  /// Which kernel served the last batch (Kernel enum value) — the serve
  /// stats `kernel` field and startup log read the same dispatch state.
  obs::Gauge& kernel_active = obs::gauge("gbt.kernel.active");
  /// Per-kernel row counters, so the registry shows which kernel served
  /// the traffic without parsing logs.
  obs::Counter& scalar_rows = obs::counter("gbt.predict.kernel.scalar.rows");
  obs::Counter& quantized_rows =
      obs::counter("gbt.predict.kernel.quantized.rows");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics metrics;
  return metrics;
}

/// Explain-path observability, on the batch entry point only — the
/// per-row walk stays instrumentation-free so the predict path pays
/// nothing when explanations are never requested.
struct ExplainMetrics {
  obs::Counter& rows = obs::counter("gbt.explain.rows");
  obs::Counter& batches = obs::counter("gbt.explain.batches");
  obs::Histogram& batch_us = obs::histogram("gbt.explain.batch_us");
};

ExplainMetrics& explain_metrics() {
  static ExplainMetrics metrics;
  return metrics;
}
}  // namespace

FlatEnsemble::Builder::Builder(double base_score, double scale)
    : base_score_(base_score), scale_(scale) {}

void FlatEnsemble::Builder::begin_tree() { starts_.push_back(nodes_.size()); }

void FlatEnsemble::Builder::add_node(std::int32_t feature,
                                     double threshold_or_value,
                                     std::int32_t left, std::int32_t right) {
  XFL_EXPECTS(!starts_.empty());
  nodes_.push_back({feature, threshold_or_value, left, right});
}

FlatEnsemble FlatEnsemble::Builder::build() && {
  FlatEnsemble flat;
  flat.base_score_ = base_score_;
  flat.scale_ = scale_;
  const std::size_t total = nodes_.size();
  flat.feature_.reserve(total);
  flat.value_.reserve(total);
  flat.left_.reserve(total);
  flat.roots_.reserve(starts_.size());
  flat.depth_.reserve(starts_.size());

  // Per-tree breadth-first renumbering. The k-th visited node takes slot
  // base + k, and an internal node's children are enqueued together, so
  // siblings always land in consecutive slots: right child == left + 1.
  std::vector<std::int32_t> order;     // Old in-tree index per new slot.
  std::vector<std::int32_t> depth_of;  // Depth per new slot.
  for (std::size_t t = 0; t < starts_.size(); ++t) {
    const std::span<const RawNode> tree(
        nodes_.data() + starts_[t],
        (t + 1 < starts_.size() ? starts_[t + 1] : total) - starts_[t]);
    XFL_EXPECTS(!tree.empty());
    const auto base = static_cast<std::int32_t>(flat.feature_.size());
    flat.roots_.push_back(base);
    order.assign(1, 0);
    depth_of.assign(1, 0);
    std::int32_t tree_depth = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      XFL_EXPECTS(static_cast<std::size_t>(order[k]) < tree.size());
      const RawNode& node = tree[static_cast<std::size_t>(order[k])];
      if (node.feature >= 0) {
        const auto child_slot = static_cast<std::int32_t>(order.size());
        order.push_back(node.left);
        order.push_back(node.right);
        depth_of.push_back(depth_of[k] + 1);
        depth_of.push_back(depth_of[k] + 1);
        tree_depth = std::max(tree_depth, depth_of[k] + 1);
        flat.min_cols_ = std::max(flat.min_cols_,
                                  static_cast<std::size_t>(node.feature) + 1);
        flat.feature_.push_back(node.feature);
        flat.value_.push_back(node.threshold_or_value);
        flat.left_.push_back(base + child_slot);
      } else {
        flat.feature_.push_back(-1);
        flat.value_.push_back(node.threshold_or_value);
        // Leaves self-link; the kernel never follows this, but a valid
        // index keeps every array entry in range.
        flat.left_.push_back(base + static_cast<std::int32_t>(k));
      }
      // A tree visits each node at most once; more slots than source nodes
      // means a child is shared between parents (a DAG, which the loader
      // rejects and the trainer never builds).
      XFL_EXPECTS(order.size() <= tree.size());
    }
    flat.depth_.push_back(tree_depth);
    flat.max_depth_ = std::max(flat.max_depth_, static_cast<int>(tree_depth));
  }

  // Saabas attribution table. The BFS renumbering places every child slot
  // after its parent within a tree, so one reverse pass per tree computes
  // the leaf-count-weighted subtree means bottom-up; a forward pass then
  // stores each child's scaled expectation shift. The node-walk reference
  // (GradientBoostedTrees::explain_nodewalk) evaluates the identical
  // expressions — (wl * el + wr * er) / (wl + wr), scale * (child -
  // parent) — so the two attribution paths agree bitwise.
  // set_attribution(false) skips the table entirely (predict never reads
  // it); explain_batch asserts its presence.
  const std::size_t total_nodes = flat.feature_.size();
  if (!attribution_) {
    flat.build_quantized();
    return flat;
  }
  flat.attr_.assign(total_nodes, 0.0);
  std::vector<double> expect(total_nodes);
  std::vector<double> weight(total_nodes);
  for (std::size_t t = 0; t < flat.roots_.size(); ++t) {
    const auto base = static_cast<std::size_t>(flat.roots_[t]);
    const std::size_t tree_end =
        t + 1 < flat.roots_.size()
            ? static_cast<std::size_t>(flat.roots_[t + 1])
            : total_nodes;
    for (std::size_t i = tree_end; i-- > base;) {
      if (flat.feature_[i] < 0) {
        expect[i] = flat.value_[i];
        weight[i] = 1.0;
      } else {
        const auto l = static_cast<std::size_t>(flat.left_[i]);
        const double wl = weight[l];
        const double wr = weight[l + 1];
        weight[i] = wl + wr;
        expect[i] = (wl * expect[l] + wr * expect[l + 1]) / weight[i];
      }
    }
    for (std::size_t i = base; i < tree_end; ++i) {
      if (flat.feature_[i] < 0) continue;
      const auto l = static_cast<std::size_t>(flat.left_[i]);
      flat.attr_[l] = scale_ * (expect[l] - expect[i]);
      flat.attr_[l + 1] = scale_ * (expect[l + 1] - expect[i]);
    }
  }

  flat.build_quantized();
  return flat;
}

double finalize_attribution(double prediction, double* contributions,
                            std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += contributions[i];
  double bias = prediction - sum;
  // fl(prediction - sum) is within a few ulps of the bias that makes the
  // canonical reconstruction land exactly; step it there. The bound is
  // generous — in practice 0 or 1 steps.
  for (int step = 0; step < 64; ++step) {
    const double rebuilt = sum + bias;
    if (rebuilt == prediction) return bias;
    bias = std::nextafter(bias, rebuilt < prediction
                                    ? std::numeric_limits<double>::infinity()
                                    : -std::numeric_limits<double>::infinity());
  }
  // Catastrophic cancellation (|sum| >> |prediction|) can make the
  // prediction unreachable on the {fl(sum + b)} grid: ulp(bias) exceeds
  // ulp(prediction), so stepping jumps over it. Fold everything into the
  // bias — summing n zeros then adding the prediction reconstructs it
  // exactly, keeping the contract unconditional.
  for (std::size_t i = 0; i < n; ++i) contributions[i] = 0.0;
  return prediction;
}

namespace {
/// Quantized-form limits: feature ids and per-feature distinct-threshold
/// counts stay in a sane range, and the complete-tree padding must not
/// explode on degenerate deep trees.
constexpr std::int32_t kMaxQuantFeature = 32766;
constexpr std::int32_t kMaxTableEntries = 32766;
constexpr std::int32_t kMaxQuantTreeDepth = 19;
constexpr std::int64_t kMaxQuantPaddedSlots = std::int64_t{1} << 20;
/// Deepest tree the gather-free AVX2 quantized walk handles (its node
/// masks for one tree must fit a 16-entry shuffle table: 2^d - 1 <= 15).
constexpr std::int32_t kMaxVectorQuantDepth = 4;
/// Word-walk limits: a tree's 15 slots fit one 16-byte word, the code
/// table is two 16-byte shuffle tables, and a code (0..ranks) fits a byte
/// below the pad rank 255.
constexpr std::int32_t kMaxWordDepth = 4;
constexpr std::size_t kMaxWordFeatures = 32;
constexpr std::int32_t kMaxWordRanks = 255;

/// Cell of value v in a feature's rank-search acceleration grid. Only
/// monotonicity in v matters for correctness (clamping keeps it so under
/// any lo/scale, including the 0 * inf = NaN corner), because cells are
/// assigned to thresholds with this same mapping at build time.
inline std::int32_t quant_grid_cell(double v, double lo, double scale,
                                    std::int32_t cells) noexcept {
  const double u = (v - lo) * scale;
  if (!(u > 0.0)) return 0;
  if (u >= static_cast<double>(cells)) return cells - 1;
  return static_cast<std::int32_t>(u);
}
}  // namespace

void FlatEnsemble::build_quantized() {
  quantized_ok_ = false;
  quant_reject_.clear();
  const auto reject = [&](std::string reason) {
    quant_reject_ = std::move(reason);
    qmask_idx_.clear();
    qleaf_.clear();
    qsplit_off_.clear();
    qleaf_off_.clear();
    qtable_.clear();
    qtable_off_.clear();
    qmask_off_.clear();
    qgrid_off_.clear();
    qgrid_lo_.clear();
    qgrid_scale_.clear();
    qgridrank_.clear();
    qword_.clear();
    obs::counter("gbt.flat.quantize_fallback").add(1);
    XFL_LOG(warn) << "quantized kernel unavailable for this ensemble; "
                     "dispatch falls back to the exact kernel"
                  << obs::kv("reason", quant_reject_)
                  << obs::kv("trees", roots_.size())
                  << obs::kv("nodes", feature_.size());
  };

  for (std::size_t i = 0; i < feature_.size(); ++i)
    if (feature_[i] >= 0 && std::isnan(value_[i]))
      return reject("nan split threshold");
  if (min_cols_ > static_cast<std::size_t>(kMaxQuantFeature) + 1)
    return reject("feature id exceeds int16 code range");
  const auto features = static_cast<std::int32_t>(min_cols_);

  // Split nodes grouped by feature (a counting sort), each group sorted by
  // threshold. One pass over a group then writes its distinct thresholds
  // (ranks are table positions) and gives every split node its rank.
  std::vector<std::int32_t> group(min_cols_ + 1, 0);
  for (const std::int32_t f : feature_)
    if (f >= 0) ++group[static_cast<std::size_t>(f) + 1];
  for (std::size_t f = 0; f < min_cols_; ++f) group[f + 1] += group[f];
  std::vector<std::pair<double, std::int32_t>> splits(
      static_cast<std::size_t>(group.back()));
  {
    std::vector<std::int32_t> next(group.begin(), group.end() - 1);
    for (std::size_t i = 0; i < feature_.size(); ++i)
      if (feature_[i] >= 0)
        splits[static_cast<std::size_t>(
            next[static_cast<std::size_t>(feature_[i])]++)] = {
            value_[i], static_cast<std::int32_t>(i)};
  }
  std::vector<std::int32_t> node_rank(feature_.size(), 0);

  // Threshold tables (padded to a power-of-two size with at least one
  // +inf terminator, so the rank scan needs no bounds check) and
  // per-feature predicate-mask regions: one mask rank per distinct
  // threshold.
  qtable_off_.assign(1, 0);
  qmask_off_.assign(1, 0);
  std::int32_t widest_table = 0;
  for (std::int32_t f = 0; f < features; ++f) {
    const auto first = splits.begin() + group[static_cast<std::size_t>(f)];
    const auto last = splits.begin() + group[static_cast<std::size_t>(f) + 1];
    std::sort(first, last,
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::size_t table = qtable_.size();
    for (auto it = first; it != last; ++it) {
      if (qtable_.size() == table || qtable_.back() != it->first)
        qtable_.push_back(it->first);
      node_rank[static_cast<std::size_t>(it->second)] =
          static_cast<std::int32_t>(qtable_.size() - table) - 1;
    }
    const std::size_t ranks = qtable_.size() - table;
    if (ranks > static_cast<std::size_t>(kMaxTableEntries))
      return reject("threshold table exceeds int16 rank space");
    widest_table = std::max(widest_table, static_cast<std::int32_t>(ranks));
    qmask_off_.push_back(qmask_off_.back() +
                         static_cast<std::int32_t>(ranks));
    qtable_.insert(qtable_.end(), std::bit_ceil(ranks + 1) - ranks,
                   std::numeric_limits<double>::infinity());
    qtable_off_.push_back(static_cast<std::int32_t>(qtable_.size()));
  }
  const std::int32_t pad_mask = qmask_off_.back();

  // Padded complete-tree size check before allocating the trees.
  std::int64_t padded = 0, padded_leaves = 0;
  for (const std::int32_t d : depth_) {
    if (d > kMaxQuantTreeDepth) return reject("tree too deep to pad");
    padded += (std::int64_t{1} << (d + 1)) - 1;
    padded_leaves += std::int64_t{1} << d;
  }
  if (padded > kMaxQuantPaddedSlots)
    return reject("padded form exceeds size cap");

  // Rank-search acceleration grid: ~2 uniform cells per threshold (capped
  // for huge tables), each storing the rank of its first threshold. The
  // block binarizer starts its linear scan there, so a lookup costs one
  // multiply plus a step or two instead of a full binary search. Cells
  // are assigned by pushing the thresholds through quant_grid_cell — the
  // identical mapping the lookup uses — so monotonicity alone guarantees
  // the start rank never overshoots, whatever floating-point rounding
  // does.
  qgrid_off_.assign(1, 0);
  for (std::int32_t f = 0; f < features; ++f) {
    const auto fi = static_cast<std::size_t>(f);
    const double* table = qtable_.data() + qtable_off_[fi];
    const auto ranks =
        static_cast<std::size_t>(qmask_off_[fi + 1] - qmask_off_[fi]);
    if (ranks == 0) {
      qgrid_lo_.push_back(0.0);
      qgrid_scale_.push_back(0.0);
      qgrid_off_.push_back(qgrid_off_.back());
      continue;
    }
    const auto cells = static_cast<std::int32_t>(
        std::min<std::size_t>(2048, std::bit_ceil(4 * ranks)));
    const double lo = table[0];
    const double hi = table[ranks - 1];
    const double scale =
        hi > lo ? static_cast<double>(cells) / (hi - lo) : 0.0;
    qgrid_lo_.push_back(lo);
    qgrid_scale_.push_back(scale);
    std::size_t rank = 0;
    for (std::int32_t c = 0; c < cells; ++c) {
      while (rank < ranks && quant_grid_cell(table[rank], lo, scale, cells) < c)
        ++rank;
      qgridrank_.push_back(static_cast<std::int16_t>(rank));
    }
    qgrid_off_.push_back(static_cast<std::int32_t>(qgridrank_.size()));
  }

  // Predicate-word slots, when the ensemble fits the word walk and the
  // CPU can run it; every slot starts as padding (feature 0, rank 255).
  const bool word = cpu_supports_avx2() && max_depth_ <= kMaxWordDepth &&
                    min_cols_ <= kMaxWordFeatures &&
                    widest_table <= kMaxWordRanks;
  if (word) {
    qword_.assign(64 * ((roots_.size() + 1) / 2), 0);
    for (std::size_t p = 0; p < qword_.size(); p += 64)
      std::memset(qword_.data() + p + 32, 255, 32);
  }

  qsplit_off_.reserve(roots_.size());
  qleaf_off_.reserve(roots_.size());
  qmask_idx_.reserve(static_cast<std::size_t>(padded - padded_leaves));
  qleaf_.reserve(static_cast<std::size_t>(padded_leaves));
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const std::int32_t d = depth_[t];
    const std::int32_t internal = (1 << d) - 1;
    const std::int32_t soff = static_cast<std::int32_t>(qmask_idx_.size());
    const std::int32_t loff = static_cast<std::int32_t>(qleaf_.size());
    qsplit_off_.push_back(soff);
    qleaf_off_.push_back(loff);
    qmask_idx_.resize(qmask_idx_.size() + static_cast<std::size_t>(internal),
                      pad_mask);
    qleaf_.resize(qleaf_.size() + (std::size_t{1} << d), 0.0);
    std::uint8_t* slot_feature =
        word ? qword_.data() + 64 * (t / 2) + 16 * (t % 2) : nullptr;

    // Copy the tree into its padded slots. A leaf shallower than d turns
    // into a virtual split whose two children are the same leaf, so
    // routing through the padding cannot change the reached value; nodes
    // at depth d are always leaves (d is the deepest split path).
    const auto fill = [&](auto&& self, std::int32_t orig,
                          std::int32_t slot) -> void {
      if (slot >= internal) {
        XFL_EXPECTS(feature_[static_cast<std::size_t>(orig)] < 0);
        qleaf_[static_cast<std::size_t>(loff + slot - internal)] =
            value_[static_cast<std::size_t>(orig)];
        return;
      }
      const std::int32_t f = feature_[static_cast<std::size_t>(orig)];
      if (f >= 0) {
        const std::int32_t rank = node_rank[static_cast<std::size_t>(orig)];
        qmask_idx_[static_cast<std::size_t>(soff + slot)] =
            qmask_off_[static_cast<std::size_t>(f)] + rank;
        if (word) {
          slot_feature[slot] = static_cast<std::uint8_t>(f);
          slot_feature[32 + slot] = static_cast<std::uint8_t>(rank);
        }
        self(self, left_[static_cast<std::size_t>(orig)], 2 * slot + 1);
        self(self, left_[static_cast<std::size_t>(orig)] + 1, 2 * slot + 2);
      } else {
        // Virtual padding split: both children are the same leaf, so the
        // predicate is irrelevant — point it at the zeroed pad mask (its
        // word slot keeps the pad rank).
        self(self, orig, 2 * slot + 1);
        self(self, orig, 2 * slot + 2);
      }
    };
    fill(fill, roots_[t], 0);
  }
  quantized_ok_ = true;
}

Kernel FlatEnsemble::effective_kernel(Kernel requested) const {
  // Auto runs the quantized walk only in its AVX2 form (the portable
  // scalar-quantized walk stays reachable by explicit request); an
  // ensemble without the quantized form always runs the scalar oracle.
  if (requested == Kernel::kAuto)
    requested = cpu_supports_avx2() ? Kernel::kQuantized : Kernel::kScalar;
  return requested == Kernel::kQuantized && quantized_ok_ ? Kernel::kQuantized
                                                          : Kernel::kScalar;
}

namespace {
/// Rows walked in lockstep per tree. Small enough that the per-block state
/// (row pointers, node cursors, accumulators) stays in registers / L1;
/// large enough that the dependent-load chains of the walks overlap.
constexpr std::size_t kRowBlock = 16;
/// Blocks of fewer rows than kWordRows take the predicate-word walk, and
/// where an ensemble has no word slots, blocks of fewer than kFewRows take
/// the few-row walk, instead of a 16-lane block. A block pays for its
/// mask build and shuffle-table fill whatever its row count; the walks
/// pay per row. Forced either way over BM_GbtPredictRows' 32 rotating
/// ensembles on a 4-core AVX-512 Xeon (medians of 8 interleaved rounds),
/// the word walk won at 12 rows (7.5 vs 8.6 us per call) and lost at 16
/// (9.9 vs 8.3 us); the few-row walk won at 4 rows (8.8 vs 10.7 us) and
/// lost at 5 (11.8 vs 10.8 us). DESIGN.md §7.1.
constexpr std::size_t kFewRows = 5;
constexpr std::size_t kWordRows = 13;
}  // namespace

void FlatEnsemble::predict_rows_scalar(const Matrix& x, std::size_t begin,
                                       std::size_t end, double* out) const {
  const std::int32_t* feat = feature_.data();
  const double* val = value_.data();
  const std::int32_t* left = left_.data();
  const std::size_t tree_count = roots_.size();
  const double* rows[kRowBlock];
  double acc[kRowBlock];
  std::int32_t idx[kRowBlock];
  for (std::size_t block = begin; block < end; block += kRowBlock) {
    const std::size_t count = std::min(kRowBlock, end - block);
    for (std::size_t r = 0; r < count; ++r) {
      rows[r] = x.row(block + r).data();
      acc[r] = base_score_;
    }
    for (std::size_t t = 0; t < tree_count; ++t) {
      const std::int32_t root = roots_[t];
      const std::int32_t steps = depth_[t];
      for (std::size_t r = 0; r < count; ++r) idx[r] = root;
      // Every row takes exactly depth(t) lockstep steps; rows that reach a
      // leaf early hold their position. The iterations of the inner loop
      // are independent, so the walks of the whole block overlap instead
      // of serialising on one row's dependent loads.
      for (std::int32_t s = 0; s < steps; ++s) {
        for (std::size_t r = 0; r < count; ++r) {
          const std::int32_t i = idx[r];
          const std::int32_t f = feat[i];
          idx[r] = f >= 0
                       ? left[i] + static_cast<std::int32_t>(
                                       !(rows[r][static_cast<std::size_t>(f)] <=
                                         val[i]))
                       : i;
        }
      }
      // Per-row accumulation stays in tree order — the same operation
      // sequence as the node walk, hence bit-identical.
      for (std::size_t r = 0; r < count; ++r) acc[r] += scale_ * val[idx[r]];
    }
    for (std::size_t r = 0; r < count; ++r) out[block + r] = acc[r];
  }
}

namespace {
/// Suffix-OR mf[k] |= mf[k + 1] over mf[0 .. ranks - 1], high to low.
/// SSE2 is x86-64 baseline, so the vector form needs no dispatch: eight
/// lanes per step — an in-vector suffix by element shifts, then an OR of
/// the carry from the already-processed higher blocks.
inline void suffix_or_u16(std::uint16_t* mf, std::int32_t ranks) {
#if XFL_X86_KERNELS
  const std::int32_t nb8 = ranks & ~std::int32_t{7};
  for (std::int32_t k = ranks - 2; k >= nb8; --k) mf[k] |= mf[k + 1];
  __m128i carry = _mm_set1_epi16(
      nb8 < ranks ? static_cast<short>(mf[nb8]) : short{0});
  for (std::int32_t b = nb8 - 8; b >= 0; b -= 8) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(mf + b));
    v = _mm_or_si128(v, _mm_srli_si128(v, 2));
    v = _mm_or_si128(v, _mm_srli_si128(v, 4));
    v = _mm_or_si128(v, _mm_srli_si128(v, 8));
    v = _mm_or_si128(v, carry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(mf + b), v);
    // Lane 0 now holds the OR of everything from this block up.
    carry = _mm_shuffle_epi32(_mm_shufflelo_epi16(v, 0), 0);
  }
#else
  for (std::int32_t k = ranks - 2; k >= 0; --k) mf[k] |= mf[k + 1];
#endif
}
}  // namespace

struct FlatEnsemble::RankScan {
  const double* table;
  const std::int16_t* grid;
  double lo;
  double scale;
  std::int32_t cells;
  std::int32_t ranks;  ///< Distinct thresholds; 0 = feature never split.

  /// code = #thresholds < v in [0, ranks]; a NaN ranks above every
  /// threshold, so it routes right of every split. The grid cell's start
  /// rank can only undershoot (build time assigned cells with the same
  /// mapping), and the +inf table terminator stops the scan without a
  /// bounds check. The grid is ~4 cells per threshold, so one branchless
  /// step almost always lands and the residual loop stays predictably
  /// untaken.
  std::size_t code(double v) const noexcept {
    if (std::isnan(v)) return static_cast<std::size_t>(ranks);
    auto c =
        static_cast<std::size_t>(grid[quant_grid_cell(v, lo, scale, cells)]);
    c += static_cast<std::size_t>(table[c] < v);
    while (table[c] < v) ++c;
    return c;
  }
};

FlatEnsemble::RankScan FlatEnsemble::rank_scan(std::int32_t f) const {
  const auto fi = static_cast<std::size_t>(f);
  const std::int32_t goff = qgrid_off_[fi];
  return {qtable_.data() + qtable_off_[fi],
          qgridrank_.data() + goff,
          qgrid_lo_[fi],
          qgrid_scale_[fi],
          qgrid_off_[fi + 1] - goff,
          qmask_off_[fi + 1] - qmask_off_[fi]};
}

void FlatEnsemble::build_block_masks(const Matrix& x, std::size_t block,
                                     std::size_t count,
                                     std::uint16_t* masks) const {
  const double* rows[kRowBlock];
  for (std::size_t r = 0; r < count; ++r) rows[r] = x.row(block + r).data();
  for (std::int32_t f = 0; f < static_cast<std::int32_t>(min_cols_); ++f) {
    const RankScan scan = rank_scan(f);
    if (scan.ranks == 0) continue;  // Feature never split: no masks.
    std::uint16_t* mf = masks + qmask_off_[static_cast<std::size_t>(f)];
    for (std::int32_t k = 0; k < scan.ranks; ++k) mf[k] = 0;
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t code = scan.code(rows[r][static_cast<std::size_t>(f)]);
      // A row with code c routes right at ranks 0..c-1: bucket its bit at
      // rank c-1, then suffix-OR below spreads it down.
      if (code > 0) mf[code - 1] |= static_cast<std::uint16_t>(1u << r);
    }
    suffix_or_u16(mf, scan.ranks);
  }
  masks[mask_count()] = 0;  // Virtual padding splits read this entry.
}

void FlatEnsemble::build_row_preds(const Matrix& x, std::size_t first,
                                   std::size_t count,
                                   std::uint8_t* pred) const {
  const std::size_t stride = mask_count() + 1;
  for (std::size_t r = 0; r < count; ++r) {
    const double* row = x.row(first + r).data();
    std::uint8_t* pr = pred + r * stride;
    for (std::int32_t f = 0; f < static_cast<std::int32_t>(min_cols_); ++f) {
      const RankScan scan = rank_scan(f);
      if (scan.ranks == 0) continue;
      // A row with code c routes right at ranks 0..c-1.
      const std::size_t code = scan.code(row[static_cast<std::size_t>(f)]);
      std::uint8_t* pf = pr + qmask_off_[static_cast<std::size_t>(f)];
      std::memset(pf, 1, code);
      std::memset(pf + code, 0, static_cast<std::size_t>(scan.ranks) - code);
    }
    pr[stride - 1] = 0;  // Virtual padding splits read this entry.
  }
}

void FlatEnsemble::build_row_codes(const Matrix& x, std::size_t first,
                                   std::size_t count,
                                   std::uint8_t* codes) const {
  for (std::size_t r = 0; r < count; ++r) {
    const double* row = x.row(first + r).data();
    std::uint8_t* code = codes + r * kMaxWordFeatures;
    std::memset(code, 0, kMaxWordFeatures);
    for (std::int32_t f = 0; f < static_cast<std::int32_t>(min_cols_); ++f) {
      const RankScan scan = rank_scan(f);
      if (scan.ranks == 0) continue;
      code[f] = static_cast<std::uint8_t>(
          scan.code(row[static_cast<std::size_t>(f)]));
    }
  }
}

namespace {

/// Raw view of the quantized arrays for the kernel bodies (free
/// functions: the target("avx2") attribute stays off the class interface).
struct QuantView {
  const std::int32_t* qmask_idx;
  const double* qleaf;
  const std::int32_t* qsplit_off;
  const std::int32_t* qleaf_off;
  const std::int32_t* depth;
  std::size_t tree_count;
  double scale;
};

/// Portable walk of one padded tree for one block — the whole quantized
/// kernel on non-SIMD builds, and the deep-tree fallback inside the AVX2
/// form. `masks` is this block's predicate-mask table: bit r of
/// masks[qmask_idx[s]] says row r routes right at slot s.
inline void quant_tree_scalar(const QuantView& m, std::size_t t,
                              const std::uint16_t* masks, std::size_t count,
                              double* acc) {
  const std::int32_t d = m.depth[t];
  const double* ql = m.qleaf + m.qleaf_off[t];
  if (d == 0) {  // Lone-leaf tree: every row lands on the same value.
    for (std::size_t r = 0; r < count; ++r) acc[r] += m.scale * ql[0];
    return;
  }
  const std::int32_t* qi = m.qmask_idx + m.qsplit_off[t];
  const std::int32_t internal = (1 << d) - 1;
  std::int32_t slot[kRowBlock];
  for (std::size_t r = 0; r < count; ++r) slot[r] = 0;
  for (std::int32_t level = 0; level < d; ++level) {
    for (std::size_t r = 0; r < count; ++r) {
      const std::int32_t s = slot[r];
      slot[r] = 2 * s + 1 +
                static_cast<std::int32_t>((masks[qi[s]] >> r) & 1u);
    }
  }
  for (std::size_t r = 0; r < count; ++r)
    acc[r] += m.scale * ql[slot[r] - internal];
}

/// Few-row walk: N rows (N <= 2) through every padded tree in lockstep,
/// their slots in registers (a third interleaved row measured slower than
/// a pair plus a single). Row r's predicates are the bytes
/// pred[r * stride ..] (build_row_preds): 1 where it routes right. A
/// lone-leaf tree takes zero steps and lands on its one leaf; deep trees
/// just take more steps.
template <std::size_t N>
void quant_walk_few(const QuantView& m, const std::uint8_t* pred,
                    std::size_t stride, double* acc) {
  const std::uint8_t* row_pred[N];
  for (std::size_t r = 0; r < N; ++r) row_pred[r] = pred + r * stride;
  for (std::size_t t = 0; t < m.tree_count; ++t) {
    const std::int32_t d = m.depth[t];
    const std::int32_t* qi = m.qmask_idx + m.qsplit_off[t];
    std::int32_t slot[N] = {};
    for (std::int32_t level = 0; level < d; ++level)
      for (std::size_t r = 0; r < N; ++r)
        slot[r] = 2 * slot[r] + 1 + row_pred[r][qi[slot[r]]];
    // Leaves follow the 2^d - 1 internal slots of the padded tree.
    const std::int32_t leaf0 = m.qleaf_off[t] - ((1 << d) - 1);
    for (std::size_t r = 0; r < N; ++r)
      acc[r] += m.scale * m.qleaf[leaf0 + slot[r]];
  }
}

}  // namespace

#if XFL_X86_KERNELS

namespace {

/// Pass 1 of the AVX2 quantized block: resolve every vector-walkable
/// tree's node masks out of the block's predicate-mask table into that
/// tree's 16-entry shuffle table (plain scalar L1 loads, contiguous
/// stores). Separated from the walk so the stores drain before the walk
/// loads them back as vectors — fusing the two stalls every tree on
/// store-to-load forwarding.
inline void quant_fill_bits(const QuantView& m, const std::uint16_t* masks,
                            std::uint16_t* qbits) {
  for (std::size_t t = 0; t < m.tree_count; ++t) {
    const std::int32_t d = m.depth[t];
    if (d == 0 || d > kMaxVectorQuantDepth) continue;
    const std::int32_t* qi = m.qmask_idx + m.qsplit_off[t];
    std::uint16_t* bt = qbits + t * kRowBlock;
    const std::int32_t internal = (1 << d) - 1;
    // Paired 32-bit stores (x86 is little-endian and this TU is x86-only):
    // a complete tree has an odd internal count, so one tail entry remains.
    std::int32_t n = 0;
    for (; n + 1 < internal; n += 2) {
      const std::uint32_t pair =
          static_cast<std::uint32_t>(masks[qi[n]]) |
          (static_cast<std::uint32_t>(masks[qi[n + 1]]) << 16);
      std::memcpy(bt + n, &pair, sizeof(pair));
    }
    if (n < internal) bt[n] = masks[qi[n]];
  }
}

/// Pass 2: one 16-row block through every tree, quantized integer form.
/// Zero memory gathers (hardware gathers are microcode-crippled on many
/// production x86 hosts): each tree loads its prefilled shuffle table
/// and walks all 16 rows as int16 lanes — the per-level mask lookup is
/// an in-register byte shuffle, and the branch-free step is child =
/// 2i + 1 + predicate.
__attribute__((target("avx2"))) void quant_block_avx2(
    const QuantView& m, const std::uint16_t* masks,
    const std::uint16_t* qbits, std::size_t count, double* acc) {
  const __m256i one = _mm256_set1_epi16(1);
  const __m256i seven = _mm256_set1_epi16(7);
  // Shuffle control mapping slot s to the byte pair (2s, 2s + 1) of the
  // mask table: (s << 1 | s << 9) + 0x0100 (no byte carries: 2s + 1 < 64).
  const __m256i ctl_add = _mm256_set1_epi16(0x0100);
  // Lane r selects bit r of its slot's row mask.
  const __m256i row_bit = _mm256_setr_epi16(
      1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
      static_cast<std::int16_t>(-32768));
  const __m256d scale = _mm256_set1_pd(m.scale);
  alignas(32) std::int16_t rel[kRowBlock];
  // All 16 lane accumulators stay in registers across the tree loop (the
  // caller seeds every lane; dead tail lanes are walked but never stored).
  // Accumulation is mul-then-add per lane — the identical operation
  // sequence as the scalar kernel (FMA is not enabled in this target, so
  // nothing contracts), hence bit-identical outputs.
  __m256d a0 = _mm256_loadu_pd(acc);
  __m256d a1 = _mm256_loadu_pd(acc + 4);
  __m256d a2 = _mm256_loadu_pd(acc + 8);
  __m256d a3 = _mm256_loadu_pd(acc + 12);
  for (std::size_t t = 0; t < m.tree_count; ++t) {
    const std::int32_t d = m.depth[t];
    const double* ql = m.qleaf + m.qleaf_off[t];
    if (d == 0) {  // Lone-leaf tree: every row lands on the same value.
      const __m256d v = _mm256_set1_pd(ql[0]);
      const __m256d p = _mm256_mul_pd(scale, v);
      a0 = _mm256_add_pd(a0, p);
      a1 = _mm256_add_pd(a1, p);
      a2 = _mm256_add_pd(a2, p);
      a3 = _mm256_add_pd(a3, p);
      continue;
    }
    if (d > kMaxVectorQuantDepth) {  // Shuffle table would overflow.
      // The scalar fallback works on the in-memory accumulators: spill
      // around the call (deep trees are the rare case).
      _mm256_storeu_pd(acc, a0);
      _mm256_storeu_pd(acc + 4, a1);
      _mm256_storeu_pd(acc + 8, a2);
      _mm256_storeu_pd(acc + 12, a3);
      quant_tree_scalar(m, t, masks, count, acc);
      a0 = _mm256_loadu_pd(acc);
      a1 = _mm256_loadu_pd(acc + 4);
      a2 = _mm256_loadu_pd(acc + 8);
      a3 = _mm256_loadu_pd(acc + 12);
      continue;
    }
    const std::int32_t internal = (1 << d) - 1;
    // 16 int16 lanes walk the complete tree. Levels 0 and 1 have one and
    // two candidate masks, so a broadcast (and a blend on the level-0
    // choice) replaces the table shuffle outright.
    const std::uint16_t* bt = qbits + t * kRowBlock;
    __m256i word = _mm256_set1_epi16(static_cast<std::int16_t>(bt[0]));
    __m256i hit = _mm256_and_si256(word, row_bit);
    // go is -1 when row r routes right: 2s + 1 - (-1) = 2s + 2.
    __m256i go = _mm256_cmpeq_epi16(hit, row_bit);
    __m256i slot = _mm256_sub_epi16(one, go);
    if (d >= 2) {
      word = _mm256_blendv_epi8(
          _mm256_set1_epi16(static_cast<std::int16_t>(bt[1])),
          _mm256_set1_epi16(static_cast<std::int16_t>(bt[2])), go);
      hit = _mm256_and_si256(word, row_bit);
      go = _mm256_cmpeq_epi16(hit, row_bit);
      slot = _mm256_sub_epi16(
          _mm256_add_epi16(_mm256_add_epi16(slot, slot), one), go);
    }
    // Deeper levels: the mask table is two broadcast 128-bit halves;
    // pshufb indexes bytes mod 16, so one control vector serves both
    // halves and a lane blend on slot > 7 picks the right one. (Entries
    // >= internal are never indexed, so their contents don't matter.)
    if (d >= 3) {
      const __m256i table_lo = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bt)));
      const __m256i table_hi = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bt + 8)));
      for (std::int32_t level = 2; level < d; ++level) {
        const __m256i ctl = _mm256_add_epi16(
            _mm256_or_si256(_mm256_slli_epi16(slot, 1),
                            _mm256_slli_epi16(slot, 9)),
            ctl_add);
        const __m256i word_lo = _mm256_shuffle_epi8(table_lo, ctl);
        const __m256i word_hi = _mm256_shuffle_epi8(table_hi, ctl);
        word = _mm256_blendv_epi8(word_lo, word_hi,
                                  _mm256_cmpgt_epi16(slot, seven));
        hit = _mm256_and_si256(word, row_bit);
        go = _mm256_cmpeq_epi16(hit, row_bit);
        slot = _mm256_sub_epi16(
            _mm256_add_epi16(_mm256_add_epi16(slot, slot), one), go);
      }
    }
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(rel),
        _mm256_sub_epi16(slot, _mm256_set1_epi16(
                                   static_cast<std::int16_t>(internal))));
    // Leaf fetch stays scalar (indexed loads — no hardware gathers) and
    // the vectors assemble in registers (no store/wide-reload round trip);
    // the accumulate is vector mul-then-add in tree order.
    const __m256d l0 =
        _mm256_setr_pd(ql[rel[0]], ql[rel[1]], ql[rel[2]], ql[rel[3]]);
    const __m256d l1 =
        _mm256_setr_pd(ql[rel[4]], ql[rel[5]], ql[rel[6]], ql[rel[7]]);
    const __m256d l2 =
        _mm256_setr_pd(ql[rel[8]], ql[rel[9]], ql[rel[10]], ql[rel[11]]);
    const __m256d l3 =
        _mm256_setr_pd(ql[rel[12]], ql[rel[13]], ql[rel[14]], ql[rel[15]]);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(scale, l0));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(scale, l1));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(scale, l2));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(scale, l3));
  }
  _mm256_storeu_pd(acc, a0);
  _mm256_storeu_pd(acc + 4, a1);
  _mm256_storeu_pd(acc + 8, a2);
  _mm256_storeu_pd(acc + 12, a3);
}

/// Predicate-word walk: N rows (N <= 2) through every tree. `codes` holds
/// each row's 32-byte code table (build_row_codes) and `qword` the
/// ensemble's slot bytes (FlatEnsemble::qword_). Per tree pair, one byte
/// shuffle of each code half by the slot feature ids (a blend on id >= 16
/// picks the half), one unsigned compare against the slot ranks and one
/// movemask give each row a 32-bit word: bit s of half j says the row
/// routes right at slot s of tree 2p + j. Each tree then walks 4 levels,
/// s = 2s + 1 + ((w >> s) & 1), eight trees at a time in 32-bit lanes; a
/// tree of depth d < 4 meets only pad slots below level d, which route
/// left, so its depth-d leaf index is (s - 15) >> (4 - d). Leaves are
/// added scalar, mul-then-add in tree order (no FMA in this target), so
/// the result is bit-identical to every other kernel.
template <std::size_t N>
__attribute__((target("avx2"))) void quant_word_walk(
    const QuantView& m, const std::uint8_t* qword, const std::uint8_t* codes,
    double* acc) {
  __m256i code_lo[N], code_hi[N];
  double sum[N];
  for (std::size_t r = 0; r < N; ++r) {
    const std::uint8_t* code = codes + r * kMaxWordFeatures;
    code_lo[r] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(code)));
    code_hi[r] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(code + 16)));
    sum[r] = acc[r];
  }
  const double scale = m.scale;
  // word[r] = row r's predicate bits for the tree pair at `slots`.
  const auto pair_words = [&](const std::uint8_t* slots,
                              std::uint32_t* word)
      __attribute__((target("avx2"), always_inline)) {
    const __m256i feature =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots));
    const __m256i rank =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots + 32));
    // Feature ids are below 32: bit 4 shifted to bit 7 selects the high
    // half, and pshufb reads only bits 0-3 of an index below 128.
    const __m256i high = _mm256_slli_epi16(feature, 3);
    for (std::size_t r = 0; r < N; ++r) {
      const __m256i code =
          _mm256_blendv_epi8(_mm256_shuffle_epi8(code_lo[r], feature),
                             _mm256_shuffle_epi8(code_hi[r], feature), high);
      // code <= rank (unsigned) <=> max(code, rank) == rank: routes left.
      const __m256i left =
          _mm256_cmpeq_epi8(_mm256_max_epu8(code, rank), rank);
      word[r] = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(left));
    }
  };

  const __m256i one = _mm256_set1_epi32(1);
  const __m256i four = _mm256_set1_epi32(4);
  const __m256i fifteen = _mm256_set1_epi32(15);
  // Lane k takes pair word k / 2, shifted so tree k's half sits at bit 0
  // (the walk reads bits 0-14 only).
  const __m256i spread = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  const __m256i halves = _mm256_setr_epi32(0, 16, 0, 16, 0, 16, 0, 16);
  alignas(32) std::int32_t leaf[N][8];
  std::size_t t = 0;
  for (; t + 8 <= m.tree_count; t += 8, qword += 4 * 64) {
    std::uint32_t word[4][N];
    for (std::size_t p = 0; p < 4; ++p) pair_words(qword + 64 * p, word[p]);
    const __m256i shift = _mm256_sub_epi32(
        four, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m.depth + t)));
    const __m256i base = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(m.qleaf_off + t));
    for (std::size_t r = 0; r < N; ++r) {
      const __m256i w = _mm256_srlv_epi32(
          _mm256_permutevar8x32_epi32(
              _mm256_castsi128_si256(_mm_setr_epi32(
                  static_cast<int>(word[0][r]), static_cast<int>(word[1][r]),
                  static_cast<int>(word[2][r]), static_cast<int>(word[3][r]))),
              spread),
          halves);
      __m256i s = _mm256_add_epi32(one, _mm256_and_si256(w, one));
      for (int level = 1; level < 4; ++level)
        s = _mm256_add_epi32(
            _mm256_add_epi32(_mm256_add_epi32(s, s), one),
            _mm256_and_si256(_mm256_srlv_epi32(w, s), one));
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(leaf[r]),
          _mm256_add_epi32(
              base, _mm256_srlv_epi32(_mm256_sub_epi32(s, fifteen), shift)));
    }
    for (std::size_t k = 0; k < 8; ++k)
      for (std::size_t r = 0; r < N; ++r)
        sum[r] += scale * m.qleaf[leaf[r][k]];
  }
  // Fewer than eight trees left: walk them a pair at a time in scalar.
  for (; t < m.tree_count; t += 2, qword += 64) {
    std::uint32_t word[N];
    pair_words(qword, word);
    for (std::size_t j = 0; j < 2 && t + j < m.tree_count; ++j) {
      const std::int32_t shift = 4 - m.depth[t + j];
      const double* ql = m.qleaf + m.qleaf_off[t + j];
      for (std::size_t r = 0; r < N; ++r) {
        const std::uint32_t w = word[r] >> (16 * j);
        std::uint32_t s = 1 + (w & 1u);
        for (int level = 1; level < 4; ++level)
          s = 2 * s + 1 + ((w >> s) & 1u);
        sum[r] += scale * ql[(s - 15) >> shift];
      }
    }
  }
  for (std::size_t r = 0; r < N; ++r) acc[r] = sum[r];
}

}  // namespace

#endif  // XFL_X86_KERNELS

void FlatEnsemble::predict_rows_quantized(const Matrix& x, std::size_t begin,
                                          std::size_t end, double* out) const {
  XFL_EXPECTS(quantized_ok_);
  const QuantView view{qmask_idx_.data(),  qleaf_.data(),
                       qsplit_off_.data(), qleaf_off_.data(),
                       depth_.data(),      roots_.size(),
                       scale_};
  // Blocks of fewer rows than this take the word walk, or the few-row
  // walk where the ensemble has no word slots.
  const std::size_t few_rows = qword_.empty() ? kFewRows : kWordRows;
  // One buffer holds either the block's predicate-mask table (one uint16
  // per predicate, +1 zeroed pad entry for virtual padding splits) or two
  // rows of few-row predicates (the same entries as bytes). A few hundred
  // to a few thousand entries for histogram-trained models; a call made
  // only of word walks reads neither it nor the shuffle tables below.
  const std::size_t entries = mask_count() + 1;
  constexpr std::size_t kStackMasks = 4096;
  std::uint16_t masks_stack[kStackMasks];
  std::vector<std::uint16_t> masks_heap;
  std::uint16_t* masks = masks_stack;
  if (entries > kStackMasks && (qword_.empty() || end - begin >= few_rows)) {
    masks_heap.resize(entries);
    masks = masks_heap.data();
  }
#if XFL_X86_KERNELS
  const bool use_avx2 = cpu_supports_avx2();
  // Per-tree shuffle tables for the vector walk (16 entries per tree).
  constexpr std::size_t kStackTreeBits = 256 * kRowBlock;
  alignas(32) std::uint16_t qbits_stack[kStackTreeBits];
  std::vector<std::uint16_t> qbits_heap;
  std::uint16_t* qbits = qbits_stack;
  if (use_avx2 && end - begin >= few_rows &&
      roots_.size() * kRowBlock > kStackTreeBits) {
    qbits_heap.resize(roots_.size() * kRowBlock);
    qbits = qbits_heap.data();
  }
#endif
  double acc[kRowBlock];
  for (std::size_t block = begin; block < end; block += kRowBlock) {
    const std::size_t count = std::min(kRowBlock, end - block);
    // Seed every lane: the vector form accumulates dead tail lanes too
    // (walked but never stored), so they must hold defined values.
    for (std::size_t r = 0; r < kRowBlock; ++r) acc[r] = base_score_;
    if (count < few_rows) {
      // Two rows at a time: the same leaves in the same tree order,
      // without paying for a 16-lane block.
      for (std::size_t r = 0; r < count; r += 2) {
        const std::size_t pair = std::min<std::size_t>(2, count - r);
#if XFL_X86_KERNELS
        if (!qword_.empty()) {  // Predicate-word walk.
          alignas(32) std::uint8_t codes[2 * kMaxWordFeatures];
          build_row_codes(x, block + r, pair, codes);
          if (pair == 2)
            quant_word_walk<2>(view, qword_.data(), codes, acc + r);
          else
            quant_word_walk<1>(view, qword_.data(), codes, acc + r);
          continue;
        }
#endif
        // Few-row walk, the fallback where the word walk cannot run. Two
        // rows of predicate bytes fit the block's mask buffer.
        auto* pred = reinterpret_cast<std::uint8_t*>(masks);
        build_row_preds(x, block + r, pair, pred);
        if (pair == 2)
          quant_walk_few<2>(view, pred, entries, acc + r);
        else
          quant_walk_few<1>(view, pred, entries, acc + r);
      }
      for (std::size_t r = 0; r < count; ++r) out[block + r] = acc[r];
      continue;
    }
    build_block_masks(x, block, count, masks);
#if XFL_X86_KERNELS
    if (use_avx2) {
      quant_fill_bits(view, masks, qbits);
      quant_block_avx2(view, masks, qbits, count, acc);
    } else
#endif
    {
      // Portable scalar walk of the same padded integer form.
      for (std::size_t t = 0; t < view.tree_count; ++t)
        quant_tree_scalar(view, t, masks, count, acc);
    }
    for (std::size_t r = 0; r < count; ++r) out[block + r] = acc[r];
  }
}

void FlatEnsemble::explain_batch(const Matrix& x,
                                 std::span<double> predictions,
                                 std::span<double> bias,
                                 std::span<double> contributions) const {
  XFL_EXPECTS(predictions.size() == x.rows());
  XFL_EXPECTS(bias.size() == x.rows());
  XFL_EXPECTS(contributions.size() == x.rows() * x.cols());
  // Ensembles built with Builder::set_attribution(false) cannot explain.
  XFL_EXPECTS(attr_.size() == feature_.size());
  if (x.rows() == 0) return;
  // Every walk reads row[f] for each split feature f.
  XFL_EXPECTS(x.cols() >= min_cols_);
  XFL_SPAN("gbt.explain.batch");
  auto& metrics = explain_metrics();
  const std::uint64_t start_us = obs::monotonic_us();
  const std::int32_t* feat = feature_.data();
  const double* val = value_.data();
  const std::int32_t* left = left_.data();
  const double* attr = attr_.data();
  const std::size_t cols = x.cols();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.row(r).data();
    double* contrib = contributions.data() + r * cols;
    std::fill(contrib, contrib + cols, 0.0);
    // The accumulation below is the scalar predict kernel's exact per-row
    // operation sequence (walk each tree with !(x <= t), then acc +=
    // scale * leaf, in tree order), so predictions here are bit-identical
    // to predict_batch under every kernel.
    double acc = base_score_;
    for (const std::int32_t root : roots_) {
      std::int32_t i = root;
      std::int32_t f = feat[i];
      while (f >= 0) {
        const std::int32_t j =
            left[i] +
            static_cast<std::int32_t>(!(row[static_cast<std::size_t>(f)] <=
                                        val[i]));
        contrib[static_cast<std::size_t>(f)] += attr[j];
        i = j;
        f = feat[i];
      }
      acc += scale_ * val[i];
    }
    predictions[r] = acc;
    bias[r] = finalize_attribution(acc, contrib, cols);
  }
  metrics.rows.add(x.rows());
  metrics.batches.add(1);
  metrics.batch_us.record(static_cast<double>(obs::monotonic_us() - start_us));
}

void FlatEnsemble::predict_batch(const Matrix& x, std::span<double> out,
                                 ThreadPool* pool, Kernel kernel) const {
  XFL_EXPECTS(out.size() == x.rows());
  if (x.rows() == 0) return;
  // Every kernel reads row[f] for each split feature f.
  XFL_EXPECTS(x.cols() >= min_cols_);
  XFL_SPAN("gbt.predict.batch");
  auto& metrics = serve_metrics();
  const std::uint64_t start_us = obs::monotonic_us();
  const Kernel resolved = effective_kernel(kernel);
  const auto run = [&](std::size_t begin, std::size_t end) {
    if (resolved == Kernel::kQuantized)
      predict_rows_quantized(x, begin, end, out.data());
    else
      predict_rows_scalar(x, begin, end, out.data());
  };
  // Blocks of at least 128 rows: each index owns its output slot, so the
  // block boundaries (and hence the worker count) cannot change results.
  if (pool != nullptr && pool->thread_count() > 1 && x.rows() >= 256)
    pool->parallel_for_blocks(x.rows(), run, 128);
  else
    run(0, x.rows());
  metrics.rows.add(x.rows());
  metrics.batches.add(1);
  metrics.batch_us.record(static_cast<double>(obs::monotonic_us() - start_us));
  // The gauge is one unsharded line: written by every serving thread on
  // every call it would bounce between cores, so it is written only when
  // the kernel changes.
  const auto kernel_value = static_cast<double>(static_cast<int>(resolved));
  if (metrics.kernel_active.value() != kernel_value)
    metrics.kernel_active.set(kernel_value);
  (resolved == Kernel::kQuantized ? metrics.quantized_rows
                                  : metrics.scalar_rows)
      .add(x.rows());
}

}  // namespace xfl::ml
