#include "ml/mic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/contracts.hpp"

namespace xfl::ml {

namespace {

/// Superclump factor: at most kSuperclumpFactor * k clump candidates.
constexpr double kSuperclumpFactor = 5.0;

double log2_safe(double p) { return p > 0.0 ? std::log2(p) : 0.0; }

/// Equal-frequency assignment of sorted values into up to q bins. Ties are
/// kept together (identical values never straddle a bin boundary), so the
/// actual bin count can be lower. Returns per-point bin ids (input order is
/// the sorted order) and sets `bins_used`.
std::vector<int> equipartition(const std::vector<double>& sorted_values,
                               std::size_t q, std::size_t& bins_used) {
  const std::size_t n = sorted_values.size();
  std::vector<int> assignment(n, 0);
  const double per_bin = static_cast<double>(n) / static_cast<double>(q);
  int bin = 0;
  std::size_t i = 0;
  double filled = 0.0;
  while (i < n) {
    // Extent of the tie group starting at i.
    std::size_t j = i;
    while (j + 1 < n && sorted_values[j + 1] == sorted_values[i]) ++j;
    const auto group = static_cast<double>(j - i + 1);
    // Advance to the next bin if this one is full and another remains.
    if (filled >= per_bin - 1.0e-9 &&
        static_cast<std::size_t>(bin) + 1 < q) {
      ++bin;
      filled = 0.0;
    }
    for (std::size_t k = i; k <= j; ++k) assignment[k] = bin;
    filled += group;
    i = j + 1;
  }
  bins_used = static_cast<std::size_t>(bin) + 1;
  return assignment;
}

/// Mutual-information maximisation over x-partitions given a fixed y-bin
/// assignment, following the MINE OptimizeXAxis dynamic program. Points
/// must be supplied sorted by x. Returns the best I (bits) for each x-bin
/// count l in [2, k] (index l-2 in the result).
std::vector<double> optimize_axis(const std::vector<double>& x_sorted,
                                  const std::vector<int>& y_bins,
                                  std::size_t q, std::size_t k) {
  const std::size_t n = x_sorted.size();
  XFL_EXPECTS(y_bins.size() == n && q >= 2 && k >= 2);

  // --- Clumps: maximal runs of equal x (equal x can never be separated).
  std::vector<std::size_t> clump_end;  // Exclusive end index per clump.
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j + 1 < n && x_sorted[j + 1] == x_sorted[i]) ++j;
    clump_end.push_back(j + 1);
    i = j + 1;
  }
  // --- Superclumps: cap the candidate boundary count at factor*k by merging.
  const auto max_clumps = std::max<std::size_t>(
      static_cast<std::size_t>(kSuperclumpFactor * static_cast<double>(k)),
      k + 1);
  if (clump_end.size() > max_clumps) {
    std::vector<std::size_t> merged;
    const double per_super = static_cast<double>(n) /
                             static_cast<double>(max_clumps);
    double target = per_super;
    for (std::size_t idx = 0; idx < clump_end.size(); ++idx) {
      const bool last = idx + 1 == clump_end.size();
      if (last || static_cast<double>(clump_end[idx]) >= target - 1.0e-9) {
        merged.push_back(clump_end[idx]);
        target = static_cast<double>(clump_end[idx]) + per_super;
      }
    }
    clump_end = std::move(merged);
  }
  const std::size_t m = clump_end.size();
  if (m < 2) return {};

  // Cumulative per-y-row counts at each clump boundary: cum[t][r] = number
  // of points in clumps 1..t falling in y row r.
  std::vector<std::vector<double>> cum(m + 1, std::vector<double>(q, 0.0));
  {
    std::size_t point = 0;
    for (std::size_t t = 0; t < m; ++t) {
      cum[t + 1] = cum[t];
      for (; point < clump_end[t]; ++point)
        cum[t + 1][static_cast<std::size_t>(y_bins[point])] += 1.0;
    }
  }
  std::vector<double> total(m + 1, 0.0);
  for (std::size_t t = 1; t <= m; ++t)
    total[t] = std::accumulate(cum[t].begin(), cum[t].end(), 0.0);

  // Extensive per-bin score for clump range (s, t]:
  //   G = sum_r n_r * log2(n_r / n_bin)   (= -n_bin * H(Q | this bin)).
  auto bin_score = [&](std::size_t s, std::size_t t) {
    const double n_bin = total[t] - total[s];
    if (n_bin <= 0.0) return 0.0;
    double g = 0.0;
    for (std::size_t r = 0; r < q; ++r) {
      const double n_r = cum[t][r] - cum[s][r];
      if (n_r > 0.0) g += n_r * log2_safe(n_r / n_bin);
    }
    return g;
  };

  // DP over extensive scores: F[t][l] = best sum of bin scores partitioning
  // clumps 1..t into l bins (boundaries at clump ends, last bin ends at t).
  const std::size_t k_max = std::min(k, m);
  std::vector<std::vector<double>> dp(
      m + 1, std::vector<double>(k_max + 1, -1.0e300));
  for (std::size_t t = 1; t <= m; ++t) dp[t][1] = bin_score(0, t);
  for (std::size_t l = 2; l <= k_max; ++l) {
    for (std::size_t t = l; t <= m; ++t) {
      double best = -1.0e300;
      for (std::size_t s = l - 1; s < t; ++s) {
        const double candidate = dp[s][l - 1] + bin_score(s, t);
        if (candidate > best) best = candidate;
      }
      dp[t][l] = best;
    }
  }

  // H(Q) over all points, in bits.
  double h_q = 0.0;
  for (std::size_t r = 0; r < q; ++r) {
    const double p = cum[m][r] / total[m];
    if (p > 0.0) h_q -= p * std::log2(p);
  }

  std::vector<double> result;
  result.reserve(k_max - 1);
  for (std::size_t l = 2; l <= k_max; ++l)
    result.push_back(h_q + dp[m][l] / total[m]);
  return result;
}

/// Best normalised grid value with the y axis equipartitioned and the x
/// axis optimised. Inputs already sorted by x.
double best_over_grids(const std::vector<double>& x_sorted,
                       const std::vector<double>& y_of_x_sorted,
                       double budget) {
  // Order points by y to equipartition, then map assignments back.
  const std::size_t n = x_sorted.size();
  std::vector<std::size_t> by_y(n);
  std::iota(by_y.begin(), by_y.end(), 0);
  std::sort(by_y.begin(), by_y.end(), [&](std::size_t a, std::size_t b) {
    return y_of_x_sorted[a] < y_of_x_sorted[b];
  });
  std::vector<double> y_sorted(n);
  for (std::size_t i = 0; i < n; ++i) y_sorted[i] = y_of_x_sorted[by_y[i]];

  double best = 0.0;
  const auto q_limit = static_cast<std::size_t>(budget / 2.0);
  for (std::size_t q = 2; q <= std::max<std::size_t>(2, q_limit); ++q) {
    const auto k = static_cast<std::size_t>(budget / static_cast<double>(q));
    if (k < 2) break;
    std::size_t bins_used = 0;
    const auto y_assignment_sorted = equipartition(y_sorted, q, bins_used);
    if (bins_used < 2) continue;
    // Scatter assignments back to x order.
    std::vector<int> y_bins(n);
    for (std::size_t i = 0; i < n; ++i)
      y_bins[by_y[i]] = y_assignment_sorted[i];

    const auto curve = optimize_axis(x_sorted, y_bins, bins_used, k);
    for (std::size_t l = 2; l - 2 < curve.size(); ++l) {
      const double denominator =
          std::log2(static_cast<double>(std::min(l, bins_used)));
      if (denominator <= 0.0) continue;
      best = std::max(best, curve[l - 2] / denominator);
    }
  }
  return std::min(best, 1.0);
}

}  // namespace

double mic(std::span<const double> x, std::span<const double> y,
           const MicOptions& options) {
  XFL_EXPECTS(x.size() == y.size());
  XFL_EXPECTS(options.alpha > 0.0 && options.alpha < 1.0);
  std::size_t n = x.size();
  if (n < 4) return 0.0;

  // Deterministic stride-based down-sampling keeps the estimator cheap on
  // large edges without introducing RNG state.
  std::vector<double> xs, ys;
  if (options.max_samples > 0 && n > options.max_samples) {
    const double stride =
        static_cast<double>(n) / static_cast<double>(options.max_samples);
    xs.reserve(options.max_samples);
    ys.reserve(options.max_samples);
    for (std::size_t i = 0; i < options.max_samples; ++i) {
      const auto idx = static_cast<std::size_t>(static_cast<double>(i) * stride);
      xs.push_back(x[idx]);
      ys.push_back(y[idx]);
    }
    n = xs.size();
  } else {
    xs.assign(x.begin(), x.end());
    ys.assign(y.begin(), y.end());
  }

  // Constant inputs carry no information.
  const bool x_constant =
      std::all_of(xs.begin(), xs.end(), [&](double v) { return v == xs[0]; });
  const bool y_constant =
      std::all_of(ys.begin(), ys.end(), [&](double v) { return v == ys[0]; });
  if (x_constant || y_constant) return 0.0;

  const double budget =
      std::max(4.0, std::pow(static_cast<double>(n), options.alpha));

  // Orientation 1: optimise x partitions against y equipartition.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> x_sorted(n), y_in_x_order(n);
  for (std::size_t i = 0; i < n; ++i) {
    x_sorted[i] = xs[order[i]];
    y_in_x_order[i] = ys[order[i]];
  }
  double best = best_over_grids(x_sorted, y_in_x_order, budget);

  // Orientation 2: swap the roles of the axes.
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ys[a] < ys[b]; });
  std::vector<double> y_sorted(n), x_in_y_order(n);
  for (std::size_t i = 0; i < n; ++i) {
    y_sorted[i] = ys[order[i]];
    x_in_y_order[i] = xs[order[i]];
  }
  best = std::max(best,
                  best_over_grids(y_sorted, x_in_y_order, budget));
  return best;
}

}  // namespace xfl::ml
