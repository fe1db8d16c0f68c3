#include "core/edge_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"

namespace xfl::core {

namespace {

/// Fit the explanation models on the full (thresholded) dataset with Nflt
/// included and write the Fig. 9 / Fig. 12 blocks of the report.
void run_explanation(const AnalysisContext& context, const logs::EdgeKey& edge,
                     const EdgeModelConfig& config, EdgeModelReport& report) {
  features::DatasetOptions options;
  options.include_nflt = true;
  options.load_threshold = config.load_threshold;
  const auto dataset =
      features::build_edge_dataset(context.log, context.contention, edge, options);

  report.feature_names = dataset.feature_names;
  const auto [keep, reduced] = drop_constant_features(dataset);
  report.eliminated.resize(keep.size());
  for (std::size_t c = 0; c < keep.size(); ++c)
    report.eliminated[c] = !keep[c];

  report.lr_coefficients.assign(keep.size(), 0.0);
  report.xgb_importance.assign(keep.size(), 0.0);
  const bool none_kept =
      std::find(keep.begin(), keep.end(), true) == keep.end();
  if (none_kept || reduced.rows() < reduced.cols() + 2) return;

  ml::StandardScaler scaler;
  const auto x_std = scaler.fit_transform(reduced.x);

  ml::LinearRegression linear;
  linear.fit(x_std, reduced.y);

  ml::GbtConfig gbt_config = config.gbt;
  gbt_config.seed = config.seed;
  ml::GradientBoostedTrees boosted(gbt_config);
  boosted.fit(x_std, reduced.y);
  const auto importance = boosted.feature_importance();

  // Scatter the reduced-model numbers back to the full 16-column layout,
  // scaling linear coefficients so the per-edge maximum is 1 (Fig. 9:
  // "we scaled the coefficients by dividing each coefficient into the
  // maximum value of its edge").
  double max_coefficient = 0.0;
  for (const double beta : linear.coefficients())
    max_coefficient = std::max(max_coefficient, std::fabs(beta));
  std::size_t reduced_column = 0;
  for (std::size_t c = 0; c < keep.size(); ++c) {
    if (!keep[c]) continue;
    const double beta = linear.coefficients()[reduced_column];
    report.lr_coefficients[c] =
        max_coefficient > 0.0 ? std::fabs(beta) / max_coefficient : 0.0;
    report.xgb_importance[c] = importance[reduced_column];
    ++reduced_column;
  }
}

/// Fit the prediction models (Nflt excluded) on a 70/30 split and write the
/// error block of the report.
void run_prediction(const AnalysisContext& context, const logs::EdgeKey& edge,
                    const EdgeModelConfig& config, EdgeModelReport& report) {
  features::DatasetOptions options;
  options.include_nflt = false;
  options.load_threshold = config.load_threshold;
  const auto dataset =
      features::build_edge_dataset(context.log, context.contention, edge, options);
  report.samples = dataset.rows();
  XFL_EXPECTS(dataset.rows() >= 20);

  // Mix the edge into the split seed so edges do not share split patterns.
  const std::uint64_t split_seed =
      config.seed ^ (static_cast<std::uint64_t>(edge.src) << 32) ^ edge.dst;
  ml::GbtConfig gbt_config = config.gbt;
  gbt_config.seed = config.seed + 1;
  const auto reduced = drop_constant_features(dataset).dataset;
  const auto fit = fit_holdout(reduced, split_seed, gbt_config);
  report.lr_mdape = ml::mdape(fit.actual, fit.lr_predictions);
  report.lr_ape = ml::ape_summary(fit.actual, fit.lr_predictions);
  report.lr_r2 = fit.lr_r2;
  report.xgb_mdape = ml::mdape(fit.actual, fit.xgb_predictions);
  report.xgb_ape = ml::ape_summary(fit.actual, fit.xgb_predictions);
}

}  // namespace

EdgeModelReport study_edge(const AnalysisContext& context,
                           const logs::EdgeKey& edge,
                           const EdgeModelConfig& config) {
  EdgeModelReport report;
  report.edge = edge;
  run_explanation(context, edge, config, report);
  run_prediction(context, edge, config, report);
  return report;
}

std::vector<EdgeModelReport> study_edges(const AnalysisContext& context,
                                         const std::vector<logs::EdgeKey>& edges,
                                         const EdgeModelConfig& config,
                                         ThreadPool* pool) {
  std::vector<EdgeModelReport> reports(edges.size());
  // One edge per worker; each edge's GBT fits on one thread.
  auto body = [&](std::size_t i) {
    reports[i] = study_edge(context, edges[i], config);
  };
  if (pool != nullptr) {
    pool->parallel_for(edges.size(), body);
  } else {
    for (std::size_t i = 0; i < edges.size(); ++i) body(i);
  }
  return reports;
}

}  // namespace xfl::core
