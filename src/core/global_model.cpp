#include "core/global_model.hpp"

#include "common/contracts.hpp"
#include "ml/metrics.hpp"

namespace xfl::core {

GlobalModelReport study_global_model(const AnalysisContext& context,
                                     const std::vector<logs::EdgeKey>& edges,
                                     const GlobalModelConfig& config) {
  XFL_EXPECTS(!edges.empty());
  features::DatasetOptions options;
  options.include_nflt = false;
  options.load_threshold = config.load_threshold;
  options.edge_rtt_s = config.edge_rtt_s;
  auto dataset = features::build_global_dataset(
      context.log, context.contention, edges, context.capabilities, options);

  if (config.without_capability_features) {
    std::vector<bool> keep(dataset.cols(), true);
    keep[dataset.cols() - 1] = false;  // RImax_dst
    keep[dataset.cols() - 2] = false;  // ROmax_src
    dataset = dataset.select_features(keep);
  }

  GlobalModelReport report;
  report.samples = dataset.rows();
  report.edges = edges.size();
  XFL_EXPECTS(dataset.rows() >= 50);

  const auto reduced = drop_constant_features(dataset).dataset;
  report.feature_names = reduced.feature_names;

  ml::GbtConfig gbt_config = config.gbt;
  gbt_config.seed = config.seed + 1;
  auto fit = fit_holdout(reduced, config.seed, gbt_config);
  report.lr_mdape = ml::mdape(fit.actual, fit.lr_predictions);
  report.lr_r2 = fit.lr_r2;
  report.xgb_mdape = ml::mdape(fit.actual, fit.xgb_predictions);
  report.xgb_importance = std::move(fit.xgb_importance);
  return report;
}

}  // namespace xfl::core
