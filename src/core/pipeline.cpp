#include "core/pipeline.hpp"

#include <algorithm>

#include "ml/linreg.hpp"
#include "ml/scaler.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace xfl::core {

namespace {
/// The paper's training share of every held-out split.
constexpr double kTrainFraction = 0.7;
}  // namespace

AnalysisContext analyze_log(logs::LogStore log, int contention_threads) {
  XFL_SPAN("core.analyze_log");
  AnalysisContext context;
  context.log = std::move(log);
  XFL_LOG(debug) << "analyzing log" << obs::kv("records", context.log.size())
                 << obs::kv("threads", contention_threads);
  context.contention =
      features::compute_contention(context.log, contention_threads);
  context.capabilities =
      features::estimate_capabilities(context.log, context.contention);
  return context;
}

std::vector<logs::EdgeKey> select_heavy_edges(const AnalysisContext& context,
                                              std::size_t min_transfers,
                                              double load_threshold,
                                              std::size_t max_edges) {
  struct Candidate {
    logs::EdgeKey edge;
    std::size_t qualifying = 0;
  };
  std::vector<Candidate> candidates;
  for (const auto& edge : context.log.edges_by_usage()) {
    const auto indices = context.log.edge_transfers(edge);
    if (indices.size() < min_transfers) continue;  // Cannot qualify.
    const double min_rate = load_threshold > 0.0
                                ? load_threshold * context.log.edge_max_rate(edge)
                                : 0.0;
    std::size_t qualifying = 0;
    for (const std::size_t i : indices)
      if (context.log[i].rate_Bps() >= min_rate) ++qualifying;
    if (qualifying >= min_transfers)
      candidates.push_back({edge, qualifying});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.qualifying > b.qualifying;
                   });
  if (max_edges > 0 && candidates.size() > max_edges)
    candidates.resize(max_edges);
  std::vector<logs::EdgeKey> edges;
  edges.reserve(candidates.size());
  for (const auto& candidate : candidates) edges.push_back(candidate.edge);
  return edges;
}

VaryingFeatures drop_constant_features(const features::Dataset& dataset) {
  VaryingFeatures varying;
  varying.keep = features::variance_mask(dataset.x);
  varying.dataset = dataset.select_features(varying.keep);
  if (varying.dataset.cols() == 0) varying.dataset = dataset;
  return varying;
}

HoldoutFit fit_holdout(const features::Dataset& dataset,
                       std::uint64_t split_seed, const ml::GbtConfig& gbt,
                       bool with_linear) {
  auto split = features::split_dataset(dataset, kTrainFraction, split_seed);
  ml::StandardScaler scaler;
  const auto x_train = scaler.fit_transform(split.train.x);
  const auto x_test = scaler.transform(split.test.x);

  HoldoutFit fit;
  if (with_linear) {
    ml::LinearRegression linear;
    linear.fit(x_train, split.train.y);
    fit.lr_predictions = linear.predict(x_test);
    fit.lr_r2 = linear.r_squared(x_test, split.test.y);
  }
  ml::GradientBoostedTrees boosted(gbt);
  boosted.fit(x_train, split.train.y);
  // Serial batch engine: study_edges may already fan the studies out per
  // edge, and the answers are identical at any width.
  fit.xgb_predictions.resize(x_test.rows());
  boosted.predict_batch(x_test, fit.xgb_predictions);
  fit.xgb_importance = boosted.feature_importance();
  fit.actual = std::move(split.test.y);
  return fit;
}

}  // namespace xfl::core
