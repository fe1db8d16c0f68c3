#include "core/threshold_study.hpp"

#include <array>

namespace xfl::core {

namespace {
/// The paper's load thresholds T, ascending.
constexpr std::array<double, 4> kThresholds = {0.5, 0.6, 0.7, 0.8};
}  // namespace

std::vector<ThresholdSeries> run_threshold_study(
    const AnalysisContext& context, const ThresholdStudyConfig& config,
    ThreadPool* pool) {
  const auto edges = select_heavy_edges(context, config.min_transfers_at_max,
                                        kThresholds.back(), config.max_edges);

  std::vector<ThresholdSeries> series(edges.size());
  auto body = [&](std::size_t i) {
    ThresholdSeries& entry = series[i];
    entry.edge = edges[i];
    for (const double threshold : kThresholds) {
      EdgeModelConfig edge_config = config.edge_config;
      edge_config.load_threshold = threshold;
      const auto report = study_edge(context, edges[i], edge_config);
      entry.samples.push_back(report.samples);
      entry.lr_mdape.push_back(report.lr_mdape);
      entry.xgb_mdape.push_back(report.xgb_mdape);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(edges.size(), body);
  } else {
    for (std::size_t i = 0; i < edges.size(); ++i) body(i);
  }
  return series;
}

}  // namespace xfl::core
