// Load-threshold sensitivity study (§5.5.1 / Fig. 13): retrain per-edge
// models on datasets restricted to rate >= T * Rmax for T in
// {0.5, 0.6, 0.7, 0.8}. Higher thresholds exclude transfers that likely
// suffered unknown competing load, so prediction error should decline.
// (The paper's figure caption says "linear model" while the text says
// gradient boosting; we report both.)
#pragma once

#include <cstdint>
#include <vector>

#include "core/edge_model.hpp"
#include "core/pipeline.hpp"

namespace xfl::core {

struct ThresholdStudyConfig {
  /// Edges must keep at least this many transfers at the *highest*
  /// threshold (paper: 8 edges with > 300 transfers at 0.8 Rmax).
  std::size_t min_transfers_at_max = 300;
  std::size_t max_edges = 8;
  EdgeModelConfig edge_config;
};

/// One edge's error at each threshold, in ascending threshold order.
struct ThresholdSeries {
  logs::EdgeKey edge;
  std::vector<std::size_t> samples;   ///< Per threshold.
  std::vector<double> lr_mdape;       ///< Per threshold.
  std::vector<double> xgb_mdape;      ///< Per threshold.
};

/// Select qualifying edges and run the sweep.
std::vector<ThresholdSeries> run_threshold_study(
    const AnalysisContext& context, const ThresholdStudyConfig& config = {},
    ThreadPool* pool = nullptr);

}  // namespace xfl::core
