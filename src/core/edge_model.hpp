// Per-edge regression study (§5.1-§5.3): for one heavily used edge, fit
//   * explanation models (linear + gradient boosting) on all 16 features
//     including Nflt, yielding the Fig. 9 coefficient map and the Fig. 12
//     importance map with low-variance features eliminated, and
//   * prediction models on the 15 predictive features (Nflt excluded) with
//     a 70/30 random split, yielding the Fig. 10 error distributions and
//     the Fig. 11 MdAPE comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "ml/gbt.hpp"

namespace xfl::core {

/// Study configuration.
struct EdgeModelConfig {
  double load_threshold = 0.5;      ///< T of §4.3.2.
  ml::GbtConfig gbt;                ///< Nonlinear model hyperparameters.
  std::uint64_t seed = 42;          ///< Split seed (edge index is mixed in).
};

/// Everything the figures need for one edge.
struct EdgeModelReport {
  logs::EdgeKey edge;
  std::size_t samples = 0;  ///< Transfers above the load threshold.

  /// Explanation block: all 16 features (Fig. 9/12 column order).
  std::vector<std::string> feature_names;
  std::vector<bool> eliminated;            ///< Low-variance crosses.
  std::vector<double> lr_coefficients;     ///< |beta| / max|beta| per edge.
  std::vector<double> xgb_importance;      ///< Gain / max gain per edge.

  /// Prediction block (Nflt excluded).
  double lr_mdape = 0.0;
  double xgb_mdape = 0.0;
  double lr_r2 = 0.0;
  xfl::DistributionSummary lr_ape;   ///< Fig. 10 left violin.
  xfl::DistributionSummary xgb_ape;  ///< Fig. 10 right violin.
};

/// Run the full study for one edge. Requires the edge to have at least
/// 20 transfers above the threshold (enough for a meaningful split).
EdgeModelReport study_edge(const AnalysisContext& context,
                           const logs::EdgeKey& edge,
                           const EdgeModelConfig& config = {});

/// Study several edges, optionally in parallel. Reports are returned in the
/// input edge order.
std::vector<EdgeModelReport> study_edges(const AnalysisContext& context,
                                         const std::vector<logs::EdgeKey>& edges,
                                         const EdgeModelConfig& config = {},
                                         ThreadPool* pool = nullptr);

}  // namespace xfl::core
