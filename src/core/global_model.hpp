// Single model for all edges (§5.4 / Eq. 5): pool the thresholded
// transfers of every heavy edge, append the endpoint-capability features
// ROmax(src) and RImax(dst), and fit one linear and one nonlinear model.
// The paper reports MdAPE 19% (linear) and 4.9% (XGB) for this setting
// (7.8% in the abstract's summary).
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "ml/gbt.hpp"

namespace xfl::core {

struct GlobalModelConfig {
  double load_threshold = 0.5;
  ml::GbtConfig gbt;
  std::uint64_t seed = 97;
  /// Drop the ROmax/RImax capability features (ablation: how much do the
  /// endpoint features matter for the pooled model?).
  bool without_capability_features = false;
  /// Optional per-edge RTT map: when set, the pooled model gains the RTT
  /// feature §5.4 proposes as future work. Not owned; must outlive the
  /// study call.
  const std::map<logs::EdgeKey, double>* edge_rtt_s = nullptr;
};

struct GlobalModelReport {
  std::size_t samples = 0;       ///< Pooled transfers above threshold.
  std::size_t edges = 0;
  double lr_mdape = 0.0;
  double xgb_mdape = 0.0;
  double lr_r2 = 0.0;
  std::vector<std::string> feature_names;
  std::vector<double> xgb_importance;  ///< Gain / max gain.
};

/// Fit and evaluate the pooled model over the given edges.
GlobalModelReport study_global_model(const AnalysisContext& context,
                                     const std::vector<logs::EdgeKey>& edges,
                                     const GlobalModelConfig& config = {});

}  // namespace xfl::core
