// Shared analysis context: log -> contention features -> endpoint
// capabilities, the heavy-edge selection rule of §5.1 ("edges that have at
// least 300 transfers with rate greater than 0.5 Rmax"), and the held-out
// fit every §5 study runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "features/contention.hpp"
#include "features/dataset.hpp"
#include "features/endpoint_stats.hpp"
#include "logs/log_store.hpp"
#include "ml/gbt.hpp"

namespace xfl::core {

/// Everything derived once from a log and reused by every study.
struct AnalysisContext {
  logs::LogStore log;
  std::vector<features::ContentionFeatures> contention;
  std::map<endpoint::EndpointId, features::EndpointCapability> capabilities;
};

/// Run the contention sweep and capability estimation over a log.
/// `contention_threads` follows compute_contention's convention
/// (0 = hardware concurrency, 1 = serial); the result is identical
/// regardless of the value.
AnalysisContext analyze_log(logs::LogStore log, int contention_threads = 1);

/// Edges with at least `min_transfers` transfers whose rate exceeds
/// `load_threshold * Rmax(edge)`, ordered by qualifying-transfer count
/// (descending), truncated to `max_edges` (0 = no limit).
std::vector<logs::EdgeKey> select_heavy_edges(const AnalysisContext& context,
                                              std::size_t min_transfers = 300,
                                              double load_threshold = 0.5,
                                              std::size_t max_edges = 30);

/// A dataset without its near-constant columns.
struct VaryingFeatures {
  std::vector<bool> keep;     ///< features::variance_mask, true = kept.
  features::Dataset dataset;  ///< The kept columns; all when none is kept.
};

/// Drop the columns features::variance_mask flags (the paper eliminates C
/// and P per edge "because they do not vary greatly"). A dataset in which
/// no column varies is kept whole.
VaryingFeatures drop_constant_features(const features::Dataset& dataset);

/// One held-out evaluation (see fit_holdout).
struct HoldoutFit {
  std::vector<double> actual;           ///< Held-out targets, MB/s.
  std::vector<double> lr_predictions;   ///< Empty without the LR baseline.
  std::vector<double> xgb_predictions;
  double lr_r2 = 0.0;                   ///< On the held-out rows.
  std::vector<double> xgb_importance;   ///< Gain / max gain.
};

/// The recipe behind every §5 result: split `dataset` 70/30 with
/// `split_seed` ("we randomly select 70% of the log data to train the
/// model and the other 30% to test"), standardise on the training rows,
/// fit a GBT with `gbt` (and the linear baseline when `with_linear`), and
/// predict the held-out rows. Callers compute their own error metric.
HoldoutFit fit_holdout(const features::Dataset& dataset,
                       std::uint64_t split_seed, const ml::GbtConfig& gbt,
                       bool with_linear = true);

}  // namespace xfl::core
