// Public prediction API — the downstream-facing deliverable the paper
// motivates: "Our predictions can be used for distributed workflow
// scheduling and optimization."
//
// TransferPredictor learns from a historical log: one gradient-boosting
// model per sufficiently used edge, plus the pooled global model of §5.4
// (with ROmax/RImax endpoint-capability features) as a fallback for edges
// with little or no history. Callers supply the planned transfer and the
// competing load they expect during it (e.g. from currently running
// transfers) and receive a rate estimate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ml/gbt.hpp"

namespace xfl {
class ThreadPool;
}

namespace xfl::core {

/// A transfer about to be submitted.
struct PlannedTransfer {
  endpoint::EndpointId src = 0;
  endpoint::EndpointId dst = 0;
  double bytes = 0.0;
  std::uint64_t files = 1;
  std::uint64_t dirs = 1;
  std::uint32_t concurrency = 4;
  std::uint32_t parallelism = 4;

  /// The name of the first field outside the ranges the serve protocol
  /// and the CLI accept (ids <= 2^30, finite bytes >= 0, files and dirs in
  /// [1, 2^40], concurrency and parallelism in [1, 2^20]), or nullptr.
  const char* invalid_field() const;
};

/// One joined prediction/feedback observation from the serve path — the
/// raw material of a live refit: the planned transfer, the competing
/// load the caller reported, and the observed average rate. The retrain
/// subsystem (src/retrain) replays journalled EdgeSamples through
/// refit_edge() to rebuild a per-edge model from serving ground truth.
struct EdgeSample {
  PlannedTransfer transfer;
  features::ContentionFeatures load;
  double observed_mbps = 0.0;
};

/// A rate prediction with an empirical uncertainty band (the 10th and
/// 90th percentiles of the training-residual ratio applied to the point
/// estimate). Schedulers can plan against `low_mbps` for deadlines.
struct RateInterval {
  double low_mbps = 0.0;
  double expected_mbps = 0.0;
  double high_mbps = 0.0;
};

/// One explained prediction: the served rate plus the Saabas
/// decomposition of where it came from. Exactness contract:
/// `contributions` summed in ascending feature order plus `bias_mbps`
/// (added last) equals `raw_mbps` bit-exactly, and `rate_mbps` ==
/// max(raw_mbps, 0.01) is bit-identical to what predict_rates_mbps
/// serves for the same transfer. Contributions are in MB/s — each is the
/// summed shift in subtree expectation its feature's splits caused along
/// every tree's decision path — and `bias_mbps` is the ensemble's base
/// score plus the root expectations (what an average training row would
/// get), absorbing the few-ulp summation residual.
struct RateExplanation {
  double rate_mbps = 0.0;   ///< Served rate (clamped at 0.01 MB/s).
  double raw_mbps = 0.0;    ///< Unclamped model output = bias + sum.
  double bias_mbps = 0.0;   ///< Base + root expectations (+ residual).
  double low_mbps = 0.0;    ///< rate * ratio_p10 band, as in RateInterval.
  double high_mbps = 0.0;
  bool edge_model = false;  ///< Dedicated edge model vs. global fallback.
  /// Parallel arrays, in the serving model's feature order (15 per-edge
  /// features, +ROmax_src/RImax_dst on the global fallback).
  std::vector<std::string> feature_names;
  std::vector<double> contributions;
};

/// Historical-log-trained transfer rate predictor. A copy shares every
/// fitted model with its source: models are immutable once built, so a
/// copy costs the two maps of model pointers and the capabilities. The
/// retrain worker builds each candidate on a copy of the serving
/// predictor and refits one edge of it.
class TransferPredictor {
 public:
  struct Options {
    /// Per-edge models are trained for edges with at least this many
    /// transfers; others fall back to the global model.
    std::size_t min_edge_transfers = 100;
    /// Optional unknown-load filter applied to training data (0 = off).
    double load_threshold = 0.0;
    /// Hyperparameters of every model fit() trains.
    ml::GbtConfig gbt;
    /// Width of the whole fit (0 = hardware concurrency, the default): the
    /// contention sweep and one pool that trains the independent models
    /// concurrently, global fallback first, then edges most used first,
    /// and then calibrates the global model. Each GBT fits on one thread,
    /// so the fitted models and save() bytes are identical at every width.
    int threads = 0;
    std::uint64_t seed = 1234;
  };

  TransferPredictor();
  explicit TransferPredictor(Options options);

  /// Train from a historical log. May be called again to refit; a fit that
  /// throws leaves the predictor as it was.
  void fit(const logs::LogStore& log);

  /// Refit (or create) the dedicated model for `edge` from raw serving
  /// samples. Builds the 15-column per-edge feature matrix, trains a GBT
  /// on it under `gbt` with the optional integer sample `weights` (the
  /// retrain worker's quantised recency decay; empty = unweighted), and
  /// recalibrates the residual interval. The new model replaces the edge's
  /// entry; the global model, the other edges and every copy that shares
  /// the old model are untouched. Requires fit() (or load()),
  /// samples.size() >= 2, finite observed rates > 0, and weights empty or
  /// parallel to samples.
  void refit_edge(const logs::EdgeKey& edge, std::span<const EdgeSample> samples,
                  std::span<const std::uint32_t> weights, const ml::GbtConfig& gbt);

  bool fitted() const { return fitted_; }

  /// True when a dedicated model exists for the edge.
  bool has_edge_model(const logs::EdgeKey& edge) const;

  /// Predict the average transfer rate in MB/s. `expected_load` carries the
  /// competing-load features the caller anticipates (default: idle).
  /// Requires fit() first.
  double predict_rate_mbps(
      const PlannedTransfer& transfer,
      const features::ContentionFeatures& expected_load = {}) const;

  /// Batch serving path: predict rates for many planned transfers at once.
  /// Transfers are grouped per serving model (edge or global fallback),
  /// written as raw feature rows into one matrix per group, and pushed
  /// through the flattened batch-inference engine — bit-identical to
  /// calling predict_rate_mbps per transfer, in any grouping.
  /// `expected_loads` is either empty (all idle) or parallel to
  /// `transfers`. Requires fit().
  std::vector<double> predict_rates_mbps(
      std::span<const PlannedTransfer> transfers,
      std::span<const features::ContentionFeatures> expected_loads = {}) const;

  /// Explained batch serving path: the same per-model grouping and raw
  /// feature rows as predict_rates_mbps, routed through the flat engine's
  /// Saabas attribution kernel. Each result's rate_mbps is
  /// bit-identical to the rate predict_rates_mbps would serve, and its
  /// contributions + bias reconstruct raw_mbps bit-exactly (see
  /// RateExplanation). Per-feature |contribution| values are recorded
  /// into `predictor.attribution.<feature>` histograms. Requires fit().
  std::vector<RateExplanation> explain_rates_mbps(
      std::span<const PlannedTransfer> transfers,
      std::span<const features::ContentionFeatures> expected_loads = {}) const;

  /// Point prediction plus an empirical 10th-90th percentile band.
  /// Requires fit().
  RateInterval predict_rate_interval(
      const PlannedTransfer& transfer,
      const features::ContentionFeatures& expected_load = {}) const;

  /// Predicted wall-clock duration in seconds (bytes / predicted rate).
  double estimate_duration_s(
      const PlannedTransfer& transfer,
      const features::ContentionFeatures& expected_load = {}) const;

  /// Name of the batch-inference kernel the serving path runs ("scalar" /
  /// "quantized"), as the global model's compiled ensemble chooses it from
  /// its quantized form and the CPU. Surfaced in the serve startup log and
  /// the `stats` admin reply. Requires fit() (or load()).
  const char* serving_kernel() const;

  /// Feature importances of the model serving this edge (name, weight),
  /// most important first. Requires fit().
  std::vector<std::pair<std::string, double>> explain(
      const logs::EdgeKey& edge) const;

  /// Historical capability estimate for an endpoint, if it has history.
  const features::EndpointCapability* capability(
      endpoint::EndpointId endpoint) const;

  /// Persist the fitted predictor (per-edge + global models, endpoint
  /// capabilities) to a line-oriented text stream; load() restores a
  /// predictor that answers identically. Requires fit().
  /// load() reads `in` to its end; malformed input throws
  /// std::runtime_error before anything is sized by a bad count.
  void save(std::ostream& out) const;
  static TransferPredictor load(std::istream& in);

  /// File-based persistence with crash-safe replacement: save_file writes
  /// to `path + ".tmp.<pid>"`, fsyncs the temp file, atomically
  /// rename(2)s it into place, then fsyncs the parent directory — so a
  /// concurrent reader (e.g. the serve hot-reload watcher) sees either
  /// the old complete file or the new complete file, never a torn write,
  /// and a power loss right after return cannot roll back to a missing or
  /// zero-length model. Both throw std::runtime_error on I/O failure.
  void save_file(const std::string& path) const;
  static TransferPredictor load_file(const std::string& path);

 private:
  /// One serving model (per-edge or global). Its GradientBoostedTrees
  /// carries the compiled FlatEnsemble that answers queries. fit(),
  /// refit_edge() and load() build and compile each ensemble through a
  /// local handle and commit it as const, so a committed model never
  /// changes and predictor copies (and versions a host has published)
  /// share it across threads; a refit replaces the pointer.
  struct Model {
    std::shared_ptr<const ml::GradientBoostedTrees> boosted;
    std::vector<std::string> feature_names;
    /// Empirical training-residual ratio quantiles (actual / predicted).
    double ratio_p10 = 1.0;
    double ratio_p90 = 1.0;
  };

  /// One serving-model group of a batch, as serve_batch hands it over:
  /// batch rows `indices` (ascending) went through `model`, and `raw`
  /// holds their unclamped outputs. The explain pass also fills `bias`
  /// and row-major `contributions` (model width per row).
  struct Group {
    const Model& model;
    bool dedicated;
    std::span<const std::size_t> indices;
    std::span<const double> raw;
    std::span<const double> bias;
    std::span<const double> contributions;
  };

  static void calibrate_interval(Model& model, const ml::Matrix& x,
                                 const std::vector<double>& y,
                                 ThreadPool* pool = nullptr);
  /// The model file as text: load parses all of it from `in`, in file
  /// order (a malformed file fails at its first bad token), then compiles
  /// every model's serving engine, all on the calling thread. The stream
  /// and file overloads go through it.
  static TransferPredictor load(TokenReader& in);
  using Uncompiled = std::vector<std::shared_ptr<ml::GradientBoostedTrees>>;
  /// load's parse step, into a default-constructed predictor: options,
  /// capabilities and models. Returns a handle to each model's ensemble,
  /// in file order, for the compile step.
  Uncompiled parse(TokenReader& in);
  /// One model's block of the model file (xfl-predictor-v2): `label`, the
  /// feature names, the residual band, then the GBT over raw feature rows,
  /// parsed but not compiled (its handle goes to `uncompiled`). A v1 file
  /// (it also held standardisation moments) fails on the magic.
  static void save_model(std::string& out, const char* label,
                         const Model& model);
  static Model parse_model(TokenReader& in, const std::string& label,
                           Uncompiled& uncompiled);
  const Model& model_for(const logs::EdgeKey& edge) const;
  /// The one batch routine behind every predict and explain entry point:
  /// group the transfers by serving model, write each group's raw feature
  /// rows (features::write_feature_row, plus the endpoint capabilities on
  /// the global fallback) straight into one matrix, run the model's flat
  /// engine (explain_batch when `explain`, else predict_batch), count the
  /// rows per model class, and hand each group to `emit`. `loads` is empty
  /// (all idle) or parallel to `transfers`.
  template <typename Emit>
  void serve_batch(std::span<const PlannedTransfer> transfers,
                   std::span<const features::ContentionFeatures> loads,
                   bool explain, Emit&& emit) const;

  Options options_;
  bool fitted_ = false;
  std::map<logs::EdgeKey, Model> edge_models_;
  Model global_model_;
  std::map<endpoint::EndpointId, features::EndpointCapability> capabilities_;
};

}  // namespace xfl::core
