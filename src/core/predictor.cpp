#include "core/predictor.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/contracts.hpp"
#include "common/number.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "features/dataset.hpp"
#include "ml/gbt_flat.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xfl::core {

namespace {
/// Predictor-level observability: which model class serves each request
/// (dedicated edge model vs. global fallback) and whether the residual
/// interval came from real calibration data or the 1.0 defaults.
struct PredictorMetrics {
  obs::Counter& fits = obs::counter("predictor.fit.count");
  obs::Counter& edge_models = obs::counter("predictor.fit.edge_models");
  obs::Counter& calibrated = obs::counter("predictor.fit.calibrated");
  obs::Counter& uncalibrated = obs::counter("predictor.fit.uncalibrated");
  obs::Counter& edge_hits = obs::counter("predictor.predict.edge_hits");
  obs::Counter& global_fallbacks =
      obs::counter("predictor.predict.global_fallbacks");
  /// Batch predict wall time, fine log buckets: its quantiles feed the
  /// serve-path "predict" stage in the stats exposition.
  obs::Histogram& batch_latency = obs::histogram(
      "predictor.predict.batch_us", obs::quantile_latency_bounds_us());
  // Explain-path accounting, per group: which model class produced each
  // explanation and whether its interval came from real calibration data.
  obs::Counter& explain_rows = obs::counter("predictor.explain.rows");
  obs::Counter& explain_edge_hits =
      obs::counter("predictor.explain.edge_hits");
  obs::Counter& explain_global_fallbacks =
      obs::counter("predictor.explain.global_fallbacks");
  obs::Counter& explain_calibrated =
      obs::counter("predictor.explain.calibrated");
  obs::Counter& explain_uncalibrated =
      obs::counter("predictor.explain.uncalibrated");
  obs::Histogram& explain_latency = obs::histogram(
      "predictor.explain.batch_us", obs::quantile_latency_bounds_us());
  // Model-load wall time, split into its two steps, once per load.
  obs::Histogram& load_parse = obs::histogram(
      "predictor.load.parse_us", obs::quantile_latency_bounds_us());
  obs::Histogram& load_compile = obs::histogram(
      "predictor.load.compile_us", obs::quantile_latency_bounds_us());
};

PredictorMetrics& predictor_metrics() {
  static PredictorMetrics metrics;
  return metrics;
}

/// Bucket bounds for the per-feature |contribution| histograms (MB/s
/// magnitudes, log-spaced 0.001..10000).
std::span<const double> attribution_bounds() {
  static const std::vector<double> bounds =
      obs::log_bucket_bounds(1.0e-3, 1.0e4, 1.6);
  return bounds;
}
}  // namespace

const char* PlannedTransfer::invalid_field() const {
  constexpr std::uint64_t kMaxEndpoint = 1u << 30;
  constexpr std::uint64_t kMaxCount = 1ull << 40;
  constexpr std::uint32_t kMaxStreams = 1u << 20;
  if (src > kMaxEndpoint) return "src";
  if (dst > kMaxEndpoint) return "dst";
  if (!(bytes >= 0.0) || !std::isfinite(bytes)) return "bytes";
  if (files < 1 || files > kMaxCount) return "files";
  if (dirs < 1 || dirs > kMaxCount) return "dirs";
  if (concurrency < 1 || concurrency > kMaxStreams) return "concurrency";
  if (parallelism < 1 || parallelism > kMaxStreams) return "parallelism";
  return nullptr;
}

TransferPredictor::TransferPredictor() : TransferPredictor(Options{}) {}

TransferPredictor::TransferPredictor(Options options)
    : options_(std::move(options)) {
  XFL_EXPECTS(options_.gbt.valid());
  XFL_EXPECTS(options_.threads >= 0);
}

/// Fill a model's empirical residual-ratio quantiles from training data,
/// predicting through `pool` when given.
void TransferPredictor::calibrate_interval(Model& model, const ml::Matrix& x,
                                           const std::vector<double>& y,
                                           ThreadPool* pool) {
  // One pass through the flattened batch engine instead of a per-row walk;
  // pooled and serial predicts are bit-identical.
  std::vector<double> predicted(x.rows());
  model.boosted->predict_batch(x, predicted, pool);
  std::vector<double> ratios;
  ratios.reserve(y.size());
  for (std::size_t r = 0; r < x.rows(); ++r)
    ratios.push_back(y[r] / std::max(0.01, predicted[r]));
  if (ratios.size() >= 10) {
    model.ratio_p10 = percentile(ratios, 10.0);
    model.ratio_p90 = percentile(ratios, 90.0);
    predictor_metrics().calibrated.add(1);
  } else {
    predictor_metrics().uncalibrated.add(1);
  }
}

void TransferPredictor::fit(const logs::LogStore& log) {
  XFL_EXPECTS(!log.empty());
  XFL_SPAN("predictor.fit");
  // One width for the whole fit: the contention sweep and the model
  // fan-out below (0 = hardware concurrency).
  const AnalysisContext context = analyze_log(log, options_.threads);

  features::DatasetOptions dataset_options;
  dataset_options.include_nflt = false;
  dataset_options.load_threshold = options_.load_threshold;

  // Task 0 is the global fallback over every edge in the log (the largest
  // model by far); tasks 1..n are the trainable edges, most used first.
  // parallel_for hands indices out dynamically, so this is largest-first
  // scheduling.
  const auto all_edges = context.log.edges_by_usage();
  std::vector<logs::EdgeKey> trainable;
  for (const auto& edge : all_edges) {
    if (context.log.edge_count(edge) < options_.min_edge_transfers) break;
    trainable.push_back(edge);
  }
  // The models match the serial fit at every width: each task owns its
  // slot and its seed, and each GBT fits on one thread.
  std::vector<Model> models(trainable.size() + 1);
  // The global dataset outlives its task: the global model, which ends
  // last, is calibrated on the whole pool once the fan-out has joined.
  features::Dataset global;
  auto fit_model = [&](std::size_t i) {
    features::Dataset edge;
    if (i == 0)
      global = features::build_global_dataset(context.log, context.contention,
                                              all_edges, context.capabilities,
                                              dataset_options);
    else
      edge = features::build_edge_dataset(context.log, context.contention,
                                          trainable[i - 1], dataset_options);
    const features::Dataset& dataset = i == 0 ? global : edge;
    if (i != 0 && dataset.rows() < options_.min_edge_transfers)
      return;  // Too few usable rows: the edge falls back to global.
    Model& model = models[i];
    model.feature_names = dataset.feature_names;
    ml::GbtConfig config = options_.gbt;
    config.seed = i == 0 ? options_.seed + 1 : options_.seed;
    auto boosted = std::make_shared<ml::GradientBoostedTrees>(config);
    boosted->fit(dataset.x, dataset.y);
    model.boosted = std::move(boosted);
    if (i != 0) calibrate_interval(model, dataset.x, dataset.y);
  };
  ThreadPool pool(static_cast<std::size_t>(options_.threads));
  pool.parallel_for(models.size(), fit_model);
  calibrate_interval(models[0], global.x, global.y, &pool);

  // Commit only after every model trained, so a throwing fit leaves the
  // predictor as it was.
  edge_models_.clear();
  for (std::size_t i = 1; i < models.size(); ++i)
    if (models[i].boosted)
      edge_models_.emplace(trainable[i - 1], std::move(models[i]));
  global_model_ = std::move(models[0]);
  capabilities_ = context.capabilities;
  fitted_ = true;
  auto& metrics = predictor_metrics();
  metrics.fits.add(1);
  metrics.edge_models.add(edge_models_.size());
  XFL_LOG(info) << "predictor fit complete"
                << obs::kv("records", log.size())
                << obs::kv("edge_models", edge_models_.size())
                << obs::kv("global_rows", global.rows())
                << obs::kv("kernel", serving_kernel());
}

void TransferPredictor::refit_edge(const logs::EdgeKey& edge,
                                   std::span<const EdgeSample> samples,
                                   std::span<const std::uint32_t> weights,
                                   const ml::GbtConfig& gbt) {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(samples.size() >= 2);
  XFL_EXPECTS(weights.empty() || weights.size() == samples.size());
  XFL_EXPECTS(gbt.valid());
  XFL_SPAN("predictor.refit_edge");

  Model model;
  model.feature_names = features::feature_row_names(/*include_nflt=*/false);
  ml::Matrix x(samples.size(), model.feature_names.size());
  std::vector<double> y;
  y.reserve(samples.size());
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const EdgeSample& sample = samples[r];
    XFL_EXPECTS(std::isfinite(sample.observed_mbps) &&
                sample.observed_mbps > 0.0);
    features::write_feature_row(sample.transfer, sample.load,
                                /*include_nflt=*/false, x.row(r));
    y.push_back(sample.observed_mbps);
  }

  auto boosted = std::make_shared<ml::GradientBoostedTrees>(gbt);
  boosted->fit(x, y, weights);
  model.boosted = std::move(boosted);
  calibrate_interval(model, x, y);
  edge_models_[edge] = std::move(model);

  XFL_LOG(info) << "predictor edge refit"
                << obs::kv("src", edge.src) << obs::kv("dst", edge.dst)
                << obs::kv("rows", samples.size())
                << obs::kv("weighted", weights.empty() ? 0 : 1)
                << obs::kv("trees", gbt.trees);
}

const char* TransferPredictor::serving_kernel() const {
  XFL_EXPECTS(fitted_);
  return ml::kernel_name(global_model_.boosted->flat().effective_kernel());
}

bool TransferPredictor::has_edge_model(const logs::EdgeKey& edge) const {
  return edge_models_.contains(edge);
}

const TransferPredictor::Model& TransferPredictor::model_for(
    const logs::EdgeKey& edge) const {
  const auto it = edge_models_.find(edge);
  return it != edge_models_.end() ? it->second : global_model_;
}

namespace {
const features::ContentionFeatures kIdle{};

/// Width of a dedicated edge model's feature row: every feature but Nflt.
constexpr std::size_t kEdgeWidth = features::kFeatureCount - 1;

/// A rate prediction is never non-positive.
double served_rate(double raw_mbps) { return std::max(raw_mbps, 0.01); }

/// The served rate for a raw model output, with the serving model's
/// empirical residual band around it.
RateInterval rate_band(double raw_mbps, double ratio_p10, double ratio_p90) {
  RateInterval band;
  band.expected_mbps = served_rate(raw_mbps);
  band.low_mbps = std::max(0.01, band.expected_mbps * ratio_p10);
  band.high_mbps = std::max(band.low_mbps, band.expected_mbps * ratio_p90);
  return band;
}
}  // namespace

template <typename Emit>
void TransferPredictor::serve_batch(
    std::span<const PlannedTransfer> transfers,
    std::span<const features::ContentionFeatures> loads, bool explain,
    Emit&& emit) const {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(loads.empty() || loads.size() == transfers.size());
  // Sort the row indices by (serving model, index): each model's rows
  // become one ascending run, and the groups come out in one fixed order.
  // Grouping only batches rows that share a model — every row is walked
  // independently, so the answers are bit-identical in any batch
  // composition.
  std::vector<const Model*> model_of(transfers.size());
  std::vector<std::size_t> order(transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    XFL_EXPECTS(transfers[i].bytes >= 0.0 && transfers[i].files >= 1);
    model_of[i] = &model_for({transfers[i].src, transfers[i].dst});
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (model_of[a] != model_of[b])
      return std::less<const Model*>{}(model_of[a], model_of[b]);
    return a < b;
  });

  auto& metrics = predictor_metrics();
  std::vector<double> raw;
  std::vector<double> bias;
  std::vector<double> contributions;
  for (std::size_t begin = 0; begin < order.size();) {
    const Model& model = *model_of[order[begin]];
    std::size_t end = begin + 1;
    while (end < order.size() && model_of[order[end]] == &model) ++end;
    const std::span<const std::size_t> indices(order.data() + begin,
                                               end - begin);
    begin = end;
    const bool dedicated = &model != &global_model_;
    if (explain)
      (dedicated ? metrics.explain_edge_hits : metrics.explain_global_fallbacks)
          .add(indices.size());
    else
      (dedicated ? metrics.edge_hits : metrics.global_fallbacks)
          .add(indices.size());

    // Raw feature rows are written straight into the group matrix; the
    // global fallback appends the endpoint capabilities, 0 for an endpoint
    // without history.
    const std::size_t cols = model.feature_names.size();
    XFL_EXPECTS(cols == kEdgeWidth + (dedicated ? 0 : 2));
    ml::Matrix x(indices.size(), cols);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const PlannedTransfer& transfer = transfers[indices[k]];
      const auto row = x.row(k);
      features::write_feature_row(transfer,
                                  loads.empty() ? kIdle : loads[indices[k]],
                                  /*include_nflt=*/false,
                                  row.first(kEdgeWidth));
      if (dedicated) continue;
      const auto* src = capability(transfer.src);
      const auto* dst = capability(transfer.dst);
      row[kEdgeWidth] = src ? to_mbps(src->ro_max_Bps) : 0.0;
      row[kEdgeWidth + 1] = dst ? to_mbps(dst->ri_max_Bps) : 0.0;
    }
    raw.resize(indices.size());
    if (explain) {
      bias.resize(indices.size());
      contributions.resize(indices.size() * cols);
      model.boosted->explain_batch(x, raw, bias, contributions);
    } else {
      model.boosted->predict_batch(x, raw);
    }
    emit(Group{model, dedicated, indices, raw, bias, contributions});
  }
}

double TransferPredictor::predict_rate_mbps(
    const PlannedTransfer& transfer,
    const features::ContentionFeatures& expected_load) const {
  return predict_rate_interval(transfer, expected_load).expected_mbps;
}

std::vector<double> TransferPredictor::predict_rates_mbps(
    std::span<const PlannedTransfer> transfers,
    std::span<const features::ContentionFeatures> expected_loads) const {
  XFL_SPAN("predictor.predict_batch");
  const std::uint64_t start_us = obs::monotonic_us();
  std::vector<double> rates(transfers.size());
  serve_batch(transfers, expected_loads, /*explain=*/false,
              [&](const Group& group) {
                for (std::size_t k = 0; k < group.indices.size(); ++k)
                  rates[group.indices[k]] = served_rate(group.raw[k]);
              });
  if (!transfers.empty())
    predictor_metrics().batch_latency.record(
        static_cast<double>(obs::monotonic_us() - start_us));
  return rates;
}

std::vector<RateExplanation> TransferPredictor::explain_rates_mbps(
    std::span<const PlannedTransfer> transfers,
    std::span<const features::ContentionFeatures> expected_loads) const {
  XFL_SPAN("predictor.explain_batch");
  const std::uint64_t start_us = obs::monotonic_us();
  std::vector<RateExplanation> out(transfers.size());
  auto& metrics = predictor_metrics();
  const auto emit = [&](const Group& group) {
    const Model& model = group.model;
    const bool calibrated = model.ratio_p10 != 1.0 || model.ratio_p90 != 1.0;
    (calibrated ? metrics.explain_calibrated : metrics.explain_uncalibrated)
        .add(group.indices.size());
    const std::size_t cols = model.feature_names.size();
    for (std::size_t k = 0; k < group.indices.size(); ++k) {
      RateExplanation& explanation = out[group.indices[k]];
      explanation.raw_mbps = group.raw[k];
      explanation.bias_mbps = group.bias[k];
      const RateInterval band =
          rate_band(group.raw[k], model.ratio_p10, model.ratio_p90);
      explanation.rate_mbps = band.expected_mbps;
      explanation.low_mbps = band.low_mbps;
      explanation.high_mbps = band.high_mbps;
      explanation.edge_model = group.dedicated;
      explanation.feature_names = model.feature_names;
      const auto row = group.contributions.subspan(k * cols, cols);
      explanation.contributions.assign(row.begin(), row.end());
    }
    // Rolling per-feature attribution magnitudes: one registry lookup per
    // feature per group (explain traffic is low-rate by design), then
    // lock-free records.
    for (std::size_t c = 0; c < cols; ++c) {
      auto& histogram = obs::histogram(
          "predictor.attribution." + model.feature_names[c],
          attribution_bounds());
      for (std::size_t k = 0; k < group.indices.size(); ++k)
        histogram.record(std::abs(group.contributions[k * cols + c]));
    }
  };
  serve_batch(transfers, expected_loads, /*explain=*/true, emit);
  if (transfers.empty()) return out;
  metrics.explain_rows.add(transfers.size());
  metrics.explain_latency.record(
      static_cast<double>(obs::monotonic_us() - start_us));
  return out;
}

RateInterval TransferPredictor::predict_rate_interval(
    const PlannedTransfer& transfer,
    const features::ContentionFeatures& expected_load) const {
  XFL_SPAN("predictor.predict");
  RateInterval interval;
  serve_batch({&transfer, 1}, {&expected_load, 1}, /*explain=*/false,
              [&](const Group& group) {
                interval = rate_band(group.raw[0], group.model.ratio_p10,
                                     group.model.ratio_p90);
              });
  return interval;
}

double TransferPredictor::estimate_duration_s(
    const PlannedTransfer& transfer,
    const features::ContentionFeatures& expected_load) const {
  const double rate_mbps = predict_rate_mbps(transfer, expected_load);
  return transfer.bytes / mbps(rate_mbps);
}

std::vector<std::pair<std::string, double>> TransferPredictor::explain(
    const logs::EdgeKey& edge) const {
  XFL_EXPECTS(fitted_);
  const Model& model = model_for(edge);
  const auto importance = model.boosted->feature_importance();
  std::vector<std::pair<std::string, double>> pairs;
  pairs.reserve(importance.size());
  for (std::size_t c = 0; c < importance.size(); ++c)
    pairs.emplace_back(model.feature_names[c], importance[c]);
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return pairs;
}

namespace {
constexpr const char* kPredictorMagic = "xfl-predictor-v2";

/// Sanity cap shared by every count field: a corrupted count must throw,
/// not drive a multi-gigabyte resize.
constexpr std::size_t kMaxPredictorEntries = 1u << 20;
}  // namespace

void TransferPredictor::save_model(std::string& out, const char* label,
                                   const Model& model) {
  out += label;
  out += '\n';
  append_number(out, model.feature_names.size());
  for (const auto& name : model.feature_names) {
    out += ' ';
    out += name;
  }
  out += '\n';
  append_line(out, model.ratio_p10, model.ratio_p90);
  model.boosted->save(out);
}

TransferPredictor::Model TransferPredictor::parse_model(
    TokenReader& in, const std::string& label, Uncompiled& uncompiled) {
  auto fail = [&label](const std::string& what) -> void {
    throw std::runtime_error("TransferPredictor::load (" + label +
                             "): " + what);
  };
  const std::string_view seen = in.token();
  if (seen != label) fail("expected label, saw '" + std::string(seen) + "'");
  Model model;
  std::size_t name_count = 0;
  if (!in.read(name_count) || name_count == 0 ||
      name_count > kMaxPredictorEntries || !in.fits(name_count, 1))
    fail("implausible feature-name count");
  model.feature_names.resize(name_count);
  for (auto& name : model.feature_names) name = in.token();
  if (!in.read(model.ratio_p10, model.ratio_p90))
    fail("truncated residual band");
  auto boosted = std::make_shared<ml::GradientBoostedTrees>(
      ml::GradientBoostedTrees::parse(in));
  if (boosted->feature_count() != name_count)
    fail("feature count does not match the model's trees");
  model.boosted = boosted;
  uncompiled.push_back(std::move(boosted));
  return model;
}

void TransferPredictor::save(std::ostream& out) const {
  XFL_EXPECTS(fitted_);
  // Written a model at a time, so the buffer holds one model's text.
  std::string text = kPredictorMagic;
  text += '\n';
  append_line(text, options_.min_edge_transfers, options_.load_threshold);

  append_line(text, capabilities_.size());
  for (const auto& [endpoint, capability] : capabilities_)
    append_line(text, endpoint, capability.dr_max_Bps, capability.dw_max_Bps,
                capability.ro_max_Bps, capability.ri_max_Bps);

  append_line(text, edge_models_.size());
  for (const auto& [edge, model] : edge_models_) {
    append_line(text, edge.src, edge.dst);
    save_model(text, "edge-model", model);
    out << text;
    text.clear();
  }
  save_model(text, "global-model", global_model_);
  out << text;
}

TransferPredictor TransferPredictor::load(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  TokenReader reader(text.view());
  return load(reader);
}

TransferPredictor TransferPredictor::load(TokenReader& in) {
  XFL_SPAN("predictor.load");
  auto& metrics = predictor_metrics();
  const std::uint64_t start_us = obs::monotonic_us();
  TransferPredictor predictor;
  Uncompiled uncompiled;
  {
    XFL_SPAN("predictor.load.parse");
    uncompiled = predictor.parse(in);
  }
  const std::uint64_t parsed_us = obs::monotonic_us();
  metrics.load_parse.record(static_cast<double>(parsed_us - start_us));
  {
    XFL_SPAN("predictor.load.compile");
    // On the calling thread, in file order: a load also runs beside the
    // serve shards (hot reload), and compile scratch on pool workers would
    // stay resident in their malloc arenas (DESIGN §7).
    for (const auto& boosted : uncompiled)
      boosted->install_flat(boosted->compile_flat());
  }
  metrics.load_compile.record(
      static_cast<double>(obs::monotonic_us() - parsed_us));
  predictor.fitted_ = true;
  return predictor;
}

TransferPredictor::Uncompiled TransferPredictor::parse(TokenReader& in) {
  auto fail = [](const std::string& what) -> void {
    throw std::runtime_error("TransferPredictor::load: " + what);
  };
  const std::string_view magic = in.token();
  if (magic != kPredictorMagic) fail("bad magic '" + std::string(magic) + "'");
  if (!in.read(options_.min_edge_transfers, options_.load_threshold))
    fail("truncated options");

  std::size_t capability_count = 0;
  if (!in.read(capability_count) || capability_count > kMaxPredictorEntries)
    fail("implausible capability count");
  for (std::size_t i = 0; i < capability_count; ++i) {
    endpoint::EndpointId endpoint = 0;
    features::EndpointCapability capability;
    if (!in.read(endpoint, capability.dr_max_Bps, capability.dw_max_Bps,
                 capability.ro_max_Bps, capability.ri_max_Bps))
      fail("truncated capability block");
    capabilities_[endpoint] = capability;
  }

  std::size_t edge_count = 0;
  if (!in.read(edge_count) || edge_count > kMaxPredictorEntries)
    fail("implausible edge-model count");
  Uncompiled uncompiled;
  for (std::size_t i = 0; i < edge_count; ++i) {
    logs::EdgeKey edge;
    if (!in.read(edge.src, edge.dst)) fail("truncated edge key");
    if (edge_models_.contains(edge))
      fail("duplicate edge model " + std::to_string(edge.src) + " " +
           std::to_string(edge.dst));
    edge_models_.emplace(edge, parse_model(in, "edge-model", uncompiled));
  }
  global_model_ = parse_model(in, "global-model", uncompiled);
  return uncompiled;
}

namespace {
/// fsync the file at `path`; returns false on open or sync failure.
bool sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}
}  // namespace

void TransferPredictor::save_file(const std::string& path) const {
  XFL_EXPECTS(fitted_);
  // Write-to-temp + fsync + atomic rename + parent-directory fsync:
  // readers see the old complete file or the new complete file, a failed
  // save leaves any existing model untouched, and a crash after return
  // cannot surface a zero-length temp promoted over a good model (the
  // rename must not be reordered ahead of the data reaching disk). The
  // pid suffix keeps concurrent writers from clobbering each other's
  // temp files.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
      throw std::runtime_error("TransferPredictor::save_file: cannot write " +
                               tmp);
    save(out);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error(
          "TransferPredictor::save_file: write failed for " + tmp);
    }
  }
  if (!sync_file(tmp)) {
    std::remove(tmp.c_str());
    throw std::runtime_error("TransferPredictor::save_file: cannot fsync " +
                             tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("TransferPredictor::save_file: cannot rename " +
                             tmp + " to " + path);
  }
  // Durability of the rename itself: sync the directory entry. "." covers
  // bare filenames saved into the working directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  if (!sync_file(dir))
    throw std::runtime_error(
        "TransferPredictor::save_file: cannot fsync directory " + dir);
}

TransferPredictor TransferPredictor::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  if (!in || size < 0)
    throw std::runtime_error("TransferPredictor::load_file: cannot open " +
                             path);
  // The text is read into pages mapped for this load alone: freeing a
  // model-sized malloc block would raise glibc's dynamic mmap threshold,
  // and later mid-size allocations would then stay resident.
  const auto bytes = static_cast<std::size_t>(size) + 1;
  void* const pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  const auto unmap = [bytes](void* p) {
    if (p != MAP_FAILED) ::munmap(p, bytes);
  };
  const std::unique_ptr<void, decltype(unmap)> owner(pages, unmap);
  char* const text = static_cast<char*>(pages);
  if (pages == MAP_FAILED || !in.seekg(0).read(text, size))
    throw std::runtime_error("TransferPredictor::load_file: cannot read " +
                             path);
  TokenReader reader(std::string_view(text, static_cast<std::size_t>(size)));
  return load(reader);
}

const features::EndpointCapability* TransferPredictor::capability(
    endpoint::EndpointId endpoint) const {
  const auto it = capabilities_.find(endpoint);
  return it == capabilities_.end() ? nullptr : &it->second;
}

}  // namespace xfl::core
