#include "core/lmt_model.hpp"

#include <algorithm>
#include <span>

#include "common/contracts.hpp"
#include "core/pipeline.hpp"
#include "features/contention.hpp"
#include "ml/metrics.hpp"

namespace xfl::core {

namespace {

/// Mean of one EndpointSample field over samples falling in [t0, t1].
template <typename Extract>
double window_mean(const std::vector<sim::EndpointSample>& samples, double t0,
                   double t1, Extract&& extract) {
  auto first = std::lower_bound(
      samples.begin(), samples.end(), t0,
      [](const sim::EndpointSample& s, double t) { return s.time_s < t; });
  double sum = 0.0;
  std::size_t count = 0;
  for (auto it = first; it != samples.end() && it->time_s <= t1; ++it) {
    sum += extract(*it);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// True for the controlled test transfers of make_nersc_lmt.
bool is_test_transfer(std::uint64_t id) {
  return id >= sim::kLmtTestFirstId && id < sim::kLmtLoadFirstId;
}

/// Held-out XGB error on a 70/30 split: (mdape, p95 APE).
std::pair<double, double> evaluate(const features::Dataset& dataset,
                                   const LmtStudyConfig& config) {
  ml::GbtConfig gbt_config = config.gbt;
  gbt_config.seed = config.seed + 1;
  const auto fit =
      fit_holdout(dataset, config.seed, gbt_config, /*with_linear=*/false);
  return {ml::mdape(fit.actual, fit.xgb_predictions),
          ml::percentile_ape(fit.actual, fit.xgb_predictions, 95.0)};
}

}  // namespace

LmtStudyReport run_lmt_study(const sim::SimResult& result,
                             endpoint::EndpointId src,
                             endpoint::EndpointId dst,
                             const LmtStudyConfig& config) {
  const auto src_samples = result.samples.find(src);
  const auto dst_samples = result.samples.find(dst);
  XFL_EXPECTS(src_samples != result.samples.end());
  XFL_EXPECTS(dst_samples != result.samples.end());

  // Contention features over the *whole* log (test + load transfers); the
  // dataset then keeps only the controlled test transfers.
  const auto contention = features::compute_contention(result.log);
  features::DatasetOptions options;
  options.include_nflt = false;
  options.load_threshold = 0.0;  // Controlled experiment: keep everything.

  std::size_t test_transfers = 0;
  for (std::size_t i = 0; i < result.log.size(); ++i)
    if (is_test_transfer(result.log[i].id)) ++test_transfers;
  XFL_EXPECTS(test_transfers >= 50);

  // Baseline dataset: the 15 predictive features for test transfers only.
  const auto full = features::build_edge_dataset(
      result.log, contention, logs::EdgeKey{src, dst}, options);
  std::vector<std::size_t> keep_rows;
  for (std::size_t r = 0; r < full.rows(); ++r)
    if (is_test_transfer(result.log[full.record_indices[r]].id))
      keep_rows.push_back(r);
  features::Dataset baseline;
  baseline.feature_names = full.feature_names;
  baseline.x = full.x.select_rows(keep_rows);
  for (const std::size_t r : keep_rows) {
    baseline.y.push_back(full.y[r]);
    baseline.record_indices.push_back(full.record_indices[r]);
  }

  // Augmented dataset: + src OSS CPU, dst OSS CPU, src OST read, dst OST
  // write (window means of the monitor series).
  features::Dataset augmented = baseline;
  augmented.feature_names.emplace_back("OSS_cpu_src");
  augmented.feature_names.emplace_back("OSS_cpu_dst");
  augmented.feature_names.emplace_back("OST_read_src");
  augmented.feature_names.emplace_back("OST_write_dst");
  ml::Matrix x(augmented.rows(), baseline.cols() + 4);
  for (std::size_t r = 0; r < augmented.rows(); ++r) {
    const auto& record = result.log[augmented.record_indices[r]];
    const double t0 = record.start_s;
    const double t1 = record.end_s;
    for (std::size_t c = 0; c < baseline.cols(); ++c)
      x.at(r, c) = baseline.x.at(r, c);
    x.at(r, baseline.cols() + 0) =
        window_mean(src_samples->second, t0, t1,
                    [](const sim::EndpointSample& s) { return s.cpu_load; });
    x.at(r, baseline.cols() + 1) =
        window_mean(dst_samples->second, t0, t1,
                    [](const sim::EndpointSample& s) { return s.cpu_load; });
    x.at(r, baseline.cols() + 2) = window_mean(
        src_samples->second, t0, t1,
        [](const sim::EndpointSample& s) { return s.disk_read_Bps; });
    x.at(r, baseline.cols() + 3) = window_mean(
        dst_samples->second, t0, t1,
        [](const sim::EndpointSample& s) { return s.disk_write_Bps; });
  }
  augmented.x = std::move(x);

  LmtStudyReport report;
  report.test_transfers = baseline.rows();
  std::tie(report.baseline_mdape, report.baseline_p95) =
      evaluate(baseline, config);
  std::tie(report.augmented_mdape, report.augmented_p95) =
      evaluate(augmented, config);
  return report;
}

}  // namespace xfl::core
