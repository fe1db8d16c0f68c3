#include "features/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace xfl::features {

std::vector<std::string> feature_row_names(bool include_nflt) {
  std::vector<std::string> names;
  names.reserve(kFeatureCount);
  for (std::size_t c = 0; c < kFeatureCount; ++c) {
    if (!include_nflt && c == static_cast<std::size_t>(FeatureId::kNflt))
      continue;
    names.emplace_back(kFeatureNames[c]);
  }
  return names;
}

Dataset Dataset::select_features(const std::vector<bool>& keep) const {
  XFL_EXPECTS(keep.size() == feature_names.size());
  Dataset out;
  out.x = x.select_columns(keep);
  out.y = y;
  out.record_indices = record_indices;
  for (std::size_t c = 0; c < keep.size(); ++c)
    if (keep[c]) out.feature_names.push_back(feature_names[c]);
  return out;
}

Dataset build_edge_dataset(const logs::LogStore& log,
                           const std::vector<ContentionFeatures>& contention,
                           const logs::EdgeKey& edge,
                           const DatasetOptions& options) {
  XFL_EXPECTS(contention.size() == log.size());
  const auto indices = log.edge_transfers(edge);
  XFL_EXPECTS(!indices.empty());
  const double min_rate =
      options.load_threshold > 0.0
          ? options.load_threshold * log.edge_max_rate(edge)
          : 0.0;

  Dataset dataset;
  dataset.feature_names = feature_row_names(options.include_nflt);
  // Sized once for every row the load filter could keep: a matrix grown by
  // doubling frees ever larger blocks, which raises glibc's dynamic mmap
  // and trim thresholds and leaves a fit's freed memory resident.
  dataset.x.reserve(indices.size(), dataset.cols());
  std::vector<double> row(dataset.cols());
  for (const std::size_t i : indices) {
    const auto& record = log[i];
    const double rate = record.rate_Bps();
    if (rate < min_rate) continue;
    write_feature_row(record, contention[i], options.include_nflt, row);
    dataset.x.push_row(row);
    dataset.y.push_back(to_mbps(rate));
    dataset.record_indices.push_back(i);
  }
  return dataset;
}

Dataset build_global_dataset(
    const logs::LogStore& log,
    const std::vector<ContentionFeatures>& contention,
    const std::vector<logs::EdgeKey>& edges,
    const std::map<endpoint::EndpointId, EndpointCapability>& capabilities,
    const DatasetOptions& options) {
  XFL_EXPECTS(contention.size() == log.size());
  XFL_EXPECTS(!edges.empty());
  Dataset dataset;
  dataset.feature_names = feature_row_names(options.include_nflt);
  const std::size_t base = dataset.cols();
  dataset.feature_names.emplace_back("ROmax_src");
  dataset.feature_names.emplace_back("RImax_dst");
  if (options.edge_rtt_s != nullptr)
    dataset.feature_names.emplace_back("RTT");

  std::size_t transfers = 0;  // Sized once, as in build_edge_dataset.
  for (const auto& edge : edges) transfers += log.edge_count(edge);
  dataset.x.reserve(transfers, dataset.cols());
  std::vector<double> row(dataset.cols());
  for (const auto& edge : edges) {
    const auto indices = log.edge_transfers(edge);
    if (indices.empty()) continue;
    const double min_rate =
        options.load_threshold > 0.0
            ? options.load_threshold * log.edge_max_rate(edge)
            : 0.0;
    double rtt_s = 0.0;
    if (options.edge_rtt_s != nullptr) {
      const auto rtt_it = options.edge_rtt_s->find(edge);
      XFL_EXPECTS(rtt_it != options.edge_rtt_s->end());
      rtt_s = rtt_it->second;
    }
    for (const std::size_t i : indices) {
      const auto& record = log[i];
      const double rate = record.rate_Bps();
      if (rate < min_rate) continue;
      write_feature_row(record, contention[i], options.include_nflt,
                        std::span(row).first(base));
      const auto src_it = capabilities.find(record.src);
      const auto dst_it = capabilities.find(record.dst);
      XFL_EXPECTS(src_it != capabilities.end() &&
                  dst_it != capabilities.end());
      row[base] = to_mbps(src_it->second.ro_max_Bps);
      row[base + 1] = to_mbps(dst_it->second.ri_max_Bps);
      if (options.edge_rtt_s != nullptr) row[base + 2] = rtt_s;
      dataset.x.push_row(row);
      dataset.y.push_back(to_mbps(rate));
      dataset.record_indices.push_back(i);
    }
  }
  return dataset;
}

std::vector<bool> variance_mask(const ml::Matrix& x) {
  // Modal share at or above which a column counts as constant.
  constexpr double kModeThreshold = 0.97;
  constexpr double kEpsilon = 1.0e-12;
  std::vector<bool> keep(x.cols());
  for (std::size_t c = 0; c < x.cols(); ++c) {
    auto column = x.column(c);
    // Modal share: sort and find the longest run of equal values.
    std::sort(column.begin(), column.end());
    std::size_t mode_count = 0, run = 1;
    for (std::size_t i = 1; i < column.size(); ++i) {
      if (column[i] == column[i - 1]) {
        ++run;
      } else {
        mode_count = std::max(mode_count, run);
        run = 1;
      }
    }
    mode_count = std::max(mode_count, run);
    const double mode_fraction =
        column.empty() ? 1.0
                       : static_cast<double>(mode_count) /
                             static_cast<double>(column.size());
    const double sd = stddev(column);
    const double scale = std::fabs(mean(column)) + kEpsilon;
    keep[c] = mode_fraction < kModeThreshold && sd > 0.01 * scale;
  }
  return keep;
}

void write_dataset_csv(const Dataset& dataset, std::ostream& out) {
  CsvWriter writer(out);
  CsvRow header(dataset.feature_names.begin(), dataset.feature_names.end());
  header.push_back("rate_mbps");
  writer.write_row(header);
  std::vector<double> row(dataset.cols() + 1);
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    for (std::size_t c = 0; c < dataset.cols(); ++c)
      row[c] = dataset.x.at(r, c);
    row[dataset.cols()] = dataset.y[r];
    writer.write_row(row);
  }
}

Dataset read_dataset_csv(std::istream& in) {
  CsvReader csv(in);
  if (!csv.next()) throw std::runtime_error("read_dataset_csv: empty input");
  const auto header = std::vector(csv.row().begin(), csv.row().end());
  if (header.size() < 2 || header.back() != "rate_mbps")
    throw std::runtime_error(
        "read_dataset_csv: last column must be rate_mbps");
  Dataset dataset;
  dataset.feature_names.assign(header.begin(), header.end() - 1);
  std::vector<double> values(header.size());
  for (std::size_t r = 1; csv.next(); ++r) {
    const auto row = csv.row();
    if (row.size() != header.size())
      throw std::runtime_error("read_dataset_csv: bad column count in row " +
                               std::to_string(r));
    for (std::size_t c = 0; c < row.size(); ++c)
      parse_csv_field(row[c], values[c], "read_dataset_csv", r, header[c]);
    dataset.x.push_row(std::span(values).first(dataset.cols()));
    dataset.y.push_back(values.back());
    dataset.record_indices.push_back(r - 1);
  }
  return dataset;
}

TrainTestSplit split_dataset(const Dataset& dataset, double train_fraction,
                             std::uint64_t seed) {
  XFL_EXPECTS(train_fraction > 0.0 && train_fraction < 1.0);
  XFL_EXPECTS(dataset.rows() >= 2);
  Rng rng(seed);
  const auto permutation = rng.permutation(dataset.rows());
  const auto train_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(train_fraction * static_cast<double>(dataset.rows()))));
  std::vector<std::size_t> train_rows(permutation.begin(),
                                      permutation.begin() + train_count);
  std::vector<std::size_t> test_rows(permutation.begin() + train_count,
                                     permutation.end());
  if (test_rows.empty()) {
    test_rows.push_back(train_rows.back());
    train_rows.pop_back();
  }

  auto subset = [&dataset](const std::vector<std::size_t>& rows) {
    Dataset out;
    out.feature_names = dataset.feature_names;
    out.x = dataset.x.select_rows(rows);
    out.y.reserve(rows.size());
    out.record_indices.reserve(rows.size());
    for (const std::size_t r : rows) {
      out.y.push_back(dataset.y[r]);
      out.record_indices.push_back(dataset.record_indices[r]);
    }
    return out;
  };
  return {subset(train_rows), subset(test_rows)};
}

}  // namespace xfl::features
