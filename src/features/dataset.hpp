// Dataset assembly: turn a transfer log plus contention features into the
// regression matrices of §5.
//
// Columns follow the Fig. 9 / Fig. 12 order exactly:
//   Ksout Kdin C P Ssout Ssin Sdout Sdin Ksin Kdout Nd Nb Nflt Gsrc Gdst Nf
// Nflt is included only for explanation models (§4: "we use it for
// explanation ... but not prediction"). Rates (the target and the K
// features) are expressed in MB/s.
#pragma once

#include <array>
#include <iosfwd>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "features/contention.hpp"
#include "features/endpoint_stats.hpp"
#include "logs/log_store.hpp"
#include "ml/matrix.hpp"

namespace xfl::features {

/// Canonical feature columns (Fig. 9 order).
enum class FeatureId : std::size_t {
  kKsout = 0,
  kKdin,
  kC,
  kP,
  kSsout,
  kSsin,
  kSdout,
  kSdin,
  kKsin,
  kKdout,
  kNd,
  kNb,
  kNflt,
  kGsrc,
  kGdst,
  kNf,
};

inline constexpr std::array<const char*, 16> kFeatureNames = {
    "Ksout", "Kdin",  "C",  "P",  "Ssout", "Ssin", "Sdout", "Sdin",
    "Ksin",  "Kdout", "Nd", "Nb", "Nflt",  "Gsrc", "Gdst",  "Nf"};

/// Number of model features including Nflt.
inline constexpr std::size_t kFeatureCount = 16;

/// The names of write_feature_row's columns: kFeatureNames, without Nflt
/// unless `include_nflt`.
std::vector<std::string> feature_row_names(bool include_nflt);

/// Write one transfer's feature row, in feature_row_names(include_nflt)
/// order, into `out`, which must be exactly that wide. The one writer of
/// the column order and units: the dataset builders pass a logged
/// logs::TransferRecord, the predictor a planned core::PlannedTransfer
/// (both carry bytes, files, dirs, concurrency and parallelism). Nflt
/// reads `faults`, which only a logged record has.
template <class Transfer>
void write_feature_row(const Transfer& transfer,
                       const ContentionFeatures& load, bool include_nflt,
                       std::span<double> out) {
  XFL_EXPECTS(out.size() == (include_nflt ? kFeatureCount : kFeatureCount - 1));
  const auto column = [&out](FeatureId id) -> double& {
    return out[static_cast<std::size_t>(id)];
  };
  column(FeatureId::kKsout) = to_mbps(load.k_sout);
  column(FeatureId::kKdin) = to_mbps(load.k_din);
  column(FeatureId::kC) = static_cast<double>(transfer.concurrency);
  column(FeatureId::kP) = static_cast<double>(transfer.parallelism);
  column(FeatureId::kSsout) = load.s_sout;
  column(FeatureId::kSsin) = load.s_sin;
  column(FeatureId::kSdout) = load.s_dout;
  column(FeatureId::kSdin) = load.s_din;
  column(FeatureId::kKsin) = to_mbps(load.k_sin);
  column(FeatureId::kKdout) = to_mbps(load.k_dout);
  column(FeatureId::kNd) = static_cast<double>(transfer.dirs);
  column(FeatureId::kNb) = transfer.bytes;
  // The columns after Nflt shift left by one when it is left out.
  auto c = static_cast<std::size_t>(FeatureId::kNflt);
  if constexpr (requires { transfer.faults; }) {
    if (include_nflt) out[c++] = static_cast<double>(transfer.faults);
  } else {
    XFL_EXPECTS(!include_nflt);  // Faults are known only after the fact.
  }
  out[c++] = load.g_src;
  out[c++] = load.g_dst;
  out[c] = static_cast<double>(transfer.files);
}

/// Options controlling dataset construction.
struct DatasetOptions {
  /// Keep Nflt as a column (explanation models only).
  bool include_nflt = false;
  /// Keep only transfers with rate >= load_threshold * Rmax(edge)
  /// (§4.3.2's unknown-load mitigation). 0 disables the filter. For the
  /// global dataset the threshold applies per edge.
  double load_threshold = 0.5;
  /// Optional per-edge round-trip time map. When set, the global dataset
  /// gains an "RTT" column — the extension §5.4 names as future work
  /// ("we will incorporate round-trip times for each edge, which we
  /// expect to reduce errors further"). Ignored by per-edge datasets
  /// (RTT is constant within an edge). Not owned; must outlive the call.
  const std::map<logs::EdgeKey, double>* edge_rtt_s = nullptr;
};

/// A feature matrix with aligned targets and provenance.
struct Dataset {
  std::vector<std::string> feature_names;
  ml::Matrix x;                              ///< Raw (unstandardised) features.
  std::vector<double> y;                     ///< Transfer rate, MB/s.
  std::vector<std::size_t> record_indices;   ///< Rows -> log record index.

  std::size_t rows() const { return y.size(); }
  std::size_t cols() const { return feature_names.size(); }

  /// New dataset keeping only the flagged columns.
  Dataset select_features(const std::vector<bool>& keep) const;
};

/// Build the per-edge dataset of §5.1/§5.2. `contention` must be parallel
/// to log.records(). Requires the edge to have at least one transfer.
Dataset build_edge_dataset(const logs::LogStore& log,
                           const std::vector<ContentionFeatures>& contention,
                           const logs::EdgeKey& edge,
                           const DatasetOptions& options = {});

/// Build the pooled multi-edge dataset of §5.4 with the two endpoint
/// capability columns "ROmax_src" and "RImax_dst" appended (Eq. 5).
Dataset build_global_dataset(
    const logs::LogStore& log,
    const std::vector<ContentionFeatures>& contention,
    const std::vector<logs::EdgeKey>& edges,
    const std::map<endpoint::EndpointId, EndpointCapability>& capabilities,
    const DatasetOptions& options = {});

/// Identify near-constant columns (the paper eliminates C and P per edge
/// "because they do not vary greatly"). A column is eliminated when the
/// most common value accounts for at least 97% of the samples (discrete
/// tunables that almost never change), or when its coefficient of
/// variation is below 1% (numerically constant). Returns one flag per
/// column, true = keep.
std::vector<bool> variance_mask(const ml::Matrix& x);

/// Write a dataset as CSV (header: feature names + "rate_mbps"), the
/// format of the paper's published (anonymised) train/test data. Read
/// back with read_dataset_csv; feature names round-trip.
void write_dataset_csv(const Dataset& dataset, std::ostream& out);

/// Parse a dataset written by write_dataset_csv. record_indices are not
/// persisted (they reference a log the CSV reader does not have) and come
/// back as 0..n-1. Throws std::runtime_error on malformed input.
Dataset read_dataset_csv(std::istream& in);

/// 70/30-style random split (paper: "we randomly select 70% of the log
/// data to train the model and the other 30% to test").
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};
TrainTestSplit split_dataset(const Dataset& dataset, double train_fraction,
                             std::uint64_t seed);

}  // namespace xfl::features
