#include "features/dataset.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "features/endpoint_stats.hpp"

namespace xfl::features {
namespace {

logs::TransferRecord make_record(std::uint64_t id, endpoint::EndpointId src,
                                 endpoint::EndpointId dst, double start,
                                 double duration, double bytes) {
  logs::TransferRecord r;
  r.id = id;
  r.src = src;
  r.dst = dst;
  r.start_s = start;
  r.end_s = start + duration;
  r.bytes = bytes;
  r.files = 10;
  r.dirs = 2;
  r.concurrency = 4;
  r.parallelism = 2;
  r.faults = id % 3 == 0 ? 1 : 0;
  return r;
}

logs::LogStore small_log() {
  logs::LogStore log;
  Rng rng(5);
  for (std::uint64_t i = 1; i <= 60; ++i) {
    const double start = rng.uniform(0.0, 500.0);
    log.append(make_record(i, 0, 1, start, rng.uniform(5.0, 50.0),
                           rng.uniform(1.0e8, 1.0e10)));
  }
  // A second edge for global-model coverage.
  for (std::uint64_t i = 61; i <= 100; ++i) {
    const double start = rng.uniform(0.0, 500.0);
    log.append(make_record(i, 1, 2, start, rng.uniform(5.0, 50.0),
                           rng.uniform(1.0e8, 1.0e10)));
  }
  return log;
}

TEST(Dataset, EdgeDatasetShapeAndNames) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  DatasetOptions options;
  options.load_threshold = 0.0;
  const auto dataset = build_edge_dataset(log, contention, {0, 1}, options);
  EXPECT_EQ(dataset.rows(), 60u);
  EXPECT_EQ(dataset.cols(), 15u);  // Nflt excluded by default.
  // Fig. 9 order, minus Nflt.
  EXPECT_EQ(dataset.feature_names.front(), "Ksout");
  EXPECT_EQ(dataset.feature_names.back(), "Nf");
  for (const auto& name : dataset.feature_names) EXPECT_NE(name, "Nflt");
}

TEST(Dataset, IncludeNfltAddsColumn) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  DatasetOptions options;
  options.load_threshold = 0.0;
  options.include_nflt = true;
  const auto dataset = build_edge_dataset(log, contention, {0, 1}, options);
  EXPECT_EQ(dataset.cols(), 16u);
  EXPECT_EQ(dataset.feature_names[12], "Nflt");
}

TEST(Dataset, TargetsAreRatesInMbps) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  DatasetOptions options;
  options.load_threshold = 0.0;
  const auto dataset = build_edge_dataset(log, contention, {0, 1}, options);
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    const auto& record = log[dataset.record_indices[r]];
    EXPECT_DOUBLE_EQ(dataset.y[r], to_mbps(record.rate_Bps()));
  }
}

TEST(Dataset, ThresholdFilterDropsSlowTransfers) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  DatasetOptions options;
  options.load_threshold = 0.5;
  const auto dataset = build_edge_dataset(log, contention, {0, 1}, options);
  const double cutoff = 0.5 * log.edge_max_rate({0, 1});
  EXPECT_LT(dataset.rows(), 60u);
  for (std::size_t r = 0; r < dataset.rows(); ++r)
    EXPECT_GE(log[dataset.record_indices[r]].rate_Bps(), cutoff);
}

TEST(Dataset, FeatureValuesMatchRecords) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  DatasetOptions options;
  options.load_threshold = 0.0;
  const auto dataset = build_edge_dataset(log, contention, {0, 1}, options);
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    const auto& record = log[dataset.record_indices[r]];
    const auto& features = contention[dataset.record_indices[r]];
    EXPECT_DOUBLE_EQ(dataset.x.at(r, 0), to_mbps(features.k_sout));
    EXPECT_DOUBLE_EQ(dataset.x.at(r, 2), record.concurrency);
    EXPECT_DOUBLE_EQ(dataset.x.at(r, 11), record.bytes);
    EXPECT_DOUBLE_EQ(dataset.x.at(r, 14), static_cast<double>(record.files));
  }
}

TEST(Dataset, GlobalDatasetAppendsCapabilities) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  const auto capabilities = estimate_capabilities(log, contention);
  DatasetOptions options;
  options.load_threshold = 0.0;
  const auto dataset = build_global_dataset(
      log, contention, {{0, 1}, {1, 2}}, capabilities, options);
  EXPECT_EQ(dataset.rows(), 100u);
  EXPECT_EQ(dataset.cols(), 17u);
  EXPECT_EQ(dataset.feature_names[15], "ROmax_src");
  EXPECT_EQ(dataset.feature_names[16], "RImax_dst");
  // Capability columns are per-endpoint constants.
  std::set<double> ro_values;
  for (std::size_t r = 0; r < 60; ++r) ro_values.insert(dataset.x.at(r, 15));
  EXPECT_EQ(ro_values.size(), 1u);
}

TEST(Dataset, SelectFeaturesSubsets) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  DatasetOptions options;
  options.load_threshold = 0.0;
  const auto dataset = build_edge_dataset(log, contention, {0, 1}, options);
  std::vector<bool> keep(dataset.cols(), false);
  keep[2] = true;  // C
  keep[11] = true; // Nb
  const auto reduced = dataset.select_features(keep);
  EXPECT_EQ(reduced.cols(), 2u);
  EXPECT_EQ(reduced.feature_names[0], "C");
  EXPECT_EQ(reduced.feature_names[1], "Nb");
  EXPECT_EQ(reduced.rows(), dataset.rows());
  EXPECT_DOUBLE_EQ(reduced.x.at(3, 1), dataset.x.at(3, 11));
}

TEST(Dataset, GlobalDatasetOptionalRttColumn) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  const auto capabilities = estimate_capabilities(log, contention);
  std::map<logs::EdgeKey, double> rtt = {{{0, 1}, 0.021}, {{1, 2}, 0.105}};
  DatasetOptions options;
  options.load_threshold = 0.0;
  options.edge_rtt_s = &rtt;
  const auto dataset = build_global_dataset(
      log, contention, {{0, 1}, {1, 2}}, capabilities, options);
  ASSERT_EQ(dataset.cols(), 18u);
  EXPECT_EQ(dataset.feature_names.back(), "RTT");
  // The RTT column is constant per edge and matches the supplied map.
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    const auto& record = log[dataset.record_indices[r]];
    const double expected = record.src == 0 ? 0.021 : 0.105;
    EXPECT_DOUBLE_EQ(dataset.x.at(r, 17), expected);
  }
}

TEST(Dataset, GlobalDatasetRttRequiresCompleteMap) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  const auto capabilities = estimate_capabilities(log, contention);
  std::map<logs::EdgeKey, double> rtt = {{{0, 1}, 0.021}};  // Missing {1,2}.
  DatasetOptions options;
  options.load_threshold = 0.0;
  options.edge_rtt_s = &rtt;
  EXPECT_THROW(build_global_dataset(log, contention, {{0, 1}, {1, 2}},
                                    capabilities, options),
               xfl::ContractViolation);
}

TEST(Dataset, CsvRejectsPartNumbers) {
  std::stringstream good("Nb,rate_mbps\n1.5,2\n");
  const auto loaded = read_dataset_csv(good);
  ASSERT_EQ(loaded.rows(), 1u);
  EXPECT_EQ(loaded.y[0], 2.0);
  std::stringstream bad("Nb,rate_mbps\n1.5,2\n3,2x\n");
  try {
    read_dataset_csv(bad);
    ADD_FAILURE() << "'2x' was read as a rate";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    EXPECT_NE(what.find("column 'rate_mbps'"), std::string::npos) << what;
  }
}

TEST(VarianceMask, DropsConstantKeepsVarying) {
  ml::Matrix x(50, 3);
  Rng rng(9);
  for (std::size_t i = 0; i < 50; ++i) {
    x.at(i, 0) = 4.0;                      // Constant (like C).
    x.at(i, 1) = rng.uniform(0.0, 100.0);  // Strongly varying.
    x.at(i, 2) = 100.0 + rng.uniform(-0.5, 0.5);  // Numerically constant.
  }
  const auto keep = variance_mask(x);
  EXPECT_FALSE(keep[0]);
  EXPECT_TRUE(keep[1]);
  EXPECT_FALSE(keep[2]);
}

TEST(VarianceMask, DropsRarelyDeviatingDiscreteColumn) {
  // A tunable that deviates from its default on 1 of 100 transfers is
  // "low variance" in the paper's sense even though its numeric variance
  // is substantial (4 -> 16 jump).
  ml::Matrix x(100, 2);
  Rng rng(11);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = i == 50 ? 16.0 : 4.0;
    x.at(i, 1) = rng.bernoulli(0.5) ? 2.0 : 8.0;  // Genuinely varying.
  }
  const auto keep = variance_mask(x);
  EXPECT_FALSE(keep[0]);
  EXPECT_TRUE(keep[1]);
}

TEST(VarianceMask, ZeroMeanColumnKept) {
  ml::Matrix x(50, 1);
  Rng rng(10);
  for (std::size_t i = 0; i < 50; ++i) x.at(i, 0) = rng.normal();
  EXPECT_TRUE(variance_mask(x)[0]);
}

TEST(Split, SeventyThirtyDisjointAndComplete) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  DatasetOptions options;
  options.load_threshold = 0.0;
  const auto dataset = build_edge_dataset(log, contention, {0, 1}, options);
  const auto split = split_dataset(dataset, 0.7, 42);
  EXPECT_EQ(split.train.rows() + split.test.rows(), dataset.rows());
  EXPECT_NEAR(static_cast<double>(split.train.rows()), 0.7 * 60.0, 1.0);
  std::set<std::size_t> seen;
  for (const auto i : split.train.record_indices) seen.insert(i);
  for (const auto i : split.test.record_indices) {
    EXPECT_FALSE(seen.contains(i)) << i;
    seen.insert(i);
  }
  EXPECT_EQ(seen.size(), dataset.rows());
}

TEST(Split, DeterministicPerSeedDifferentAcrossSeeds) {
  const auto log = small_log();
  const auto contention = compute_contention(log);
  DatasetOptions options;
  options.load_threshold = 0.0;
  const auto dataset = build_edge_dataset(log, contention, {0, 1}, options);
  const auto a = split_dataset(dataset, 0.7, 1);
  const auto b = split_dataset(dataset, 0.7, 1);
  const auto c = split_dataset(dataset, 0.7, 2);
  EXPECT_EQ(a.train.record_indices, b.train.record_indices);
  EXPECT_NE(a.train.record_indices, c.train.record_indices);
}

TEST(Split, ContractChecks) {
  features::Dataset dataset;
  EXPECT_THROW(split_dataset(dataset, 0.7, 1), xfl::ContractViolation);
}

}  // namespace
}  // namespace xfl::features
