#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "core/lmt_model.hpp"
#include "core/predictor.hpp"
#include "sim/scenario.hpp"

namespace xfl::core {
namespace {

const logs::LogStore& shared_log() {
  static const logs::LogStore log = [] {
    sim::EsnetConfig config;
    config.transfers = 1200;
    config.duration_s = 2.0 * 86400.0;
    config.seed = 17;
    return sim::make_esnet_testbed(config).run().log;
  }();
  return log;
}

TransferPredictor::Options fast_options() {
  TransferPredictor::Options options;
  options.min_edge_transfers = 50;
  options.gbt.trees = 80;
  return options;
}

TEST(Predictor, FitAndPredictPlausibleRates) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  ASSERT_TRUE(predictor.fitted());

  PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 50.0 * kGB;
  planned.files = 25;
  const double rate = predictor.predict_rate_mbps(planned);
  EXPECT_GT(rate, 10.0);     // Not absurdly slow...
  EXPECT_LT(rate, 1500.0);   // ...and below 10 Gb/s line rate.
}

TEST(Predictor, LoadLowersPrediction) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 50.0 * kGB;
  planned.files = 25;
  const double idle = predictor.predict_rate_mbps(planned);
  features::ContentionFeatures heavy;
  heavy.k_sout = mbps(800.0);
  heavy.k_din = mbps(800.0);
  heavy.g_src = 16.0;
  heavy.g_dst = 16.0;
  heavy.s_sout = 64.0;
  heavy.s_din = 64.0;
  const double busy = predictor.predict_rate_mbps(planned, heavy);
  EXPECT_LT(busy, idle);
}

TEST(Predictor, DurationConsistentWithRate) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 10.0 * kGB;
  planned.files = 10;
  const double rate_mbps = predictor.predict_rate_mbps(planned);
  const double duration = predictor.estimate_duration_s(planned);
  EXPECT_NEAR(duration, planned.bytes / mbps(rate_mbps), 1e-6);
}

TEST(Predictor, FallsBackToGlobalModelForUnseenEdge) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  // Edge 3 -> 0 exists; an unused combination falls back cleanly.
  PlannedTransfer planned;
  planned.src = 2;
  planned.dst = 0;
  planned.bytes = kGB;
  planned.files = 5;
  EXPECT_FALSE(predictor.has_edge_model({99, 100}));
  const double rate = predictor.predict_rate_mbps(planned);
  EXPECT_GT(rate, 0.0);
}

TEST(Predictor, ExplainReturnsSortedImportances) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  const auto importances = predictor.explain({0, 1});
  ASSERT_GE(importances.size(), 15u);
  for (std::size_t i = 1; i < importances.size(); ++i)
    EXPECT_GE(importances[i - 1].second, importances[i].second);
}

TEST(Predictor, CapabilityLookup) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  const auto* capability = predictor.capability(0);
  ASSERT_NE(capability, nullptr);
  EXPECT_GT(capability->ro_max_Bps, 0.0);
  EXPECT_EQ(predictor.capability(250), nullptr);
}

TEST(Predictor, PredictBeforeFitRejected) {
  TransferPredictor predictor(fast_options());
  PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 1.0;
  EXPECT_THROW(predictor.predict_rate_mbps(planned), xfl::ContractViolation);
}

TEST(Predictor, SaveLoadAnswersIdentically) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());

  std::stringstream buffer;
  predictor.save(buffer);
  const auto loaded = TransferPredictor::load(buffer);
  ASSERT_TRUE(loaded.fitted());

  PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 42.0 * kGB;
  planned.files = 17;
  features::ContentionFeatures load_state;
  load_state.k_sout = mbps(300.0);
  load_state.g_src = 8.0;
  EXPECT_DOUBLE_EQ(loaded.predict_rate_mbps(planned, load_state),
                   predictor.predict_rate_mbps(planned, load_state));

  // Fallback path (global model with capabilities) matches too.
  planned.src = 2;
  planned.dst = 3;
  EXPECT_DOUBLE_EQ(loaded.predict_rate_mbps(planned),
                   predictor.predict_rate_mbps(planned));

  // Explanations and capabilities survive.
  EXPECT_EQ(loaded.explain({0, 1}), predictor.explain({0, 1}));
  ASSERT_NE(loaded.capability(0), nullptr);
  EXPECT_DOUBLE_EQ(loaded.capability(0)->ro_max_Bps,
                   predictor.capability(0)->ro_max_Bps);
}

TEST(Predictor, BatchPredictEmptyInputYieldsEmptyOutput) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  EXPECT_TRUE(predictor.predict_rates_mbps({}).empty());
}

TEST(Predictor, BatchPredictMismatchedLoadSpanRejected) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  std::vector<PlannedTransfer> transfers(3);
  for (auto& planned : transfers) {
    planned.src = 0;
    planned.dst = 1;
    planned.bytes = kGB;
  }
  std::vector<features::ContentionFeatures> loads(2);  // 2 != 3.
  EXPECT_THROW(predictor.predict_rates_mbps(transfers, loads),
               xfl::ContractViolation);
}

TEST(Predictor, BatchPredictEmptyLoadSpanMeansAllIdle) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  std::vector<PlannedTransfer> transfers(4);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    transfers[i].src = i % 2;
    transfers[i].dst = 2 + i % 2;
    transfers[i].bytes = (1.0 + i) * kGB;
    transfers[i].files = 1 + i;
  }
  const auto rates = predictor.predict_rates_mbps(transfers);
  ASSERT_EQ(rates.size(), transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i)
    EXPECT_EQ(rates[i], predictor.predict_rate_mbps(transfers[i]));
}

TEST(Predictor, SaveFileLoadFileRoundTripsAtomically) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());

  const std::string path = testing::TempDir() + "predictor_roundtrip.txt";
  predictor.save_file(path);
  // The temp staging file must be gone after the atomic rename.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0);

  const auto loaded = TransferPredictor::load_file(path);
  ASSERT_TRUE(loaded.fitted());
  PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 42.0 * kGB;
  planned.files = 17;
  EXPECT_DOUBLE_EQ(loaded.predict_rate_mbps(planned),
                   predictor.predict_rate_mbps(planned));

  // Saving over an existing file replaces it cleanly.
  predictor.save_file(path);
  EXPECT_DOUBLE_EQ(TransferPredictor::load_file(path).predict_rate_mbps(planned),
                   predictor.predict_rate_mbps(planned));
}

TEST(Predictor, LoadFileMissingPathThrows) {
  EXPECT_THROW(TransferPredictor::load_file("/nonexistent/dir/model.txt"),
               std::runtime_error);
  // A directory opens but cannot be read as a model: a structured error
  // too, not bad_alloc from its nonsense size.
  EXPECT_THROW(TransferPredictor::load_file(testing::TempDir()),
               std::runtime_error);
}

TEST(Predictor, SaveFileUnwritableDirectoryThrowsAndLeavesNoTemp) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  EXPECT_THROW(predictor.save_file("/nonexistent/dir/model.txt"),
               std::runtime_error);
}

TEST(Predictor, SaveFileWithBareFilenameSyncsCwdParent) {
  // A path with no directory component must fsync "." (the cwd), not
  // crash on an empty parent string. Run from the test's temp dir so the
  // artifact does not litter the build tree.
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  char original[4096];
  ASSERT_NE(::getcwd(original, sizeof original), nullptr);
  ASSERT_EQ(::chdir(testing::TempDir().c_str()), 0);
  predictor.save_file("bare_model.txt");
  const auto loaded = TransferPredictor::load_file("bare_model.txt");
  PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 10.0 * kGB;
  EXPECT_DOUBLE_EQ(loaded.predict_rate_mbps(planned),
                   predictor.predict_rate_mbps(planned));
  ::unlink("bare_model.txt");
  ASSERT_EQ(::chdir(original), 0);
}

TEST(Predictor, CloneAnswersIdenticallyAndIsIndependent) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());
  const TransferPredictor cloned = predictor;
  ASSERT_TRUE(cloned.fitted());

  PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 42.0 * kGB;
  planned.files = 17;
  features::ContentionFeatures load;
  load.k_sout = mbps(200.0);
  load.g_dst = 4.0;
  // A copy shares the fitted models: bit-identical answers.
  EXPECT_EQ(cloned.predict_rate_mbps(planned, load),
            predictor.predict_rate_mbps(planned, load));

  // Mutating a copy (refit of one edge) must not touch the original.
  std::vector<EdgeSample> samples;
  for (int i = 0; i < 40; ++i) {
    EdgeSample sample;
    sample.transfer.src = 0;
    sample.transfer.dst = 1;
    sample.transfer.bytes = (1.0 + i) * kGB;
    sample.transfer.files = static_cast<std::uint64_t>(1 + i);
    sample.observed_mbps = 100.0 + i;
    samples.push_back(sample);
  }
  TransferPredictor mutated = predictor;
  std::ostringstream original_bytes;
  predictor.save(original_bytes);
  std::ostringstream copy_bytes;
  mutated.save(copy_bytes);
  EXPECT_EQ(copy_bytes.str(), original_bytes.str());
  ml::GbtConfig gbt;
  gbt.trees = 20;
  const double before = predictor.predict_rate_mbps(planned, load);
  mutated.refit_edge({0, 1}, samples, {}, gbt);
  EXPECT_EQ(predictor.predict_rate_mbps(planned, load), before);
  // The refit replaced the copy's model for the edge, not the shared one
  // the original still serves.
  std::ostringstream after_refit;
  predictor.save(after_refit);
  EXPECT_EQ(after_refit.str(), original_bytes.str());
}

TEST(Predictor, ThrowingRefitLeavesPredictorUnchanged) {
  // With a one-transfer floor, an edge seen once makes its GBT fit reject
  // the single row. The models train concurrently and are committed only
  // after all of them succeed, so the earlier fit keeps serving intact.
  auto options = fast_options();
  options.min_edge_transfers = 1;
  options.gbt.trees = 10;
  logs::LogStore good;
  for (const auto& record : shared_log().records())
    if (shared_log().edge_count({record.src, record.dst}) >= 2)
      good.append(record);
  TransferPredictor predictor(options);
  predictor.fit(good);
  std::ostringstream before;
  predictor.save(before);

  logs::LogStore bad = good;
  auto lone = good.records().front();
  lone.id = 999999;
  lone.dst = 250;  // A new edge with a single transfer.
  bad.append(lone);
  EXPECT_THROW(predictor.fit(bad), ContractViolation);

  ASSERT_TRUE(predictor.fitted());
  std::ostringstream after;
  predictor.save(after);
  EXPECT_EQ(after.str(), before.str());
}

TEST(Predictor, RefitEdgeLearnsFromServingSamples) {
  TransferPredictor predictor(fast_options());
  predictor.fit(shared_log());

  // Synthesize an unseen edge whose ground truth is a simple function of
  // bytes; after refit the dedicated model must beat the global fallback.
  const logs::EdgeKey edge{40, 41};
  ASSERT_FALSE(predictor.has_edge_model(edge));
  std::vector<EdgeSample> samples;
  for (int i = 0; i < 120; ++i) {
    EdgeSample sample;
    sample.transfer.src = edge.src;
    sample.transfer.dst = edge.dst;
    sample.transfer.bytes = (1.0 + i % 30) * kGB;
    sample.transfer.files = static_cast<std::uint64_t>(1 + i % 7);
    sample.transfer.concurrency = static_cast<std::uint32_t>(1 + i % 4);
    sample.observed_mbps = 50.0 + 2.0 * static_cast<double>(i % 30);
    samples.push_back(sample);
  }
  ml::GbtConfig gbt;
  gbt.trees = 60;
  predictor.refit_edge(edge, samples, {}, gbt);
  ASSERT_TRUE(predictor.has_edge_model(edge));

  double total_ape = 0.0;
  for (const auto& sample : samples) {
    const double rate = predictor.predict_rate_mbps(sample.transfer);
    total_ape += std::abs(rate - sample.observed_mbps) / sample.observed_mbps;
  }
  EXPECT_LT(total_ape / static_cast<double>(samples.size()), 0.15);

  // Contract checks: too few samples and non-positive rates are bugs.
  EXPECT_THROW(predictor.refit_edge(edge, std::span(samples.data(), 1), {}, gbt),
               xfl::ContractViolation);
  auto bad = samples;
  bad[3].observed_mbps = 0.0;
  EXPECT_THROW(predictor.refit_edge(edge, bad, {}, gbt),
               xfl::ContractViolation);
}

TEST(Predictor, SaveRequiresFitAndLoadRejectsGarbage) {
  TransferPredictor predictor(fast_options());
  std::stringstream buffer;
  EXPECT_THROW(predictor.save(buffer), xfl::ContractViolation);
  std::stringstream bad("wrong-magic 0 0");
  EXPECT_THROW(TransferPredictor::load(bad), std::runtime_error);
}

TEST(LmtStudy, MonitoredFeaturesCollapseError) {
  // §5.5.2's shape: adding ground-truth storage-load features must cut the
  // error substantially (paper: p95 9.29% -> 1.26%). The median error is
  // the stable assertion at test-sized sample counts; p95 is checked not
  // to regress materially.
  sim::LmtConfig scenario_config;
  scenario_config.test_transfers = 400;
  const auto scenario = sim::make_nersc_lmt(scenario_config);
  const auto result = scenario.run();

  LmtStudyConfig config;
  config.gbt.trees = 300;
  config.gbt.max_depth = 6;
  config.gbt.min_child_weight = 3.0;
  const auto report = run_lmt_study(result, scenario.monitored_endpoints[0],
                                    scenario.monitored_endpoints[1], config);
  EXPECT_GE(report.test_transfers, 300u);
  EXPECT_GT(report.baseline_p95, 0.0);
  EXPECT_LT(report.augmented_mdape, 0.8 * report.baseline_mdape);
  EXPECT_LT(report.augmented_p95, report.baseline_p95 * 1.1);
}

TEST(LmtStudy, OutputsArePinned) {
  // The Sec. 5.5.2 study bit for bit: both MdAPEs and both p95 errors.
  sim::LmtConfig scenario_config;
  scenario_config.test_transfers = 400;
  const auto scenario = sim::make_nersc_lmt(scenario_config);
  const auto result = scenario.run();
  LmtStudyConfig config;
  config.gbt.trees = 100;
  const auto report = run_lmt_study(result, scenario.monitored_endpoints[0],
                                    scenario.monitored_endpoints[1], config);
  EXPECT_EQ(report.test_transfers, 400u);
  EXPECT_EQ(report.baseline_mdape, 0x1.9cb76bee68094p+2);
  EXPECT_EQ(report.augmented_mdape, 0x1.1188619e91e78p+2);
  EXPECT_EQ(report.baseline_p95, 0x1.39bd59350ce5ap+4);
  EXPECT_EQ(report.augmented_p95, 0x1.cbe3be9549291p+3);
}

TEST(LmtStudy, RequiresMonitoredEndpoints) {
  sim::SimResult empty;
  LmtStudyConfig config;
  EXPECT_THROW(run_lmt_study(empty, 0, 1, config), xfl::ContractViolation);
}

}  // namespace
}  // namespace xfl::core
