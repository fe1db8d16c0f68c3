// Tests for prediction-time helpers: live-load snapshots and rate
// prediction intervals.
#include <gtest/gtest.h>

#include <sstream>

#include "common/units.hpp"
#include "core/predictor.hpp"
#include "features/contention.hpp"
#include "sim/scenario.hpp"

namespace xfl {
namespace {

logs::TransferRecord make_record(std::uint64_t id, endpoint::EndpointId src,
                                 endpoint::EndpointId dst, double start,
                                 double end, double bytes,
                                 std::uint32_t c = 4, std::uint32_t p = 2) {
  logs::TransferRecord r;
  r.id = id;
  r.src = src;
  r.dst = dst;
  r.start_s = start;
  r.end_s = end;
  r.bytes = bytes;
  r.files = 100;
  r.dirs = 1;
  r.concurrency = c;
  r.parallelism = p;
  return r;
}

TEST(Snapshot, EmptyWhenNothingActive) {
  logs::LogStore log;
  log.append(make_record(1, 0, 1, 0.0, 10.0, 1000.0));
  const auto features = features::snapshot_load(log, {0, 1}, 50.0);
  EXPECT_DOUBLE_EQ(features.k_sout, 0.0);
  EXPECT_DOUBLE_EQ(features.k_din, 0.0);
  EXPECT_DOUBLE_EQ(features.g_src, 0.0);
}

TEST(Snapshot, ActiveTransfersContributeFullRate) {
  logs::LogStore log;
  log.append(make_record(1, 0, 1, 0.0, 100.0, 10000.0));  // 100 B/s, active.
  log.append(make_record(2, 2, 0, 0.0, 100.0, 5000.0));   // 50 B/s into src.
  log.append(make_record(3, 1, 3, 0.0, 100.0, 2000.0));   // 20 B/s out of dst.
  const auto features = features::snapshot_load(log, {0, 1}, 50.0);
  EXPECT_DOUBLE_EQ(features.k_sout, 100.0);
  EXPECT_DOUBLE_EQ(features.k_sin, 50.0);
  EXPECT_DOUBLE_EQ(features.k_din, 100.0);
  EXPECT_DOUBLE_EQ(features.k_dout, 20.0);
  EXPECT_DOUBLE_EQ(features.g_src, 8.0);   // Both transfers at endpoint 0.
  EXPECT_DOUBLE_EQ(features.g_dst, 8.0);
  EXPECT_DOUBLE_EQ(features.s_sout, 8.0);  // min(4,100)*2 streams.
}

TEST(Snapshot, BoundarySemantics) {
  // Active on [start, end): inclusive at start, exclusive at end.
  logs::LogStore log;
  log.append(make_record(1, 0, 1, 10.0, 20.0, 1000.0));
  EXPECT_GT(features::snapshot_load(log, {0, 1}, 10.0).k_sout, 0.0);
  EXPECT_DOUBLE_EQ(features::snapshot_load(log, {0, 1}, 20.0).k_sout, 0.0);
  EXPECT_DOUBLE_EQ(features::snapshot_load(log, {0, 1}, 9.99).k_sout, 0.0);
}

TEST(Snapshot, ActiveTransferCount) {
  logs::LogStore log;
  log.append(make_record(1, 0, 1, 0.0, 100.0, 1.0));
  log.append(make_record(2, 0, 2, 50.0, 150.0, 1.0));
  log.append(make_record(3, 3, 0, 120.0, 130.0, 1.0));
  EXPECT_EQ(features::active_transfers_at(log, 0, 75.0), 2u);
  EXPECT_EQ(features::active_transfers_at(log, 0, 125.0), 2u);
  EXPECT_EQ(features::active_transfers_at(log, 0, 200.0), 0u);
  EXPECT_EQ(features::active_transfers_at(log, 7, 75.0), 0u);
}

TEST(Snapshot, MatchesSweepForCompetitorsSpanningTheTransfer) {
  // Competitors that span the whole of transfer 9 enter its sweep features
  // with overlap weight 1, so a snapshot taken before 9 starts must agree
  // field for field. Transfer 1 starts and ends at endpoint 0: it counts
  // once towards g_src, in either direction's K and S.
  logs::LogStore log;
  log.append(make_record(1, 0, 0, 0.0, 100.0, 6000.0, 3, 2));
  log.append(make_record(2, 2, 0, 0.0, 100.0, 5000.0));
  log.append(make_record(3, 1, 3, 0.0, 100.0, 2000.0, 2, 4));
  log.append(make_record(9, 0, 1, 10.0, 20.0, 1000.0));
  const auto sweep = features::compute_contention(log)[3];
  const auto snap = features::snapshot_load(log, {0, 1}, 5.0);
  EXPECT_DOUBLE_EQ(snap.g_src, 7.0);
  EXPECT_EQ(snap.k_sout, sweep.k_sout);
  EXPECT_EQ(snap.k_sin, sweep.k_sin);
  EXPECT_EQ(snap.k_dout, sweep.k_dout);
  EXPECT_EQ(snap.k_din, sweep.k_din);
  EXPECT_EQ(snap.g_src, sweep.g_src);
  EXPECT_EQ(snap.g_dst, sweep.g_dst);
  EXPECT_EQ(snap.s_sout, sweep.s_sout);
  EXPECT_EQ(snap.s_sin, sweep.s_sin);
  EXPECT_EQ(snap.s_dout, sweep.s_dout);
  EXPECT_EQ(snap.s_din, sweep.s_din);
}

class IntervalFixture : public ::testing::Test {
 protected:
  static const logs::LogStore& shared_log() {
    static const logs::LogStore log = [] {
      sim::EsnetConfig config;
      config.transfers = 1200;
      config.duration_s = 2.0 * 86400.0;
      config.seed = 31;
      return sim::make_esnet_testbed(config).run().log;
    }();
    return log;
  }

  static core::TransferPredictor trained() {
    core::TransferPredictor::Options options;
    options.min_edge_transfers = 50;
    options.gbt.trees = 80;
    core::TransferPredictor predictor(options);
    predictor.fit(shared_log());
    return predictor;
  }
};

TEST_F(IntervalFixture, IntervalBracketsPointEstimate) {
  const auto predictor = trained();
  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 20.0 * kGB;
  planned.files = 20;
  const auto interval = predictor.predict_rate_interval(planned);
  EXPECT_GT(interval.low_mbps, 0.0);
  EXPECT_LE(interval.low_mbps, interval.expected_mbps);
  EXPECT_GE(interval.high_mbps, interval.expected_mbps);
  EXPECT_DOUBLE_EQ(interval.expected_mbps,
                   predictor.predict_rate_mbps(planned));
}

TEST_F(IntervalFixture, IntervalHasNonTrivialWidth) {
  // Transfer rates in the testbed log vary with load, so the calibrated
  // band must not collapse to a point.
  const auto predictor = trained();
  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 20.0 * kGB;
  planned.files = 20;
  const auto interval = predictor.predict_rate_interval(planned);
  EXPECT_LT(interval.low_mbps, 0.99 * interval.high_mbps);
}

TEST_F(IntervalFixture, IntervalSurvivesSaveLoad) {
  const auto predictor = trained();
  std::stringstream buffer;
  predictor.save(buffer);
  const auto loaded = core::TransferPredictor::load(buffer);
  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 20.0 * kGB;
  planned.files = 20;
  const auto a = predictor.predict_rate_interval(planned);
  const auto b = loaded.predict_rate_interval(planned);
  EXPECT_DOUBLE_EQ(a.low_mbps, b.low_mbps);
  EXPECT_DOUBLE_EQ(a.expected_mbps, b.expected_mbps);
  EXPECT_DOUBLE_EQ(a.high_mbps, b.high_mbps);
}

TEST_F(IntervalFixture, SnapshotFeedsPredictorEndToEnd) {
  // The full prediction-time loop: snapshot the load from the log at some
  // instant, feed it to the predictor, get a finite degraded estimate.
  const auto& log = shared_log();
  const auto predictor = trained();
  // Pick a busy instant: the start of the 100th transfer.
  const double now = log[100].start_s;
  const logs::EdgeKey edge{0, 1};
  const auto load = features::snapshot_load(log, edge, now);
  core::PlannedTransfer planned;
  planned.src = edge.src;
  planned.dst = edge.dst;
  planned.bytes = 20.0 * kGB;
  planned.files = 20;
  const double with_load = predictor.predict_rate_mbps(planned, load);
  EXPECT_GT(with_load, 0.0);
  EXPECT_LT(with_load, 2000.0);
}

}  // namespace
}  // namespace xfl
