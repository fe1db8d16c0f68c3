// Integration tests across modules: simulate -> analyze -> model. These are
// the paper's §5 pipeline exercised end-to-end on a small ESnet workload.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/edge_model.hpp"
#include "core/global_model.hpp"
#include "core/pipeline.hpp"
#include "core/threshold_study.hpp"
#include "sim/scenario.hpp"

namespace xfl::core {
namespace {

/// One shared simulated log for the whole suite (sim + contention sweep is
/// the expensive part).
const AnalysisContext& shared_context() {
  static const AnalysisContext context = [] {
    sim::EsnetConfig config;
    config.transfers = 2500;
    config.duration_s = 4.0 * 86400.0;
    config.seed = 7;
    return analyze_log(sim::make_esnet_testbed(config).run().log);
  }();
  return context;
}

EdgeModelConfig fast_config() {
  EdgeModelConfig config;
  config.gbt.trees = 80;
  return config;
}

TEST(Pipeline, ContextAligned) {
  const auto& context = shared_context();
  EXPECT_GT(context.log.size(), 2000u);
  EXPECT_EQ(context.contention.size(), context.log.size());
  EXPECT_EQ(context.capabilities.size(), 4u);  // Four testbed endpoints.
}

TEST(Pipeline, CapabilitiesAtLeastObservedRates) {
  const auto& context = shared_context();
  for (const auto& [endpoint, capability] : context.capabilities) {
    EXPECT_GE(capability.ro_max_Bps, capability.dr_max_Bps);
    EXPECT_GE(capability.ri_max_Bps, capability.dw_max_Bps);
    EXPECT_GT(capability.dr_max_Bps, 0.0);
  }
}

TEST(Pipeline, HeavyEdgeSelectionRespectsThresholdCount) {
  const auto& context = shared_context();
  const auto edges = select_heavy_edges(context, 100, 0.5, 0);
  EXPECT_FALSE(edges.empty());
  for (const auto& edge : edges) {
    const double cutoff = 0.5 * context.log.edge_max_rate(edge);
    std::size_t qualifying = 0;
    for (const auto i : context.log.edge_transfers(edge))
      if (context.log[i].rate_Bps() >= cutoff) ++qualifying;
    EXPECT_GE(qualifying, 100u);
  }
}

TEST(Pipeline, MaxEdgesTruncates) {
  const auto& context = shared_context();
  EXPECT_LE(select_heavy_edges(context, 50, 0.5, 3).size(), 3u);
}

TEST(EdgeModel, StudyProducesCompleteReport) {
  const auto& context = shared_context();
  const auto edges = select_heavy_edges(context, 100, 0.5, 1);
  ASSERT_FALSE(edges.empty());
  const auto report = study_edge(context, edges[0], fast_config());
  EXPECT_GE(report.samples, 100u);
  EXPECT_EQ(report.feature_names.size(), 16u);
  EXPECT_EQ(report.eliminated.size(), 16u);
  EXPECT_EQ(report.lr_coefficients.size(), 16u);
  EXPECT_EQ(report.xgb_importance.size(), 16u);
  EXPECT_GT(report.lr_mdape, 0.0);
  EXPECT_GT(report.xgb_mdape, 0.0);
  EXPECT_LT(report.xgb_mdape, 60.0);
}

TEST(EdgeModel, TunablesEliminatedForLowVariance) {
  // The ESnet workload uses fixed C=4, P=4 (tiny deviation rate), so the
  // study must cross them out, as the paper does in Fig. 9.
  const auto& context = shared_context();
  const auto edges = select_heavy_edges(context, 100, 0.5, 2);
  ASSERT_FALSE(edges.empty());
  const auto report = study_edge(context, edges[0], fast_config());
  // Columns 2 and 3 are C and P.
  EXPECT_TRUE(report.eliminated[2]);
  EXPECT_TRUE(report.eliminated[3]);
}

TEST(EdgeModel, CoefficientsScaledToUnitMax) {
  const auto& context = shared_context();
  const auto edges = select_heavy_edges(context, 100, 0.5, 1);
  ASSERT_FALSE(edges.empty());
  const auto report = study_edge(context, edges[0], fast_config());
  double max_coefficient = 0.0;
  for (const double c : report.lr_coefficients) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    max_coefficient = std::max(max_coefficient, c);
  }
  EXPECT_DOUBLE_EQ(max_coefficient, 1.0);
}

TEST(EdgeModel, NonlinearBeatsLinearOnMostEdges) {
  // The paper's core result (Fig. 11): XGB <= LR MdAPE on most edges.
  const auto& context = shared_context();
  const auto edges = select_heavy_edges(context, 80, 0.5, 6);
  ASSERT_GE(edges.size(), 3u);
  const auto reports = study_edges(context, edges, fast_config());
  std::size_t xgb_wins = 0;
  for (const auto& report : reports)
    if (report.xgb_mdape <= report.lr_mdape) ++xgb_wins;
  EXPECT_GE(2 * xgb_wins, reports.size());  // Wins at least half.
}

TEST(EdgeModel, ParallelStudyMatchesSerial) {
  const auto& context = shared_context();
  const auto edges = select_heavy_edges(context, 80, 0.5, 3);
  ASSERT_FALSE(edges.empty());
  ThreadPool pool(2);
  const auto serial = study_edges(context, edges, fast_config());
  const auto parallel = study_edges(context, edges, fast_config(), &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].lr_mdape, parallel[i].lr_mdape);
    EXPECT_DOUBLE_EQ(serial[i].xgb_mdape, parallel[i].xgb_mdape);
  }
}

TEST(GlobalModel, PooledModelTrainsAndEvaluates) {
  const auto& context = shared_context();
  const auto edges = select_heavy_edges(context, 100, 0.5, 0);
  ASSERT_GE(edges.size(), 2u);
  GlobalModelConfig config;
  config.gbt.trees = 80;
  const auto report = study_global_model(context, edges, config);
  EXPECT_GT(report.samples, 200u);
  EXPECT_EQ(report.edges, edges.size());
  EXPECT_GT(report.lr_mdape, 0.0);
  EXPECT_GT(report.xgb_mdape, 0.0);
  // §5.4's shape: the pooled nonlinear model is far better than pooled LR.
  EXPECT_LT(report.xgb_mdape, report.lr_mdape);
  // On the 4-endpoint testbed the capability columns are near-constant and
  // may be variance-eliminated; the surviving feature list is never empty.
  EXPECT_FALSE(report.feature_names.empty());
}

TEST(GlobalModel, CapabilityAblationSupported) {
  const auto& context = shared_context();
  const auto edges = select_heavy_edges(context, 100, 0.5, 0);
  GlobalModelConfig config;
  config.gbt.trees = 60;
  config.without_capability_features = true;
  const auto report = study_global_model(context, edges, config);
  for (const auto& name : report.feature_names) {
    EXPECT_NE(name, "ROmax_src");
    EXPECT_NE(name, "RImax_dst");
  }
}

/// FNV-1a over the bit patterns of a study's outputs.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (value >> (8 * b)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::vector<double>& values) {
    for (const double v : values) add(v);
  }
  void add(const std::vector<bool>& flags) {
    for (const bool f : flags) add(std::uint64_t{f});
  }
  void add(const std::vector<std::string>& names) {
    for (const auto& name : names)
      for (const char c : name) add(std::uint64_t{static_cast<unsigned char>(c)});
  }
  void add(const DistributionSummary& s) {
    for (const double v : {s.p5, s.p25, s.p50, s.p75, s.p95, s.mean}) add(v);
    add(std::uint64_t{s.count});
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// The per-edge (Figs. 9-12) and pooled (Sec. 5.4) studies, pinned bit for
// bit: MdAPEs, LR R^2, the Fig. 10 APE summaries, the coefficient and
// importance maps and the eliminated mask. A change to the split, the
// variance elimination, the scaler or either fit moves them.
TEST(StudyPin, EdgeAndGlobalOutputsArePinned) {
  const auto& context = shared_context();
  const auto edges = select_heavy_edges(context, 100, 0.5, 0);
  ASSERT_GE(edges.size(), 2u);

  const auto edge = study_edge(context, edges[0], fast_config());
  Digest edge_maps;
  edge_maps.add(edge.feature_names);
  edge_maps.add(edge.eliminated);
  edge_maps.add(edge.lr_coefficients);
  edge_maps.add(edge.xgb_importance);
  Digest edge_errors;
  edge_errors.add(edge.lr_ape);
  edge_errors.add(edge.xgb_ape);
  EXPECT_EQ(edge.samples, 183u);
  EXPECT_EQ(edge.lr_mdape, 0x1.8193d3b70c43cp+1);
  EXPECT_EQ(edge.xgb_mdape, 0x1.7dce9c76338d5p+1);
  EXPECT_EQ(edge.lr_r2, 0x1.586d5b544ab6ap-1);
  EXPECT_EQ(edge_maps.value(), 0xab721190c121422aULL);
  EXPECT_EQ(edge_errors.value(), 0xc95f8833692cdaf6ULL);

  GlobalModelConfig config;
  config.gbt.trees = 80;
  const auto global = study_global_model(context, edges, config);
  Digest global_maps;
  global_maps.add(global.feature_names);
  global_maps.add(global.xgb_importance);
  EXPECT_EQ(global.samples, 1325u);
  EXPECT_EQ(global.edges, 11u);
  EXPECT_EQ(global.lr_mdape, 0x1.01d7803c99deep+3);
  EXPECT_EQ(global.xgb_mdape, 0x1.b975c527a09e5p+1);
  EXPECT_EQ(global.lr_r2, 0x1.8d1bb35af9222p-1);
  EXPECT_EQ(global_maps.value(), 0x34c1702f29353be7ULL);
}

TEST(ThresholdStudy, SeriesShapesConsistent) {
  const auto& context = shared_context();
  ThresholdStudyConfig config;
  config.min_transfers_at_max = 30;
  config.max_edges = 3;
  config.edge_config = fast_config();
  const auto series = run_threshold_study(context, config);
  ASSERT_FALSE(series.empty());
  for (const auto& entry : series) {
    ASSERT_EQ(entry.samples.size(), 4u);
    ASSERT_EQ(entry.xgb_mdape.size(), 4u);
    // Higher thresholds keep fewer transfers.
    for (std::size_t t = 1; t < entry.samples.size(); ++t)
      EXPECT_LE(entry.samples[t], entry.samples[t - 1]);
    EXPECT_GE(entry.samples.back(), 30u);
  }
}

}  // namespace
}  // namespace xfl::core
