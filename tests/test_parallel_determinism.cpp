// Cross-thread-count determinism contracts (tier 2).
//
// The parallel contention sweep and the predictor's concurrent model fits
// promise bit-identical results regardless of how many workers they use:
// threading splits work by endpoint / model over privately-owned outputs,
// never by interleaving accumulation. These tests pin that contract by
// comparing serial, two-worker, and hardware-concurrency runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/predictor.hpp"
#include "features/contention.hpp"
#include "logs/log_store.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"

namespace xfl {
namespace {

logs::LogStore synthetic_log(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  logs::LogStore log;
  for (std::size_t i = 0; i < n; ++i) {
    logs::TransferRecord r;
    r.id = i + 1;
    r.src = static_cast<endpoint::EndpointId>(rng.uniform_int(0, 19));
    r.dst = static_cast<endpoint::EndpointId>(rng.uniform_int(0, 19));
    if (r.dst == r.src) r.dst = (r.src + 1) % 20;
    r.start_s = rng.uniform(0.0, 1.0e5);
    r.end_s = r.start_s + rng.uniform(10.0, 2000.0);
    r.bytes = rng.lognormal(23.0, 2.0);
    r.files = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 500));
    r.dirs = 1;
    r.concurrency = 1 + static_cast<int>(rng.uniform_int(0, 7));
    r.parallelism = 1 + static_cast<int>(rng.uniform_int(0, 7));
    log.append(r);
  }
  return log;
}

TEST(ParallelDeterminism, ContentionSweepMatchesSerialExactly) {
  const auto log = synthetic_log(2500, 17);
  const auto serial = features::compute_contention(log, 1);
  ASSERT_EQ(serial.size(), log.size());
  for (const int threads : {2, 0}) {  // 0 = hardware concurrency.
    const auto parallel = features::compute_contention(log, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].k_sout, parallel[i].k_sout) << "record " << i;
      EXPECT_EQ(serial[i].k_sin, parallel[i].k_sin) << "record " << i;
      EXPECT_EQ(serial[i].k_dout, parallel[i].k_dout) << "record " << i;
      EXPECT_EQ(serial[i].k_din, parallel[i].k_din) << "record " << i;
      EXPECT_EQ(serial[i].g_src, parallel[i].g_src) << "record " << i;
      EXPECT_EQ(serial[i].g_dst, parallel[i].g_dst) << "record " << i;
      EXPECT_EQ(serial[i].s_sout, parallel[i].s_sout) << "record " << i;
      EXPECT_EQ(serial[i].s_sin, parallel[i].s_sin) << "record " << i;
      EXPECT_EQ(serial[i].s_dout, parallel[i].s_dout) << "record " << i;
      EXPECT_EQ(serial[i].s_din, parallel[i].s_din) << "record " << i;
    }
  }
}

/// The fit-side instrument totals: predictor.fit.* and gbt.fit.* counters
/// plus the sample counts of the gbt.fit.* timing histograms.
std::map<std::string, std::uint64_t> fit_tallies() {
  std::map<std::string, std::uint64_t> tallies;
  for (const char* name :
       {"predictor.fit.count", "predictor.fit.edge_models",
        "predictor.fit.calibrated", "predictor.fit.uncalibrated",
        "gbt.fit.count", "gbt.fit.rows", "gbt.fit.trees"})
    tallies[name] = obs::counter(name).value();
  for (const char* name : {"gbt.fit.bin_us", "gbt.fit.tree_us"})
    tallies[name] = obs::histogram(name).snapshot().count;
  return tallies;
}

TEST(ParallelDeterminism, PredictorFitIsByteIdenticalAcrossWidths) {
  sim::EsnetConfig scenario_config;
  scenario_config.seed = 41;
  scenario_config.transfers = 1200;
  const auto log = sim::make_esnet_testbed(scenario_config).run().log;

  std::string serial_bytes;
  std::map<std::string, std::uint64_t> serial_deltas;
  for (const int width : {1, 2, 3, 0}) {  // 0 = hardware concurrency.
    core::TransferPredictor::Options options;
    options.min_edge_transfers = 40;
    options.gbt.trees = 15;
    options.gbt.max_depth = 3;
    options.threads = width;
    core::TransferPredictor predictor(options);
    const auto before = fit_tallies();
    predictor.fit(log);
    auto deltas = fit_tallies();
    for (auto& [name, value] : deltas) value -= before.at(name);
    std::ostringstream out;
    predictor.save(out);
    if (width == 1) {
      // Several edge models, so the wider fits really fan out.
      ASSERT_GT(deltas.at("predictor.fit.edge_models"), 2u);
      serial_bytes = out.str();
      serial_deltas = deltas;
      continue;
    }
    EXPECT_EQ(out.str(), serial_bytes) << "width " << width;
    EXPECT_EQ(deltas, serial_deltas) << "width " << width;
  }
}

}  // namespace
}  // namespace xfl
